package telemetry

import (
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

// testLogger returns a logger built as the default one is, writing to a
// buffer, and restores the default level at test end.
func testLogger(t *testing.T) (*slog.Logger, *strings.Builder) {
	t.Helper()
	var sb strings.Builder
	t.Cleanup(func() { SetLogLevel(slog.LevelWarn) })
	return newLogger(&sb), &sb
}

// A record is one slog text line: level, message, then the key-value
// pairs, quoted where they hold spaces.
func TestLoggerFormat(t *testing.T) {
	l, sb := testLogger(t)
	l.Warn("sweep done", "candidates", 300, "case", "large bank")
	line := sb.String()
	if !strings.HasPrefix(line, "time=") || !strings.HasSuffix(line,
		` level=WARN msg="sweep done" candidates=300 case="large bank"`+"\n") {
		t.Fatalf("record not in slog text form: %q", line)
	}
}

// The level starts at warn and filters every record below it; off
// silences errors too.
func TestLoggerLevelFiltering(t *testing.T) {
	l, sb := testLogger(t)
	if logLevel.Level() != slog.LevelWarn {
		t.Fatalf("default level %v, want warn", logLevel.Level())
	}
	l.Debug("dropped")
	l.Info("dropped")
	l.Warn("kept")
	l.Error("kept")
	if got := strings.Count(sb.String(), "\n"); got != 2 {
		t.Fatalf("got %d records, want 2:\n%s", got, sb.String())
	}
	SetLogLevel(levelOff)
	l.Error("dropped too")
	if got := strings.Count(sb.String(), "\n"); got != 2 {
		t.Fatalf("off still logs:\n%s", sb.String())
	}
	if Log().Enabled(context.Background(), slog.LevelError) {
		t.Fatal("default logger enabled at off")
	}
}

// A dangling key stays visible rather than dropped.
func TestLoggerOddKV(t *testing.T) {
	l, sb := testLogger(t)
	kv := []any{"size", 128, "dangling"} // spread, so vet lets the odd count through
	l.Warn("odd", kv...)
	if !strings.Contains(sb.String(), "size=128") || !strings.Contains(sb.String(), "!BADKEY=dangling") {
		t.Fatalf("odd kv mishandled: %s", sb.String())
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "Info": slog.LevelInfo, "WARN": slog.LevelWarn,
		"warning": slog.LevelWarn, "error": slog.LevelError, "off": levelOff, " none ": levelOff,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("unknown level accepted")
	}
}

// Concurrent records never interleave within a line.
func TestLoggerConcurrent(t *testing.T) {
	l, sb := testLogger(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				l.Warn("tick", "k", k)
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 8*200 {
		t.Fatalf("got %d records, want %d", len(lines), 8*200)
	}
	for _, line := range lines {
		if !strings.Contains(line, ` level=WARN msg=tick k=`) {
			t.Fatalf("interleaved record %q", line)
		}
	}
}
