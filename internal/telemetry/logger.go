package telemetry

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
)

// levelOff is a level above every record's, so a logger set to it writes
// nothing.
const levelOff = slog.LevelError + 4

// ParseLevel maps a level name (debug, info, warn, warning, error, off,
// none; any case) to its slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	case "off", "none":
		return levelOff, nil
	default:
		return levelOff, fmt.Errorf("telemetry: unknown log level %q", s)
	}
}

// logLevel is the default logger's minimum level. It starts at warn, so
// instrumented library packages stay silent in normal runs and CLI output
// is unchanged unless a user raises verbosity with SetLogLevel.
var logLevel = func() *slog.LevelVar {
	v := new(slog.LevelVar)
	v.Set(slog.LevelWarn)
	return v
}()

// newLogger returns a slog text logger writing to w at logLevel.
func newLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: logLevel}))
}

var defaultLogger = newLogger(os.Stderr)

// Log returns the process-wide default logger: slog text records on
// stderr, one line per record.
func Log() *slog.Logger { return defaultLogger }

// SetLogLevel sets the default logger's minimum level.
func SetLogLevel(min slog.Level) { logLevel.Set(min) }
