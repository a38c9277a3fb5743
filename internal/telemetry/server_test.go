package telemetry

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// startServe parses the given flag args and starts the observability
// server, failing the test on error and cleaning up on exit.
func startServe(t *testing.T, ctx context.Context, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := f.StartContext(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Finish() })
	return f
}

func get(t *testing.T, url string) (status int, contentType, body string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(b)
}

func TestServeEndpoints(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := startServe(t, ctx, "-serve", "localhost:0")
	if f.Addr() == "" {
		t.Fatal("no resolved -serve address")
	}
	base := "http://" + f.Addr()

	// The registry is process-wide: under -count=2 the counter carries the
	// previous run's increment, so /metrics must show this run's on top.
	counter := GetCounter("mnsim_servetest_total")
	want := fmt.Sprintf("mnsim_servetest_total %d\n", counter.Value()+1)
	counter.Inc()
	_, sp := StartSpan(context.Background(), "servetest.span")
	sp.End()
	ph := StartPhase("servetest.phase", 10)
	defer ph.Finish()

	status, ct, body := get(t, base+"/metrics")
	if status != http.StatusOK || !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics status %d content-type %q", status, ct)
	}
	if !strings.Contains(body, want) {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	status, ct, body = get(t, base+"/metrics.json")
	if status != http.StatusOK || !strings.Contains(ct, "application/json") {
		t.Fatalf("/metrics.json status %d content-type %q", status, ct)
	}
	if !strings.Contains(body, `"counters"`) {
		t.Fatalf("/metrics.json malformed:\n%s", body)
	}

	status, _, body = get(t, base+"/trace")
	if status != http.StatusOK || !strings.Contains(body, "servetest.span") {
		t.Fatalf("/trace status %d body:\n%s", status, body)
	}

	// -serve turns the ring-only journal on, so the running phase's start
	// is in /events.
	status, _, body = get(t, base+"/events")
	var ring struct {
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &ring); status != http.StatusOK || err != nil {
		t.Fatalf("/events status %d (%v):\n%s", status, err, body)
	}
	found := false
	for _, ev := range ring.Events {
		var pe PhaseEvent
		found = found || (ev.Type == EvPhase && ev.ID == "servetest.phase" &&
			ev.Decode(&pe) == nil && pe == PhaseEvent{Action: "start", Total: 10})
	}
	if !found {
		t.Fatalf("/events lacks the live phase's start:\n%s", body)
	}

	status, _, body = get(t, base+"/runinfo")
	if status != http.StatusOK || !strings.Contains(body, `"go_version"`) {
		t.Fatalf("/runinfo status %d body:\n%s", status, body)
	}

	status, _, body = get(t, base+"/healthz")
	if status != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz status %d body %q", status, body)
	}

	status, _, body = get(t, base+"/debug/pprof/")
	if status != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ status %d", status)
	}

	// Cancelling the CLI context shuts the server down gracefully.
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := http.Get(base + "/healthz"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server still up after context cancel")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
