package telemetry_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mnsim/internal/circuit"
	"mnsim/internal/dse"
	"mnsim/internal/telemetry"
)

// FuzzReadJournal checks the journal parser never panics on arbitrary
// bytes, that anything it accepts round-trips (re-marshalling the accepted
// events as JSONL and re-reading them yields the same events), and that the
// typed decoders the readers use take every accepted event without a
// panic. Mirrors the config and solver-snapshot fuzzers.
func FuzzReadJournal(f *testing.F) {
	// v2 header + a span pair.
	f.Add([]byte(`{"seq":1,"t_ns":10,"type":"journal","data":{"schema_version":2,"tool":"mnsim-sim"}}
{"seq":2,"t_ns":20,"type":"span_start","id":"solve","data":{"trace":"abc"}}
{"seq":3,"t_ns":30,"type":"span_end","id":"solve"}
`))
	// v1-style minimal events (no data payloads).
	f.Add([]byte(`{"seq":1,"t_ns":1,"type":"journal"}
{"seq":2,"t_ns":2,"type":"metric","id":"mnsim_solver_iterations"}
`))
	// Future schema version: must be a SchemaVersionError, not a panic,
	// also beside a header field of an unexpected type.
	f.Add([]byte(`{"seq":1,"t_ns":1,"type":"journal","data":{"schema_version":99}}
`))
	f.Add([]byte(`{"seq":1,"t_ns":1,"type":"journal","data":{"schema_version":99,"pid":"x"}}
`))
	// Crash truncation: complete lines then a torn final line.
	f.Add([]byte(`{"seq":1,"t_ns":1,"type":"journal","data":{"schema_version":2}}
{"seq":2,"t_ns":2,"type":"span_st`))
	// Mid-file corruption and plain garbage.
	f.Add([]byte("{\"seq\":1,\"t_ns\":1,\"type\":\"journal\"}\nnot json\n{\"seq\":2,\"t_ns\":2,\"type\":\"metric\"}\n"))
	f.Add([]byte("\x00\x01\x02 garbage \xff"))
	f.Add([]byte(""))
	// v3 solve record: the Diagnostics nested under "diag".
	f.Add([]byte(`{"seq":1,"t_ns":1,"type":"journal","data":{"schema_version":3}}
{"seq":2,"t_ns":2,"type":"solve_end","id":"solve-1","data":{"cg_iters":30,"diag":{"cg_iters":[12,10,8],"cost":{"cg_loop":{"flops":5120}},"path":"newton-cg","residuals":[0.001,2e-06,1.5e-11]},"m":4,"newton_iters":4,"ok":true}}
`))
	// A header then two malformed lines: corruption, not a torn tail.
	f.Add([]byte("{\"seq\":1,\"t_ns\":1,\"type\":\"journal\"}\nnot json\nalso not json\n"))
	// v3 span, a resource_sample (a retired type: it passes through as
	// unknown) and a candidate evaluation.
	f.Add([]byte(`{"seq":1,"t_ns":1,"type":"journal","data":{"schema_version":3,"pid":7}}
{"seq":2,"t_ns":2,"type":"span","data":{"name":"candidate","path":"dse.explore/candidate","start_us":1.5,"dur_us":0.25,"trace_id":"ea7e81f9fcf6a99b","span_id":"404838aa9c062bd6","parent_id":"55a0d883d529476d"}}
{"seq":3,"t_ns":3,"type":"resource_sample","data":{"heap_live_bytes":1048576,"heap_goal_bytes":4194304,"total_alloc_bytes":9000000,"total_alloc_objects":1200,"goroutines":5,"gc_cycles":3,"gc_pause_total_ns":150000,"gc_cpu_fraction":0.01,"sched_latency_p50_us":2.5,"sched_latency_p99_us":120}}
{"seq":4,"t_ns":4,"type":"candidate_eval","id":"cand-64x16@45","data":{"trace_id":"ea7e81f9fcf6a99b","span_id":"404838aa9c062bd6","parent_id":"55a0d883d529476d","outcome":"ok","eval_us":0,"area_mm2":1.25,"energy_j":3e-9,"latency_s":2e-7,"error_worst":0.04}}
`))
	// v2 three-event solve chain, still readable.
	f.Add([]byte(`{"seq":1,"t_ns":1,"type":"journal","data":{"schema_version":2}}
{"seq":2,"t_ns":2,"type":"solve_start","id":"solve-1","data":{"m":4}}
{"seq":3,"t_ns":3,"type":"newton_iter","id":"solve-1","data":{"cg_iters":9,"iter":0,"max_dv":0.01}}
{"seq":4,"t_ns":4,"type":"solve_end","id":"solve-1","data":{"flops":730483,"ok":true}}
`))
	// One directory with fixed file names, overwritten per exec: a fresh
	// t.TempDir() every iteration throttles the fuzzer to a few execs per
	// second, and execs within a worker are sequential anyway.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(dir, "journal.jsonl")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		events, err := telemetry.ReadJournalFile(path)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// The readers' typed decoders: a payload may fail to decode, but
		// must not panic.
		telemetry.SpanStats(telemetry.SpanEvents(events))
		for _, ev := range events {
			for _, v := range []any{&telemetry.JournalHeader{}, &circuit.SolveEnd{}, &dse.CandidateEval{}} {
				_ = ev.Decode(v)
			}
		}
		// Round trip: accepted events re-marshal to a journal the reader
		// accepts again, byte-for-byte equal at the event level.
		var out []byte
		for _, ev := range events {
			line, err := json.Marshal(ev)
			if err != nil {
				t.Fatalf("accepted event failed to marshal: %v", err)
			}
			out = append(out, line...)
			out = append(out, '\n')
		}
		path2 := filepath.Join(dir, "roundtrip.jsonl")
		if err := os.WriteFile(path2, out, 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := telemetry.ReadJournalFile(path2)
		if err != nil {
			t.Fatalf("re-marshalled journal failed to re-read: %v\n%s", err, out)
		}
		if len(back) != len(events) {
			t.Fatalf("round trip drifted: %d events in, %d out", len(events), len(back))
		}
		for i := range events {
			a, _ := json.Marshal(events[i])
			b, _ := json.Marshal(back[i])
			if string(a) != string(b) {
				t.Fatalf("event %d drifted:\n in: %s\nout: %s", i, a, b)
			}
		}
	})
}
