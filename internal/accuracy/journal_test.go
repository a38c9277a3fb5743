package accuracy

import (
	"path/filepath"
	"testing"

	"mnsim/internal/telemetry"
)

// A journaled Monte-Carlo run emits one mc_trial event per trial under a
// single run id, and the parallel seeded mode stays bit-identical to the
// unjournaled run (the recorder only observes).
func TestMonteCarloJournalsTrials(t *testing.T) {
	p := refParams(8, 45)
	opt := MCOptions{Trials: 32, Sigma: 0.1, Seed: 7, Workers: 4}
	base, err := MonteCarlo(p, opt)
	if err != nil {
		t.Fatal(err)
	}

	j := telemetry.DefaultJournal()
	jp := filepath.Join(t.TempDir(), "mc.jsonl")
	if err := j.Open(jp); err != nil {
		t.Fatal(err)
	}
	defer j.Reset()
	res, err := MonteCarlo(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if res != base {
		t.Fatalf("journal changed the result: %+v vs %+v", res, base)
	}

	events, err := telemetry.ReadJournalFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	trials := 0
	ids := map[string]bool{}
	for _, e := range events {
		if e.Type != telemetry.EvMCTrial {
			continue
		}
		trials++
		ids[e.ID] = true
		var tr MCTrial
		if err := e.Decode(&tr); err != nil {
			t.Fatal(err)
		}
		if tr.AbsErr == nil && !tr.Degenerate {
			t.Fatalf("mc_trial without abs_err not flagged degenerate: %s", e.Data)
		}
	}
	if trials != opt.Trials {
		t.Fatalf("journal has %d mc_trial events, want %d", trials, opt.Trials)
	}
	if len(ids) != 1 {
		t.Fatalf("trials span %d run ids, want 1: %v", len(ids), ids)
	}
}
