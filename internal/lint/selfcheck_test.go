package lint

import "testing"

// TestSelfCheck holds the linter to its own rules: running the full
// analyzer set (strict, tests included) over internal/lint and
// cmd/mnsim-lint must produce zero diagnostics. A linter that needs its
// own suppressions has lost the argument.
func TestSelfCheck(t *testing.T) {
	res, err := Run(Options{
		Patterns: []string{".", "../../cmd/mnsim-lint"},
		Tests:    true,
		Strict:   true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("self-check finding: %s", d)
	}
}

// TestTelemetryStaysClean pins the telemetry package — the one sanctioned
// home for wall-clock reads (spans, journal timestamps, sweep phases) — to
// the rest of the lint rules. Being exempt from noclock by scope is not a
// blanket exemption: the package must still pass norawrand, ctxloop,
// nofloateq, noprint, and errdrop in strict mode.
func TestTelemetryStaysClean(t *testing.T) {
	res, err := Run(Options{
		Patterns: []string{"../telemetry"},
		Tests:    true,
		Strict:   true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("telemetry finding: %s", d)
	}
}
