package telemetry_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"mnsim/internal/circuit"
	"mnsim/internal/telemetry"
)

// BenchmarkJournalEmit times one Emit of a solve_end payload, as a
// journaled solve writes it, into an already full ring, ring-only and
// file-backed. A push is O(1), so ns/op should not grow with capacity.
func BenchmarkJournalEmit(b *testing.B) {
	newton, cg := 4, 30
	data := &circuit.SolveEnd{M: 64, N: 64, WireR: 2.5, RSense: 1500, Tol: 1e-9, MaxNewton: 50, CGTol: 1e-10,
		OK: true, DurUS: 812.5, NewtonIters: &newton, CGIters: &cg,
		Diag:    &circuit.Diagnostics{Path: "newton-cg", Residuals: []float64{1e-3, 2e-6, 1.5e-11}, CGIters: []int{12, 10, 8}},
		SpanIDs: telemetry.SpanIDs{Trace: 0xea7e81f9fcf6a99b, Span: 0x404838aa9c062bd6, Parent: 0x55a0d883d529476d}}
	for _, ringCap := range []int{64, telemetry.DefaultJournalRing} {
		for _, file := range []bool{false, true} {
			name := fmt.Sprintf("cap%d/ring-only", ringCap)
			if file {
				name = fmt.Sprintf("cap%d/file", ringCap)
			}
			b.Run(name, func(b *testing.B) {
				j := telemetry.NewJournal(ringCap)
				if file {
					if err := j.Open(filepath.Join(b.TempDir(), "journal.jsonl")); err != nil {
						b.Fatal(err)
					}
				} else {
					j.EnableRing()
				}
				defer j.Close()
				for i := 0; i < ringCap; i++ {
					j.Emit(telemetry.EvSolveEnd, "solve-1", data)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j.Emit(telemetry.EvSolveEnd, "solve-1", data)
				}
			})
		}
	}
}
