// Solve-level flight-recorder support: per-solve numerical diagnostics,
// typed failure errors carrying the state needed to understand them, and
// JSON snapshots that make any solve — especially a failing one —
// reproducible bit-for-bit by cmd/mnsim-replay.
package circuit

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"

	"mnsim/internal/device"
	"mnsim/internal/linalg"
	"mnsim/internal/telemetry"
)

// jsonFinite maps non-finite floats — which encoding/json refuses to
// marshal — to the nearest representable sentinel, so even a trajectory
// that exploded to Inf/NaN still journals and snapshots.
func jsonFinite(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return 0
	case math.IsInf(x, 1):
		return math.MaxFloat64
	case math.IsInf(x, -1):
		return -math.MaxFloat64
	}
	return x
}

// jsonFiniteSlice applies jsonFinite element-wise into a fresh slice.
func jsonFiniteSlice(xs []float64) []float64 {
	if xs == nil {
		return nil
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = jsonFinite(x)
	}
	return out
}

// Diagnostics is the numerical trajectory of one solve — the per-solve
// convergence record (iteration counts, residual history, solver path,
// conditioning) that XbarSim-style crossbar solver analyses treat as the
// primary lens on solver quality.
type Diagnostics struct {
	// Path names the solver path taken: "newton-cg" (the full non-linear
	// MNA solve), "linear-cg" (ideal-resistor cells), or
	// "zero-wire-bisection" (the collapsed-node ideal-interconnect limit).
	Path string `json:"path"`
	// SetupCGIters is the CG iteration count of the initial linear solve
	// at calibrated resistances (zero on the bisection path and on
	// warm-started non-linear solves, which skip the setup solve).
	SetupCGIters int `json:"setup_cg_iters,omitempty"`
	// PrecondRefreshes counts mid-Newton preconditioner refactorizations:
	// the factorization is frozen across Newton iterations
	// (modified-Newton) and refreshed only when the inner CG iteration
	// count regresses past its post-factorization baseline.
	PrecondRefreshes int `json:"precond_refreshes,omitempty"`
	// WarmStart marks a solve that resumed from a SolverState operating
	// point instead of running the setup linear solve.
	WarmStart bool `json:"warm_start,omitempty"`
	// Residuals is the max node-voltage update (volts) after each Newton
	// iteration — the convergence trajectory. Empty for linear solves.
	Residuals []float64 `json:"residuals,omitempty"`
	// CGIters is the inner CG iteration count of each Newton step,
	// aligned with Residuals.
	CGIters []int `json:"cg_iters,omitempty"`
	// CondEstimate is the estimated spectral condition number of the final
	// MNA Jacobian (linalg.EstimateCond). Computed on divergence and when
	// SolveOptions.Diagnostics is set; zero otherwise.
	CondEstimate float64 `json:"cond_estimate,omitempty"`
	// Cost is the solve's per-phase operation cost model.
	Cost *CostModel `json:"cost,omitempty"`
	// Convergence carries analytics derived from the recorded trajectory
	// (residual decay rate, stagnation flag); nil for linear solves.
	Convergence *Convergence `json:"convergence,omitempty"`
}

// JSONSafe returns the copy of d that solve_end journals under "diag" and a
// snapshot records as Outcome.Diag: the trajectory and the condition
// estimate pass through jsonFinite, so a diverged solve's Inf/NaN still
// encodes. The copy shares d's Cost, CGIters and Convergence. Nil in, nil
// out.
func (d *Diagnostics) JSONSafe() *Diagnostics {
	if d == nil {
		return nil
	}
	jd := *d
	jd.Residuals, jd.CondEstimate = jsonFiniteSlice(d.Residuals), jsonFinite(d.CondEstimate)
	return &jd
}

// JournaledDiagnostics decodes the Diagnostics a solve_end event carries
// under "diag". It returns nil, nil for an event without one, such as a
// solve_end of a journal before schema version 3.
func JournaledDiagnostics(ev telemetry.Event) (*Diagnostics, error) {
	raw, ok := ev.Data["diag"]
	if !ok {
		return nil, nil
	}
	d := new(Diagnostics)
	b, err := json.Marshal(raw)
	if err == nil {
		err = json.Unmarshal(b, d)
	}
	if err != nil {
		return nil, fmt.Errorf("circuit: solve_end %s diag: %w", ev.ID, err)
	}
	return d, nil
}

// CostModel attributes one solve's operation counts to the phases of the
// Newton–CG pipeline — the "where does a solve spend its cost" breakdown.
// Kernel counts (the CG inner loop, condition estimation) are exact; the
// assembly and device-stamping phases are modeled, with each transcendental
// device evaluation (one exponential giving a sinh/cosh pair; a restamp
// makes one per cell) counted as deviceEvalFlops flops.
// Counting is deterministic and purely observational, so cost fields
// round-trip bit-identically through journals, snapshots, and mnsim-replay.
type CostModel struct {
	// Assembly is the cost of stamping the MNA operator and the source
	// right-hand side (once per solve).
	Assembly linalg.OpCount `json:"assembly"`
	// NewtonUpdate is the per-iteration nonlinear work: device-model
	// re-stamping of the operator's cells, and the ΔV convergence scan. On the
	// zero-wire path it is empty — the bisection loop is the inner solver
	// there and lands in CGLoop.
	NewtonUpdate linalg.OpCount `json:"newton_update"`
	// CGLoop is the inner linear-solver cost: every CG iteration of the
	// setup solve and the Newton steps (or the per-column bisection loop
	// on the zero-wire path). Preconditioner applies inside CG land here.
	CGLoop linalg.OpCount `json:"cg_loop"`
	// Precond is the preconditioner setup cost: the chain-entry gather and
	// the tridiagonal Cholesky factorization of every wire chain, initially
	// and on each modified-Newton refresh. Applies are charged to CGLoop,
	// where they happen.
	Precond linalg.OpCount `json:"precond"`
	// Diagnostics is the cost of optional numerical diagnostics — the
	// Jacobian condition estimate's power/inverse iterations.
	Diagnostics linalg.OpCount `json:"diagnostics"`
}

// Total folds the five phases into one accumulator; nil-safe.
func (c *CostModel) Total() linalg.OpCount {
	var t linalg.OpCount
	if c == nil {
		return t
	}
	t.Add(&c.Assembly)
	t.Add(&c.NewtonUpdate)
	t.Add(&c.CGLoop)
	t.Add(&c.Precond)
	t.Add(&c.Diagnostics)
	return t
}

// Convergence analytics derived from a solve's recorded Newton trajectory.
type Convergence struct {
	// DecayRate is the geometric-mean contraction factor of successive
	// Newton residuals, (R_last/R_first)^(1/(steps−1)): well below 1 for a
	// healthy quadratically-converging solve, near or above 1 when Newton
	// is fighting the linearisation. Zero when the trajectory is too short
	// (or hit exact zero) to estimate.
	DecayRate float64 `json:"decay_rate"`
	// Stagnated is set when the trajectory's tail stopped contracting: the
	// geometric-mean ratio over the last stagnationWindow steps exceeds
	// stagnationRatio. Every diverging solve stagnates; a converging solve
	// that stagnates is burning iterations without progress — the signal
	// to look at conditioning.
	Stagnated bool `json:"stagnated,omitempty"`
	// CGPerNewton is the mean inner-CG iteration count per Newton step —
	// the linear-solver effort behind each nonlinear update.
	CGPerNewton float64 `json:"cg_per_newton,omitempty"`
}

const (
	// stagnationWindow is how many trailing Newton steps the stagnation
	// check examines.
	stagnationWindow = 3
	// stagnationRatio is the trailing contraction factor above which a
	// trajectory counts as stagnated.
	stagnationRatio = 0.9
)

// analyze derives the convergence analytics from the recorded trajectory.
// Purely a read of already-recorded values: it cannot perturb the solve.
func (d *Diagnostics) analyze() {
	if len(d.Residuals) == 0 {
		return
	}
	conv := &Convergence{}
	if len(d.CGIters) > 0 {
		sum := 0
		for _, c := range d.CGIters {
			sum += c
		}
		conv.CGPerNewton = float64(sum) / float64(len(d.CGIters))
	}
	// A trailing exactly-zero residual means the final linear solve
	// reproduced the operating point bit-for-bit (the warm-start early
	// exit): convergence is exact there, so the contraction analysis runs
	// on the nonzero prefix where a decay rate is defined.
	trimmed := d.Residuals
	for len(trimmed) > 0 && trimmed[len(trimmed)-1] == 0 {
		trimmed = trimmed[:len(trimmed)-1]
	}
	if steps := len(trimmed); steps >= 2 {
		first, last := trimmed[0], trimmed[steps-1]
		if first > 0 && last > 0 {
			conv.DecayRate = jsonFinite(math.Pow(last/first, 1/float64(steps-1)))
		}
		w := stagnationWindow
		if w > steps-1 {
			w = steps - 1
		}
		from, to := trimmed[steps-1-w], trimmed[steps-1]
		if from > 0 && to > 0 && math.Pow(to/from, 1/float64(w)) > stagnationRatio {
			conv.Stagnated = true
		}
	}
	d.Convergence = conv
}

// DivergenceError is the typed form of a Newton divergence: errors.Is
// matches ErrNewtonDiverged, and the payload carries the iteration budget
// spent, the final residual, and the full diagnostics trajectory.
type DivergenceError struct {
	// Iters is the number of Newton iterations performed before giving up.
	Iters int
	// FinalResidual is the max node-voltage update (volts) of the last
	// iteration — how far from converged the solve still was.
	FinalResidual float64
	// Diag is the solve's full numerical trajectory.
	Diag *Diagnostics
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("circuit: Newton iteration did not converge after %d iterations (final max ΔV %.3g V)",
		e.Iters, e.FinalResidual)
}

// Unwrap makes errors.Is(err, ErrNewtonDiverged) hold.
func (e *DivergenceError) Unwrap() error { return ErrNewtonDiverged }

// ErrNotSettled is the sentinel a transient settling failure matches with
// errors.Is; the returned error is a *NotSettledError carrying the budget
// spent and the remaining output deviation.
var ErrNotSettled = errors.New("circuit: outputs did not settle")

// NotSettledError is the typed form of a transient settling failure,
// distinguishing an exhausted step budget (a tuning problem) from invalid
// input (an error the caller must fix).
type NotSettledError struct {
	// Steps is the number of backward-Euler steps integrated.
	Steps int
	// LastMaxDV is the worst remaining output deviation from the DC
	// target (volts) when the budget ran out.
	LastMaxDV float64
}

func (e *NotSettledError) Error() string {
	return fmt.Sprintf("circuit: outputs did not settle within %d steps (remaining max ΔV %.3g V)",
		e.Steps, e.LastMaxDV)
}

// Unwrap makes errors.Is(err, ErrNotSettled) hold.
func (e *NotSettledError) Unwrap() error { return ErrNotSettled }

// solveSeq numbers solves process-wide for journal correlation ids.
var solveSeq atomic.Int64

func nextSolveID(prefix string) string {
	return fmt.Sprintf("%s-%d", prefix, solveSeq.Add(1))
}

// SnapshotSchemaVersion identifies the snapshot layout; bump it on any
// incompatible change so mnsim-replay can refuse documents it does not
// understand.
//
// Version history:
//
//	1 — the outcome records a divergence's "residuals" and
//	    "final_residual" and the solve's "cost" model.
//	2 — the outcome records the solve's whole Diagnostics under "diag",
//	    the copy solve_end journals, in place of those three keys.
//	    Version-1 snapshots still load; their three keys are ignored, so
//	    a replay checks their outputs, iteration counts and error only.
const SnapshotSchemaVersion = 2

// Snapshot is the self-contained, bit-exact record of one solve: the full
// crossbar state, the drive vector, the resolved solver options, and the
// recorded outcome. encoding/json round-trips float64 exactly, so a
// replayed snapshot must reproduce the recorded outcome bit-identically on
// the same platform. Snapshots are written automatically next to the
// journal when a solve diverges or a transient fails to settle, and on
// demand via NewSnapshot.
type Snapshot struct {
	SchemaVersion int `json:"schema_version"`
	// Kind is "dc" for an operating-point solve, "transient" for a
	// settling run.
	Kind string `json:"kind"`
	// Tool and Seed are run provenance stamped from the journal metadata.
	Tool string `json:"tool,omitempty"`
	Seed *int64 `json:"seed,omitempty"`

	M      int          `json:"m"`
	N      int          `json:"n"`
	R      [][]float64  `json:"r"`
	WireR  float64      `json:"wire_r"`
	RSense float64      `json:"rsense"`
	Linear bool         `json:"linear"`
	Device device.Model `json:"device"`

	Vin     []float64    `json:"vin"`
	Options SolveOptions `json:"options"`
	// WarmV is the warm-start operating point the solve resumed from, when
	// it ran against a SolverState holding one. A replay seeds a state from
	// it so the warm-started trajectory reproduces bit-identically.
	WarmV []float64 `json:"warm_v,omitempty"`
	// Transient carries the resolved transient options for Kind
	// "transient" snapshots.
	Transient *TransientOptions `json:"transient,omitempty"`

	Outcome Outcome `json:"outcome"`
}

// Outcome is the recorded result of the snapshot's solve — what a replay
// must reproduce bit-identically.
type Outcome struct {
	OK bool `json:"ok"`
	// Err is the recorded error string for failed solves.
	Err string `json:"err,omitempty"`

	// DC solve results.
	VOut        []float64 `json:"vout,omitempty"`
	Power       float64   `json:"power,omitempty"`
	NewtonIters int       `json:"newton_iters,omitempty"`
	CGIters     int       `json:"cg_iters,omitempty"`
	// Diag is the solve's Diagnostics (Diagnostics.JSONSafe), recorded for
	// a success and a divergence alike; a replay must reproduce it bit for
	// bit. Nil in a version-1 snapshot.
	Diag *Diagnostics `json:"diag,omitempty"`

	// Transient results.
	SettleSeconds float64 `json:"settle_seconds,omitempty"`
	Steps         int     `json:"steps,omitempty"`
	LastMaxDV     float64 `json:"last_max_dv,omitempty"`
}

// Crossbar rebuilds the solvable crossbar a snapshot describes.
func (s *Snapshot) Crossbar() *Crossbar {
	return &Crossbar{
		M: s.M, N: s.N, R: s.R,
		WireR: s.WireR, RSense: s.RSense,
		Dev: s.Device, Linear: s.Linear,
	}
}

// Validate checks the fields every schema-conformant snapshot must carry.
func (s *Snapshot) Validate() error {
	switch {
	case s.SchemaVersion < 1 || s.SchemaVersion > SnapshotSchemaVersion:
		return fmt.Errorf("circuit: snapshot schema_version %d, want 1 to %d", s.SchemaVersion, SnapshotSchemaVersion)
	case s.Kind != "dc" && s.Kind != "transient":
		return fmt.Errorf("circuit: snapshot kind %q, want dc or transient", s.Kind)
	case s.Kind == "transient" && s.Transient == nil:
		return fmt.Errorf("circuit: transient snapshot missing transient options")
	case len(s.Vin) != s.M:
		return fmt.Errorf("circuit: snapshot vin length %d, want %d", len(s.Vin), s.M)
	case s.WarmV != nil && len(s.WarmV) != 2*s.M*s.N:
		return fmt.Errorf("circuit: snapshot warm_v length %d, want %d", len(s.WarmV), 2*s.M*s.N)
	}
	return s.Crossbar().Validate()
}

// baseSnapshot captures the crossbar state plus journal provenance.
func (c *Crossbar) baseSnapshot(kind string, vin []float64, opt SolveOptions) *Snapshot {
	tool, seed := telemetry.DefaultJournal().Meta()
	return &Snapshot{
		SchemaVersion: SnapshotSchemaVersion,
		Kind:          kind,
		Tool:          tool,
		Seed:          seed,
		M:             c.M, N: c.N, R: c.R,
		WireR: c.WireR, RSense: c.RSense,
		Linear: c.Linear, Device: c.Dev,
		Vin:     append([]float64(nil), vin...),
		Options: opt,
	}
}

// NewSnapshot records a completed DC solve — successful or failed — as a
// replayable snapshot. opt should be the options the solve actually ran
// with; res may be nil when err is non-nil.
func (c *Crossbar) NewSnapshot(vin []float64, opt SolveOptions, res *Result, err error) *Snapshot {
	s := c.baseSnapshot("dc", vin, opt)
	if err != nil {
		s.Outcome.Err = err.Error()
		var de *DivergenceError
		if errors.As(err, &de) {
			s.Outcome.NewtonIters = de.Iters
			s.Outcome.Diag = de.Diag.JSONSafe()
		}
		return s
	}
	s.Outcome.OK = true
	s.Outcome.VOut = append([]float64(nil), res.VOut...)
	s.Outcome.Power = res.Power
	s.Outcome.NewtonIters = res.NewtonIters
	s.Outcome.CGIters = res.CGIters
	s.Outcome.Diag = res.Diag.JSONSafe()
	return s
}

// newTransientSnapshot records a completed settling run.
func (c *Crossbar) newTransientSnapshot(vin []float64, opt TransientOptions, settle float64, steps int, lastMaxDV float64, err error) *Snapshot {
	s := c.baseSnapshot("transient", vin, SolveOptions{})
	topt := opt
	s.Transient = &topt
	s.Outcome.Steps = steps
	s.Outcome.LastMaxDV = jsonFinite(lastMaxDV)
	if err != nil {
		s.Outcome.Err = err.Error()
		return s
	}
	s.Outcome.OK = true
	s.Outcome.SettleSeconds = settle
	return s
}

// saveSnapshot hands a snapshot to the journal's snapshot sink; it returns
// the written path ("" when the journal has no backing file) and never
// fails the solve — a snapshot problem is logged, not propagated.
func saveSnapshot(kind string, s *Snapshot) string {
	path, err := telemetry.DefaultJournal().SaveSnapshot(kind, s)
	if err != nil {
		telemetry.Log().Warn("solver snapshot write failed", "kind", kind, "err", err)
		return ""
	}
	return path
}

// WriteSnapshot writes a snapshot as an indented JSON document.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// LoadSnapshot reads and schema-validates a snapshot file.
func LoadSnapshot(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := decodeSnapshot(b)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// decodeSnapshot parses and schema-validates one snapshot document. Keys
// the schema does not know — such as the retired "precond" and
// "no_cost_accounting" options, the cost model's "factorizations" count
// and a version-1 outcome's "residuals", "final_residual" and "cost" —
// are ignored.
func decodeSnapshot(b []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("circuit: snapshot: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
