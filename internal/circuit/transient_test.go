package circuit

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mnsim/internal/crossbar"
	"mnsim/internal/device"
	"mnsim/internal/linalg"
	"mnsim/internal/tech"
	"mnsim/internal/telemetry"
)

func TestSettleTimeBasic(t *testing.T) {
	c := &Crossbar{M: 8, N: 8, R: uniformR(8, 8, 100e3), WireR: 0.5, RSense: 1500, Linear: true}
	vin := make([]float64, 8)
	for i := range vin {
		vin[i] = 0.3
	}
	ts, err := c.SettleTime(vin, TransientOptions{NodeCap: 0.1e-15})
	if err != nil {
		t.Fatal(err)
	}
	if ts <= 0 {
		t.Fatalf("settle time %v", ts)
	}
	// Larger node capacitance settles more slowly.
	slow, err := c.SettleTime(vin, TransientOptions{NodeCap: 0.4e-15})
	if err != nil {
		t.Fatal(err)
	}
	if slow <= ts {
		t.Fatalf("4x capacitance settle %v not above %v", slow, ts)
	}
}

func TestSettleTimeGrowsWithSize(t *testing.T) {
	times := map[int]float64{}
	for _, sz := range []int{8, 16} {
		c := &Crossbar{M: sz, N: sz, R: uniformR(sz, sz, 100e3), WireR: 2.0, RSense: 1500, Linear: true}
		vin := make([]float64, sz)
		for i := range vin {
			vin[i] = 0.3
		}
		ts, err := c.SettleTime(vin, TransientOptions{NodeCap: 0.1e-15})
		if err != nil {
			t.Fatal(err)
		}
		times[sz] = ts
	}
	if times[16] < times[8] {
		t.Fatalf("16x16 settles faster (%v) than 8x8 (%v)", times[16], times[8])
	}
}

func TestSettleTimeErrors(t *testing.T) {
	c := &Crossbar{M: 2, N: 2, R: uniformR(2, 2, 1e3), WireR: 1, RSense: 100, Linear: true}
	if _, err := c.SettleTime([]float64{0.3}, TransientOptions{NodeCap: 1e-15}); err == nil {
		t.Error("short input accepted")
	}
	if _, err := c.SettleTime([]float64{0.3, 0.3}, TransientOptions{}); err == nil {
		t.Error("zero capacitance accepted")
	}
	zeroWire := &Crossbar{M: 2, N: 2, R: uniformR(2, 2, 1e3), WireR: 0, RSense: 100, Linear: true}
	if _, err := zeroWire.SettleTime([]float64{0.3, 0.3}, TransientOptions{NodeCap: 1e-15}); err == nil {
		t.Error("zero wire accepted")
	}
	bad := &Crossbar{M: 0}
	if _, err := bad.SettleTime(nil, TransientOptions{NodeCap: 1e-15}); err == nil {
		t.Error("invalid crossbar accepted")
	}
	// Too few steps to settle: a typed ErrNotSettled carrying the budget
	// spent and the remaining deviation, not an opaque formatted string.
	_, err := c.SettleTime([]float64{0.3, 0.3}, TransientOptions{NodeCap: 1e-15, MaxSteps: 1, Dt: 1e-15})
	if err == nil {
		t.Fatal("unsettleable budget accepted")
	}
	if !errors.Is(err, ErrNotSettled) {
		t.Fatalf("errors.Is(err, ErrNotSettled) false for %v", err)
	}
	var ns *NotSettledError
	if !errors.As(err, &ns) {
		t.Fatalf("errors.As *NotSettledError false for %T", err)
	}
	if ns.Steps != 1 {
		t.Errorf("NotSettledError.Steps = %d, want 1", ns.Steps)
	}
	if ns.LastMaxDV <= 0 {
		t.Errorf("NotSettledError.LastMaxDV = %v, want > 0", ns.LastMaxDV)
	}
	// Input-validation failures are NOT settle failures.
	if _, err := c.SettleTime([]float64{0.3}, TransientOptions{NodeCap: 1e-15}); errors.Is(err, ErrNotSettled) {
		t.Error("validation error matches ErrNotSettled")
	}
}

// transientPin is one fixed settling run whose result is pinned bit for bit.
type transientPin struct {
	name string
	c    *Crossbar
	vin  []float64
	opt  TransientOptions
	bits uint64
}

// transientPins builds three fixed crossbars: a uniform linear array, a
// random-level square one and a random-level rectangular one with a
// tighter settle criterion.
func transientPins() []transientPin {
	dev := device.RRAM()
	drive := func(n int, base, step float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = base + step*float64(i%5)
		}
		return v
	}
	return []transientPin{
		{"uniform8", &Crossbar{M: 8, N: 8, R: uniformR(8, 8, 100e3), WireR: 0.5, RSense: 1500, Linear: true},
			drive(8, 0.3, 0), TransientOptions{NodeCap: 0.1e-15}, 0x3d9ddf1cb6fe9a3e},
		{"random16", &Crossbar{M: 16, N: 16, R: randomR(16, 16, dev, rand.New(rand.NewSource(7))), WireR: 2, RSense: 1500, Dev: dev},
			drive(16, 0.05, 0.02), TransientOptions{NodeCap: 0.1e-15, CellCap: 0.05e-15}, 0x3db6b8661f8a04b2},
		{"rect12x24", &Crossbar{M: 12, N: 24, R: randomR(12, 24, dev, rand.New(rand.NewSource(11))), WireR: 1, RSense: 800, Dev: dev},
			drive(12, 0.2, 0.05), TransientOptions{NodeCap: 0.2e-15, CellCap: 0.1e-15, SettleFrac: 1.0 / 1024}, 0x3db5b90b7950c24e},
	}
}

// The settle times of the fixed crossbars are pinned to the bits the
// allocating implementation (fresh CG vectors per step, a rebuilt stepping
// matrix) produced, so buffer reuse and the in-place diagonal stay
// numerically invisible.
func TestSettleTimePinned(t *testing.T) {
	for _, p := range transientPins() {
		ts, err := p.c.SettleTime(p.vin, p.opt)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got := math.Float64bits(ts); got != p.bits {
			t.Errorf("%s: settle %v (%#016x), pinned %v (%#016x)",
				p.name, ts, got, math.Float64frombits(p.bits), p.bits)
		}
	}
}

// referenceSettleSteps integrates the same backward-Euler system as
// SettleTime — the linearised crossbar operator plus C/dt on the diagonal,
// a discharged start and the same settle criterion — but solves the DC
// target and every step to CG tolerance 1e-13, and returns the step count
// at which every output has settled.
func referenceSettleSteps(t *testing.T, c *Crossbar, vin []float64, opt TransientOptions) int {
	t.Helper()
	lin := *c
	lin.Linear = true
	a := lin.assemble(vin, nil)
	pre, err := linalg.NewBlockJacobi(a.op, nil)
	if err != nil {
		t.Fatal(err)
	}
	tight := linalg.CGOptions{Tol: 1e-13, Precond: pre}
	src := lin.sources(a, make([]float64, 2*c.M*c.N), nil)
	final, _, err := linalg.SolveCG(a.op, src, nil, tight)
	if err != nil {
		t.Fatal(err)
	}
	half, n2 := c.M*c.N, 2*c.M*c.N
	capDt := make([]float64, n2)
	for i := range capDt {
		capDt[i] = opt.NodeCap / opt.Dt
		if i >= half {
			capDt[i] = (opt.NodeCap + opt.CellCap) / opt.Dt
		}
	}
	a.op.SetDiagShift(capDt[0], capDt[half])
	if err := pre.Refresh(a.op, nil); err != nil {
		t.Fatal(err)
	}
	v, rhs := make([]float64, n2), make([]float64, n2)
	for step := 1; step <= 100000; step++ {
		for i := range rhs {
			rhs[i] = src[i] + capDt[i]*v[i]
		}
		if v, _, err = linalg.SolveCG(a.op, rhs, v, tight); err != nil {
			t.Fatal(err)
		}
		settled := true
		for n := 0; n < c.N; n++ {
			f := final[c.colNode(c.M-1, n)]
			if math.Abs(v[c.colNode(c.M-1, n)]-f) > opt.SettleFrac*math.Max(math.Abs(f), 1e-12) {
				settled = false
			}
		}
		if settled {
			return step
		}
	}
	t.Fatal("reference transient did not settle")
	return 0
}

// The Table II latency transient — 64×64 random-level RRAM crossbars on
// 45 nm wire with its segment and cell capacitances, driven at a uniform
// VDrive — settles in the same number of backward-Euler steps as a
// reference that solves every step to CG tolerance 1e-13. The count sits
// near 230 steps, and a solver change that moves it by one step moves the
// Table II latency row; such a change must keep this test, not only the
// benchmark digests, green.
func TestSettleStepsMatchTightReference(t *testing.T) {
	dev := device.RRAM()
	wire := tech.MustInterconnect(45)
	p := crossbar.New(64, 64, dev, wire)
	vin := make([]float64, 64)
	for i := range vin {
		vin[i] = p.VDrive
	}
	opt := TransientOptions{NodeCap: wire.SegmentC, CellCap: dev.CellCap, SettleFrac: 1.0 / 512}
	opt.Dt = p.RSense * 64 * (opt.NodeCap + opt.CellCap) / 50 // SettleTime's default step
	for _, seed := range []int64{1, 2, 3, 4} {
		c := &Crossbar{M: 64, N: 64, R: randomR(64, 64, dev, rand.New(rand.NewSource(seed))), WireR: wire.SegmentR, RSense: p.RSense, Dev: dev}
		ts, err := c.SettleTime(vin, TransientOptions{NodeCap: opt.NodeCap, CellCap: opt.CellCap})
		if err != nil {
			t.Fatal(err)
		}
		steps := int(math.Round(ts / opt.Dt))
		if ref := referenceSettleSteps(t, c, vin, opt); steps != ref {
			t.Errorf("seed %d: SettleTime took %d steps, the 1e-13 reference %d", seed, steps, ref)
		}
		t.Logf("seed %d: %d steps", seed, steps)
	}
}

// The stepping loop allocates nothing: four times the capacitance takes
// about four times the steps but no more allocations.
func TestSettleTimeAllocsIndependentOfSteps(t *testing.T) {
	c := &Crossbar{M: 8, N: 8, R: uniformR(8, 8, 100e3), WireR: 0.5, RSense: 1500, Linear: true}
	vin := make([]float64, 8)
	for i := range vin {
		vin[i] = 0.3
	}
	allocs := func(nodeCap float64) float64 {
		// A fixed step keeps the step count proportional to the RC product.
		opt := TransientOptions{NodeCap: nodeCap, Dt: 2e-14}
		return testing.AllocsPerRun(5, func() {
			if _, err := c.SettleTime(vin, opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	fastT, err := c.SettleTime(vin, TransientOptions{NodeCap: 0.1e-15, Dt: 2e-14})
	if err != nil {
		t.Fatal(err)
	}
	slowT, err := c.SettleTime(vin, TransientOptions{NodeCap: 0.4e-15, Dt: 2e-14})
	if err != nil {
		t.Fatal(err)
	}
	if slowT < 3*fastT {
		t.Fatalf("4x capacitance took %v vs %v: not enough extra steps to tell", slowT, fastT)
	}
	if fast, slow := allocs(0.1e-15), allocs(0.4e-15); slow > fast {
		t.Errorf("allocations grow with the step count: %v at NodeCap 0.1 fF, %v at 0.4 fF", fast, slow)
	}
}

// countdownCtx is a context whose Err reports cancellation from its
// (n+1)-th call on, so a test can cancel at an exact point of a loop.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// A cancelled context stops the transient: before any work when it is
// already cancelled, and between backward-Euler steps when it is
// cancelled mid-run.
func TestSettleTimeContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &Crossbar{M: 4, N: 4, R: uniformR(4, 4, 1e3), WireR: 1, RSense: 100, Linear: true}
	vin := []float64{0.3, 0.3, 0.3, 0.3}
	opt := TransientOptions{NodeCap: 1e-15}
	if _, err := c.SettleTimeContext(ctx, vin, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
	// The entry check and the checks of steps 1 and 2 pass; step 3's fails.
	mid := &countdownCtx{Context: context.Background(), n: 3}
	_, err := c.SettleTimeContext(mid, vin, opt)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "step 3") {
		t.Fatalf("want context.Canceled at step 3, got %v", err)
	}
	if _, err := c.SettleTimeContext(context.Background(), vin, opt); err != nil {
		t.Fatalf("background context: %v", err)
	}
}

// The transient_settle event reports the steps' total CG iterations, on
// the settled and the not-settled path: every step starts from the
// previous step's state, which is off the new solution, so it iterates at
// least once, and the chain preconditioner keeps it to a few.
func TestSettleTimeJournalsCGIters(t *testing.T) {
	path := withTestJournal(t)
	pin := transientPins()[1]
	if _, err := pin.c.SettleTime(pin.vin, pin.opt); err != nil {
		t.Fatal(err)
	}
	c := &Crossbar{M: 2, N: 2, R: uniformR(2, 2, 1e3), WireR: 1, RSense: 100, Linear: true}
	if _, err := c.SettleTime([]float64{0.3, 0.3}, TransientOptions{NodeCap: 1e-15, MaxSteps: 1, Dt: 1e-15}); !errors.Is(err, ErrNotSettled) {
		t.Fatalf("want ErrNotSettled, got %v", err)
	}
	telemetry.DefaultJournal().Close()
	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var settles []telemetry.Event
	for _, ev := range events {
		if ev.Type == telemetry.EvTransientSettle {
			settles = append(settles, ev)
		}
	}
	if len(settles) != 2 {
		t.Fatalf("journal holds %d transient_settle events, want 2", len(settles))
	}
	for _, ev := range settles {
		var ts TransientSettle
		if err := ev.Decode(&ts); err != nil || ts.Steps == 0 {
			t.Fatalf("event data %s lacks numeric steps/cg_iters (%v)", ev.Data, err)
		}
		if ts.CGIters < ts.Steps || ts.CGIters > 10*ts.Steps {
			t.Errorf("ok=%v: %v CG iterations over %v steps", ts.OK, ts.CGIters, ts.Steps)
		}
	}
}

// A settling run reads the journal switch once, before it integrates: a
// run that starts with the journal off journals no transient_settle, even
// when the journal opens before the run finishes.
func TestSettleUnjournaledAtStartJournalsNothing(t *testing.T) {
	if telemetry.JournalOn() {
		t.Fatal("journal already on")
	}
	o := startSettle(context.Background())
	path := withTestJournal(t)
	c := &Crossbar{M: 2, N: 2, R: uniformR(2, 2, 1e3), WireR: 1, RSense: 100, Linear: true}
	out := settleOutcome{steps: 1, cgIters: 2, lastMaxDV: 0.1, opt: TransientOptions{NodeCap: 1e-15, MaxSteps: 1, Dt: 1e-15}}
	if _, err := o.finish(c, []float64{0.3, 0.3}, out, &NotSettledError{Steps: 1, LastMaxDV: 0.1}); !errors.Is(err, ErrNotSettled) {
		t.Fatalf("want ErrNotSettled passed through, got %v", err)
	}
	telemetry.DefaultJournal().Close()
	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Type == telemetry.EvTransientSettle {
			t.Fatalf("a run that started unjournaled journaled %v (id %q)", ev.Type, ev.ID)
		}
	}
}
