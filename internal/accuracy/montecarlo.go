package accuracy

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mnsim/internal/crossbar"
	"mnsim/internal/pool"
	"mnsim/internal/telemetry"
)

// Monte-Carlo telemetry: cumulative trial count and the sampling rate of
// the most recent run.
var (
	telMCTrials     = telemetry.GetCounter("mnsim_accuracy_mc_trials_total")
	telMCSamplesSec = telemetry.GetGauge("mnsim_accuracy_mc_samples_per_second")
)

// DefaultSeed is the base of the per-trial streams when MCOptions.Seed is
// zero; see the seeding contract on MCOptions.Seed.
const DefaultSeed = 1

// MCOptions tunes a Monte-Carlo accuracy run.
type MCOptions struct {
	// Trials is the number of random (weights, inputs, variation) samples.
	Trials int
	// Sigma is the per-cell resistance variation; each trial draws every
	// cell's deviation uniformly from [-sigma, +sigma] (Eq. 16's random
	// factor, sampled instead of worst-cased).
	Sigma float64
	// Seed is the base of the per-trial stream family: trial t draws from
	// a generator seeded with a splitmix64 mix of (Seed, t), so the
	// sampled distribution is a pure function of (options, trial index)
	// and parallel runs are bit-identical to sequential ones. Zero selects
	// DefaultSeed.
	Seed int64
	// Workers bounds the goroutines sharding the trials; <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
}

// MCResult summarises the sampled distribution of the column output error
// rate.
type MCResult struct {
	Mean, Std float64
	// P50, P95, P99 are linearly-interpolated percentiles of the |error|
	// distribution.
	P50, P95, P99 float64
	// Max is the largest sampled |error|.
	Max    float64
	Trials int
}

// mcShardSize is the number of consecutive trials one pool task runs. The
// grouping only amortises per-task scratch allocations — results never
// depend on it, because every trial re-seeds its own stream.
const mcShardSize = 64

// MCTrial is the data of an mc_trial event: one trial's |error| under the
// IDs of the enclosing accuracy.montecarlo span, whose ID the event also
// takes. NaN cannot be JSON-encoded, so a degenerate trial is flagged
// instead of carrying its sample value.
type MCTrial struct {
	Trial      int      `json:"trial"`
	AbsErr     *float64 `json:"abs_err,omitempty"`
	Degenerate bool     `json:"degenerate,omitempty"`
	telemetry.SpanIDs
}

// emitTrialEvent journals one mc_trial outcome under the enclosing run
// span in ctx.
func emitTrialEvent(ctx context.Context, t int, absErr float64, ok bool) {
	ev := &MCTrial{Trial: t, Degenerate: !ok}
	if ok {
		ev.AbsErr = &absErr
	}
	telemetry.EmitEventCtx(ctx, telemetry.EvMCTrial, ev)
}

// trialSeed derives trial t's generator seed from the base seed with the
// splitmix64 finalizer, decorrelating neighbouring trials.
func trialSeed(base int64, t int) int64 {
	z := uint64(base) + (uint64(t)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// mcScratch is the per-worker reusable state of the trial loop.
type mcScratch struct {
	rIdeal, vin []float64
}

func newMCScratch(rows int) *mcScratch {
	return &mcScratch{rIdeal: make([]float64, rows), vin: make([]float64, rows)}
}

// trial runs one Monte-Carlo sample: draw random inputs and a random level
// population for one representative column, compute the loaded analog
// output with deviated cell resistances (variation plus the non-linear
// operating-point shift plus the lumped wire term), and compare it against
// the ideal fixed-point result. Returns the |relative error| and ok=false
// for the degenerate all-zero-input case.
func (s *mcScratch) trial(p crossbar.Params, sigma, gs, wire float64, rng *rand.Rand) (float64, bool, error) {
	for i := range s.vin {
		s.vin[i] = p.VDrive * rng.Float64()
	}
	numIdl, denIdl := 0.0, gs
	numAct, denAct := 0.0, gs
	for m := 0; m < p.Rows; m++ {
		lvl := rng.Intn(p.Dev.Levels())
		r, err := p.Dev.LevelResistance(lvl)
		if err != nil {
			return 0, false, err
		}
		s.rIdeal[m] = r
		g := 1 / r
		numIdl += g * s.vin[m]
		denIdl += g
	}
	vIdl := numIdl / denIdl
	// Actual: operating-point shift, variation, and the average lumped
	// wire term shared across the column's cells.
	for m := 0; m < p.Rows; m++ {
		vCell := s.vin[m] - vIdl
		if vCell < 0 {
			vCell = 0
		}
		rAct := p.Dev.EffectiveR(vCell, s.rIdeal[m])
		rAct *= 1 + sigma*(2*rng.Float64()-1)
		rAct += wire / 2 // average cell position sees half the worst-corner wire term
		g := 1 / rAct
		numAct += g * s.vin[m]
		denAct += g
	}
	vAct := numAct / denAct
	if vIdl == 0 {
		return 0, false, nil
	}
	return math.Abs((vIdl - vAct) / vIdl), true, nil
}

// MonteCarlo samples the crossbar output error statistically. Where Eval
// gives closed-form average/worst cases, MonteCarlo gives the distribution
// between them — the statistical extension follow-on platforms (MNSIM 2.0)
// added. It is MonteCarloContext with a background context.
func MonteCarlo(p crossbar.Params, opt MCOptions) (MCResult, error) {
	return MonteCarloContext(context.Background(), p, opt)
}

// MonteCarloContext is MonteCarlo with a caller-supplied context.
//
// Trials shard across a bounded worker pool (MCOptions.Workers). Each
// trial draws from its own deterministic stream (see MCOptions.Seed), and
// per-trial results land in an index-addressed slice, so the returned
// MCResult is bit-identical for every worker count.
// Cancelling ctx aborts the run with a wrapped ctx.Err().
func MonteCarloContext(ctx context.Context, p crossbar.Params, opt MCOptions) (MCResult, error) {
	if err := p.Validate(); err != nil {
		return MCResult{}, err
	}
	if opt.Trials < 1 {
		return MCResult{}, fmt.Errorf("accuracy: Monte-Carlo needs at least 1 trial")
	}
	if opt.Sigma < 0 || opt.Sigma > 0.5 {
		return MCResult{}, fmt.Errorf("accuracy: sigma %g outside [0,0.5]", opt.Sigma)
	}
	// The run span rides ctx into the pooled trial workers (pool.Run derives
	// task contexts from its caller's, preserving context values), so
	// mc_trial events and any nested spans chain under it.
	ctx, sp := telemetry.StartSpan(ctx, "accuracy.montecarlo")
	defer func() {
		if d := sp.End(); d > 0 {
			telMCSamplesSec.Set(float64(opt.Trials) / d.Seconds())
		}
		telMCTrials.Add(int64(opt.Trials))
	}()
	// Trial phase: journaled at its start and finish with the trial count.
	prog := telemetry.StartPhase("mc.trials", int64(opt.Trials))
	defer prog.Finish()
	// The journal switch is read once: a run that starts unjournaled
	// journals no trial.
	journaled := telemetry.JournalOn()
	seed := opt.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	gs := 1 / p.RSense
	wire := WireTerm(p.Rows, p.Cols, p.Wire.SegmentR)
	// samples[t] is trial t's |error|, NaN for a degenerate trial; the
	// index addressing keeps the result independent of completion order.
	samples := make([]float64, opt.Trials)
	shards := (opt.Trials + mcShardSize - 1) / mcShardSize
	err := pool.Run(ctx, shards, opt.Workers, func(tctx context.Context, shard int) error {
		s := newMCScratch(p.Rows)
		rng := rand.New(rand.NewSource(1))
		lo := shard * mcShardSize
		hi := min(lo+mcShardSize, opt.Trials)
		for t := lo; t < hi; t++ {
			if err := tctx.Err(); err != nil {
				return err
			}
			rng.Seed(trialSeed(seed, t))
			v, ok, err := s.trial(p, opt.Sigma, gs, wire, rng)
			if err != nil {
				return err
			}
			if journaled {
				emitTrialEvent(tctx, t, v, ok)
			}
			if !ok {
				v = math.NaN()
			}
			samples[t] = v
			prog.Inc()
		}
		return nil
	})
	if err != nil {
		return MCResult{}, fmt.Errorf("accuracy: Monte-Carlo aborted: %w", err)
	}
	// Compact out the degenerate trials in index order, then sort.
	errs := compactFinite(samples)
	if len(errs) == 0 {
		return MCResult{}, fmt.Errorf("accuracy: all trials degenerate")
	}
	sort.Float64s(errs)
	return summarize(errs), nil
}

// compactFinite drops the NaN markers of degenerate trials in place,
// preserving index order.
func compactFinite(samples []float64) []float64 {
	errs := samples[:0]
	for _, v := range samples {
		if !math.IsNaN(v) {
			errs = append(errs, v)
		}
	}
	return errs
}

// summarize reduces the ascending-sorted error-rate samples to the
// MCResult moments and percentiles.
func summarize(errs []float64) MCResult {
	res := MCResult{Trials: len(errs)}
	sum, sumSq := 0.0, 0.0
	for _, e := range errs {
		sum += e
		sumSq += e * e
	}
	res.Mean = sum / float64(len(errs))
	res.Std = math.Sqrt(math.Max(0, sumSq/float64(len(errs))-res.Mean*res.Mean))
	res.P50 = percentile(errs, 0.50)
	res.P95 = percentile(errs, 0.95)
	res.P99 = percentile(errs, 0.99)
	res.Max = errs[len(errs)-1]
	return res
}

// percentile returns the q-th quantile of an ascending-sorted slice with
// linear interpolation between the two straddling order statistics. The
// previous truncating form int(q·(n−1)) biased P95/P99 low for small trial
// counts (e.g. P99 of 100 sorted samples returned sample 98 exactly).
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := q * float64(n-1)
	lo := int(h)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}
