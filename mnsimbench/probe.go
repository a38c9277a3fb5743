package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// op is one closed-loop operation. run is the timed call; check verifies
// its outputs outside the timer.
type op struct {
	run   func(ctx context.Context) error
	check func() error
}

// tally counts attempted and failed ops. An error return and a failed
// output check are both failures.
type tally struct{ attempted, failed int }

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// probe is a reading of the process counters an op is charged with.
type probe struct {
	cpu            time.Duration // user+sys from getrusage; excludes VM steal
	alloc, cycles  uint64
	gcCPU, progCPU float64
	resident       uint64 // bytes the Go runtime holds from the OS
}

var probeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/total:bytes",
	"/memory/classes/heap/released:bytes",
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readProbe() probe {
	s := make([]metrics.Sample, len(probeNames))
	for i, n := range probeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return probe{
		cpu:     cpuTime(),
		alloc:   s[0].Value.Uint64(),
		cycles:  s[1].Value.Uint64(),
		gcCPU:   s[2].Value.Float64(),
		progCPU: s[3].Value.Float64(),
		// Memory the runtime has mapped, less what it returned to the OS.
		resident: s[4].Value.Uint64() - s[5].Value.Uint64(),
	}
}

// sample is what one op cost, and the memory held when it returned.
type sample struct {
	wall, cpu      time.Duration
	alloc, cycles  uint64
	gcCPU, progCPU float64
	resident       uint64
}

func since(p probe, wall time.Duration) sample {
	q := readProbe()
	return sample{
		wall: wall, cpu: q.cpu - p.cpu,
		alloc: q.alloc - p.alloc, cycles: q.cycles - p.cycles,
		gcCPU: q.gcCPU - p.gcCPU, progCPU: q.progCPU - p.progCPU,
		resident: q.resident,
	}
}

// timeOp collects garbage, then times o.run alone: the previous op's heap
// is not charged to this one.
func timeOp(ctx context.Context, o op) (sample, error) {
	runtime.GC()
	p := readProbe()
	t := time.Now()
	err := o.run(ctx)
	return since(p, time.Since(t)), err
}

// runOp prepares, times and checks op i, counting it in t. Only a failure
// to prepare the op is returned; a failed op is counted and reported.
func runOp(ctx context.Context, w workload, i int, t *tally) (sample, error) {
	o, err := w.prepare(i)
	if err != nil {
		return sample{}, err
	}
	return countOp(ctx, i, o, t), nil
}

// countOp times and checks the prepared op i, counting it in t.
func countOp(ctx context.Context, i int, o op, t *tally) sample {
	s, err := timeOp(ctx, o)
	if err == nil {
		err = o.check()
	}
	t.attempted++
	if err != nil {
		t.failed++
		reportFailure(i, err)
	}
	return s
}

// runOps runs the given op indices: the warm-up ops of a setup.
func runOps(ctx context.Context, w workload, idx []int) (tally, error) {
	var t tally
	for _, i := range idx {
		if _, err := runOp(ctx, w, i, &t); err != nil {
			return t, err
		}
	}
	return t, nil
}

func reportFailure(i int, err error) {
	fmt.Printf("op %d failed: %v\n", i, err)
}

// opSeed derives op i's input seed from the workload seed (a splitmix64
// finalizer), so no two ops of a run share inputs and every run with one
// seed repeats the same sequence.
func opSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(int64(i))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// warmIndex is the op index of warm-up op k of setup round r. Warm-up ops
// take negative indices, so they never repeat a timed op's inputs.
func warmIndex(r, k int) int { return -(r*256 + k + 1) }

func warmIndices(r, n int) []int {
	idx := make([]int, n)
	for k := range idx {
		idx[k] = warmIndex(r, k)
	}
	return idx
}
