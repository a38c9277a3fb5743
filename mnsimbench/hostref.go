package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The host this benchmark runs on is shared: other tenants' memory traffic
// slows every op of a run alike, by ±15% over tens of seconds (see
// README.md, "Noise"). A run therefore also times a fixed reference kernel
// before every timed op, outside the op's timer, and reports its timings
// scaled to a nominal reference speed:
//
//	scaled wall time = measured × refNominalMS / (median kernel wall time)
//	scaled CPU time  = measured × refNominalCPUMS / (median kernel CPU time)
//
// CPU time is scaled by the kernel's CPU time, not its wall time: VM steal
// lengthens the kernel's wall time but neither its CPU time nor the op's,
// so a wall-time scale would move cpu_ms_per_op with steal.
//
// The kernel calls nothing in the program, so a change to the program moves
// the scaled timings exactly as it moves the measured ones; contention,
// which slows the kernel and the op alike, cancels. Its mix (fresh heap
// allocation, then random reads over a table larger than the caches) is
// what tracked the ops best: over 35 twenty-second windows of one
// process, the median Table II op time spread 7.1% and its ratio to this
// kernel 2.6%. The kernel runs in a child process, so its 32 MiB table
// counts neither in the run's resident memory nor in its CPU time or heap.
const (
	refSlices   = 512     // fresh slices the kernel allocates and fills
	refSliceLen = 8 << 10 // float64s per slice: 64 KiB, 32 MiB in all
	refGathers  = 1 << 20 // random reads over the slices
	// The kernel's medians on the 2-vCPU Xeon VM the benchmark was tuned on.
	refNominalMS    = 35.0
	refNominalCPUMS = 40.0
)

// refIndices returns the kernel's read positions, fixed so every run does
// the same work. Only the child builds them: in the run's own heap they
// would raise its GC goal and resident memory.
func refIndices() []int32 {
	rng := rand.New(rand.NewSource(1))
	idx := make([]int32, refGathers)
	for i := range idx {
		idx[i] = int32(rng.Intn(refSlices * refSliceLen))
	}
	return idx
}

// refSink keeps the kernel's result live.
var refSink float64

// hostRef collects garbage, then runs the reference kernel once over the
// read positions idx and returns its wall time and the process's CPU time
// (user+sys, the GC's included) over it.
func hostRef(idx []int32) (wall, cpu time.Duration) {
	runtime.GC()
	c0 := cpuTime()
	start := time.Now()
	tab := make([][]float64, refSlices)
	for k := range tab {
		b := make([]float64, refSliceLen)
		for i := range b {
			b[i] = float64(i + k)
		}
		tab[k] = b
	}
	s := 0.0
	for _, j := range idx {
		s += tab[j/refSliceLen][j%refSliceLen]
	}
	refSink += s
	return time.Since(start), cpuTime() - c0
}

// serveRef is the child's loop: for every byte read from in it runs the
// kernel and writes its wall and CPU times in nanoseconds as one line. It
// returns when in ends.
func serveRef(in io.Reader, out io.Writer) error {
	r := bufio.NewReader(in)
	idx := refIndices()
	for {
		if _, err := r.ReadByte(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		wall, cpu := hostRef(idx)
		if _, err := fmt.Fprintln(out, int64(wall), int64(cpu)); err != nil {
			return err
		}
	}
}

// refProc is the child process that runs the reference kernel.
type refProc struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startRef starts this binary as a reference child.
func startRef() (*refProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--reference-kernel")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start reference kernel: %w", err)
	}
	return &refProc{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// time runs the kernel once in the child and returns its wall and CPU
// times.
func (p *refProc) time() (wall, cpu time.Duration, err error) {
	if _, err := p.in.Write([]byte{1}); err != nil {
		return 0, 0, fmt.Errorf("reference kernel: %w", err)
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return 0, 0, fmt.Errorf("reference kernel: %w", err)
	}
	return parseRefLine(line)
}

// parseRefLine reads one answer of serveRef.
func parseRefLine(line string) (wall, cpu time.Duration, err error) {
	f := strings.Fields(line)
	if len(f) != 2 {
		return 0, 0, fmt.Errorf("reference kernel: answer %q is not two durations", line)
	}
	var ns [2]int64
	for k := range ns {
		if ns[k], err = strconv.ParseInt(f[k], 10, 64); err != nil || ns[k] <= 0 {
			return 0, 0, fmt.Errorf("reference kernel: answer %q is not two positive durations", line)
		}
	}
	return time.Duration(ns[0]), time.Duration(ns[1]), nil
}

// stop ends the child and waits for it to exit.
func (p *refProc) stop() error {
	return errors.Join(p.in.Close(), p.cmd.Wait())
}
