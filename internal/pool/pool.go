// Package pool provides the bounded worker pool shared by the parallel
// sweep engines (design-space exploration, Monte-Carlo sampling, model
// validation). Tasks are index-addressed: the caller writes result i into
// slot i of a preallocated slice, so parallel execution preserves the
// exact sequential output order regardless of completion order.
package pool

import (
	"context"
	"flag"
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve normalizes a worker-count setting: values <= 0 select
// runtime.GOMAXPROCS(0), the scheduler's available parallelism.
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// AddFlag registers the shared -workers flag on fs and returns the value
// pointer.
func AddFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0,
		"worker goroutines for parallel sweeps (0 = GOMAXPROCS)")
}

// Run evaluates n index-addressed tasks on at most workers goroutines
// (normalized through Resolve). Task i receives a context that is
// cancelled as soon as any task returns an error or the caller's ctx is
// cancelled; remaining queued tasks are then skipped. Run returns the
// first error observed — a task error takes precedence, otherwise the
// context's. With workers == 1 tasks run strictly in index order on the
// calling goroutine's single worker, giving exact sequential semantics.
//
// Task contexts derive from the caller's ctx, so context values — in
// particular the submitting goroutine's active telemetry span — cross the
// worker boundary: a span opened inside a task nests under the caller's
// span (path "parent/child") exactly as it would sequentially. Callers
// must pass the task's ctx (not a captured outer one) into nested work to
// keep that chain intact.
//
// Dispatch is a hot path for fine-grained sweeps: workers claim task
// indices from one shared atomic counter, so handing out a task is a
// single atomic add and no worker waits for another to hand it one. The
// per-call cost is the goroutine-shared closure state (suppressed below as
// setup-time, not per-task, allocations).
//
//lint:hotpath
func Run(ctx context.Context, n, workers int, task func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Workers poll the Done channel rather than cctx.Err(): a non-blocking
	// receive on an open channel takes no lock, while Err takes the
	// context's mutex on every task.
	done := cctx.Done()
	var (
		//lint:ignore noalloc goroutine-shared dispatch state: four setup-time boxes per Run
		next atomic.Int64
		//lint:ignore noalloc goroutine-shared dispatch state: four setup-time boxes per Run
		wg sync.WaitGroup
		//lint:ignore noalloc goroutine-shared dispatch state: four setup-time boxes per Run
		mu sync.Mutex
		//lint:ignore noalloc goroutine-shared dispatch state: four setup-time boxes per Run
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Worker goroutine. Termination edges: the loop returns once the
		// counter passes n or the pool context is cancelled, and the
		// wg.Done here joins the wg.Wait below.
		//lint:ignore noalloc the worker closure is one setup-time allocation per worker, not per task
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				select {
				case <-done:
					return
				default:
				}
				if err := task(cctx, i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
