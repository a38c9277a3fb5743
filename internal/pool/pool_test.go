package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mnsim/internal/telemetry"
)

func TestRunCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		n := 100
		hits := make([]int32, n)
		err := Run(context.Background(), n, workers, func(_ context.Context, i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestRunSingleWorkerIsOrdered(t *testing.T) {
	for _, n := range []int{10, 1000} {
		var order []int
		err := Run(context.Background(), n, 1, func(_ context.Context, i int) error {
			order = append(order, i)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(order) != n {
			t.Fatalf("n=%d: ran %d tasks", n, len(order))
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("n=%d: task %d ran at position %d", n, v, i)
			}
		}
	}
}

// A task error stops the pool: the tasks already running finish, and no
// queued task starts. The tasks after the failing one wait for the pool's
// cancellation (or a generous deadline, should it never come), so the
// worker racing the failing task cannot drain the queue while the failing
// task is still formatting its error.
func TestRunStopsOnTaskError(t *testing.T) {
	boom := errors.New("boom")
	hold, release := context.WithTimeout(context.Background(), 5*time.Second)
	defer release()
	var ran int32
	err := Run(context.Background(), 1000, 2, func(ctx context.Context, i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 3 {
			return fmt.Errorf("task %d: %w", i, boom)
		}
		if i > 3 {
			select {
			case <-ctx.Done():
			case <-hold.Done():
			}
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// Tasks 0–3, plus the one the other worker held when task 3 failed.
	if n := atomic.LoadInt32(&ran); n > 5 {
		t.Fatalf("error did not stop the pool early: %d tasks ran", n)
	}
}

// Cancelling the caller's context with tasks still queued skips them all.
// Task 0 cancels only once task 1 holds the other worker, so the moment of
// the cancel is known: two tasks in flight, n−2 queued.
func TestRunCancelSkipsQueuedTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 100
	var ran, late atomic.Int32
	var cancelled atomic.Bool
	holding := make(chan struct{})
	err := Run(ctx, n, 2, func(tctx context.Context, i int) error {
		ran.Add(1)
		if cancelled.Load() {
			late.Add(1)
		}
		switch i {
		case 0:
			<-holding
			cancel()
			cancelled.Store(true)
		case 1:
			close(holding)
			<-tctx.Done()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r, l := ran.Load(), late.Load(); r != 2 || l != 0 {
		t.Fatalf("%d tasks ran, %d after the cancel; want 2 and 0", r, l)
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int32
	err := Run(ctx, 100, 4, func(_ context.Context, i int) error {
		atomic.AddInt32(&ran, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunTaskSeesCancellation(t *testing.T) {
	sentinel := errors.New("observed cancel")
	err := Run(context.Background(), 10, 1, func(ctx context.Context, i int) error {
		if i == 0 {
			return sentinel // cancels the pool context for the rest
		}
		if ctx.Err() == nil {
			t.Errorf("task %d: pool context not cancelled after error", i)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunEmpty(t *testing.T) {
	if err := Run(context.Background(), 0, 4, func(context.Context, int) error {
		t.Fatal("task ran for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// Regression: the submitting goroutine's active span must cross the worker
// boundary — a span opened inside a pooled task aggregates under
// "parent/child", not as a detached root. (Task contexts derive from the
// caller's ctx, which preserves context values.)
func TestRunPropagatesSpanContext(t *testing.T) {
	tr := telemetry.NewTracer()
	ctx, parent := tr.StartSpan(context.Background(), "parent")
	err := Run(ctx, 8, 4, func(tctx context.Context, i int) error {
		_, child := tr.StartSpan(tctx, "child")
		child.End()
		return nil
	})
	parent.End()
	if err != nil {
		t.Fatal(err)
	}
	stat, ok := tr.Stat("parent/child")
	if !ok {
		var names []string
		for _, s := range tr.Stats() {
			names = append(names, s.Name)
		}
		t.Fatalf("span context dropped at the pool boundary: have %v, want parent/child", names)
	}
	if stat.Count != 8 {
		t.Fatalf("parent/child count = %d, want 8", stat.Count)
	}
	// The causal chain agrees with the path: every task span's parent ID is
	// the submitting span.
	tctx2, p2 := tr.StartSpan(context.Background(), "parent2")
	var badParent atomic.Int32
	err = Run(tctx2, 4, 2, func(tctx context.Context, i int) error {
		if telemetry.SpanFromContext(tctx).IDs().Span != p2.IDs().Span {
			badParent.Add(1)
		}
		return nil
	})
	p2.End()
	if err != nil {
		t.Fatal(err)
	}
	if badParent.Load() != 0 {
		t.Fatalf("%d tasks saw a context without the submitting span", badParent.Load())
	}
}

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(0) = %d", got)
	}
	if got := Resolve(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(-3) = %d", got)
	}
	if got := Resolve(7); got != 7 {
		t.Errorf("Resolve(7) = %d", got)
	}
}

// The pool must leave no goroutines behind after Run returns — on the
// success, error, and cancellation paths alike. Part of the repo-wide
// clean-shutdown contract (the resource sampler's goroutine-leak test is
// the telemetry-side counterpart).
func TestRunLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		_ = Run(context.Background(), 50, 4, func(context.Context, int) error { return nil })
		_ = Run(context.Background(), 50, 4, func(_ context.Context, i int) error {
			if i == 10 {
				return errors.New("boom")
			}
			return nil
		})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = Run(ctx, 50, 4, func(context.Context, int) error { return nil })
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}
