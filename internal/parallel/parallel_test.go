package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != want {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Workers(-5); got != want {
		t.Fatalf("Workers(-5) = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestRunCoversAllTasksOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 500
		var hits [n]atomic.Int32
		if err := RunCtx(context.Background(), workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	if err := RunCtx(context.Background(), 4, 0, func(int) error { t.Fatal("task ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestRunReturnsFirstError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := RunCtx(context.Background(), 4, 100, func(i int) error {
		ran.Add(1)
		if i == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// Error propagation is best-effort prompt: not all 100 tasks may run,
	// but the call must return the failure.
	if ran.Load() == 0 {
		t.Fatal("no task ran")
	}
}

func TestRunSerialStopsAtError(t *testing.T) {
	boom := errors.New("boom")
	var ran int
	err := RunCtx(context.Background(), 1, 100, func(i int) error {
		ran++
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || ran != 6 {
		t.Fatalf("serial run: err=%v ran=%d", err, ran)
	}
}

func TestChunksPartition(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{0, 4}, {1, 4}, {4, 4}, {5, 4}, {100, 7}, {3, 100}, {10, 1}, {10, 0},
	} {
		chunks := Chunks(tc.n, tc.parts)
		next := 0
		for _, c := range chunks {
			if c.Lo != next || c.Hi <= c.Lo {
				t.Fatalf("Chunks(%d,%d): bad chunk %+v (next=%d)", tc.n, tc.parts, c, next)
			}
			next = c.Hi
		}
		if next != tc.n {
			t.Fatalf("Chunks(%d,%d) covers [0,%d)", tc.n, tc.parts, next)
		}
		if tc.parts >= 1 && len(chunks) > tc.parts {
			t.Fatalf("Chunks(%d,%d) produced %d chunks", tc.n, tc.parts, len(chunks))
		}
	}
}

func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		var ran atomic.Int32
		err := RunCtx(ctx, workers, 1000, func(int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d tasks ran on a pre-cancelled context", workers, ran.Load())
		}
	}
}

func TestRunCtxCancelMidRun(t *testing.T) {
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := RunCtx(ctx, workers, 10_000, func(int) error {
			if ran.Add(1) == 50 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// The pool stops handing out tasks promptly: already-started tasks
		// finish, so at most one extra task per worker may slip through.
		if n := ran.Load(); n >= 10_000 {
			t.Fatalf("workers=%d: cancellation did not stop the pool (%d tasks ran)", workers, n)
		}
	}
}

func TestRunCtxLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for iter := 0; iter < 20; iter++ {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		// The outcome races with cancel; this test only counts leftover goroutines.
		_ = RunCtx(ctx, 8, 1000, func(int) error {
			if ran.Add(1) == 10 {
				cancel()
			}
			return nil
		})
		cancel()
	}
	// RunCtx waits for its workers before returning, so the goroutine count
	// must settle back; allow the runtime a few scheduling rounds.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestRunCtxErrorBeatsLateCancel(t *testing.T) {
	boom := errors.New("boom")
	ctx := context.Background()
	err := RunCtx(ctx, 4, 100, func(i int) error {
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want task error %v", err, boom)
	}
}
