// Package parallel is the bounded worker pool of the two joins that fan
// out: strategy I's scan of S and the tiled z-order join. It follows the
// partition-based design of Tsitsigkos & Mamoulis (Parallel In-Memory
// Evaluation of Spatial Joins): the caller splits its input into
// independent partitions (tiles, chunks of S) and this package schedules
// them over a fixed number of goroutines, so the degree of parallelism is
// a single tunable knob (Config.Workers at the database layer) rather than
// an emergent property of the data. Strategies II and III run on the
// calling goroutine.
//
// Workers accumulate into worker-local state and the caller merges the
// partial results in partition order, which keeps result ordering and
// per-strategy statistics deterministic for a fixed worker count.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// maxTrackedWorkers bounds the per-worker busy-time array. Worker ids are
// folded modulo this, so pools wider than the array still account all
// their busy time (slots just aggregate several workers).
const maxTrackedWorkers = 64

// poolMetrics is the process-wide activity accounting for every pool run,
// behind an atomic gate so the default path pays one atomic load per Run.
var poolMetrics struct {
	enabled    atomic.Bool
	runs       atomic.Int64
	tasks      atomic.Int64
	busyNanos  atomic.Int64
	workerBusy [maxTrackedWorkers]atomic.Int64
}

// EnableMetrics turns on pool activity accounting (runs, tasks, per-worker
// busy time). It is process-wide and cannot be turned off: the exposition
// layer samples Stats at scrape time.
func EnableMetrics() { poolMetrics.enabled.Store(true) }

// PoolStats is a snapshot of pool activity since EnableMetrics.
type PoolStats struct {
	Runs      int64 // RunCtx invocations that started at least one task
	Tasks     int64 // tasks completed
	BusyNanos int64 // total time spent inside tasks, all workers
	// WorkerBusyNanos is per-worker-slot busy time (worker ids folded
	// modulo the slot count). Only slots that ever ran are meaningful.
	WorkerBusyNanos [maxTrackedWorkers]int64
}

// Stats returns the pool activity snapshot (zeros before EnableMetrics).
func Stats() PoolStats {
	var s PoolStats
	s.Runs = poolMetrics.runs.Load()
	s.Tasks = poolMetrics.tasks.Load()
	s.BusyNanos = poolMetrics.busyNanos.Load()
	for i := range s.WorkerBusyNanos {
		s.WorkerBusyNanos[i] = poolMetrics.workerBusy[i].Load()
	}
	return s
}

// runTask executes one task, accounting busy time to the worker slot when
// metrics are enabled (the caller has already checked the gate).
func runTask(worker int, task func(i int) error, i int) error {
	start := time.Now()
	err := task(i)
	d := time.Since(start).Nanoseconds()
	poolMetrics.tasks.Add(1)
	poolMetrics.busyNanos.Add(d)
	poolMetrics.workerBusy[worker%maxTrackedWorkers].Add(d)
	return err
}

// Workers resolves a configured worker count: n itself when positive,
// otherwise runtime.GOMAXPROCS(0) — the default degree of parallelism.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// RunCtx executes task(0..n-1) on at most `workers` goroutines (resolved
// via Workers) and returns the first error any task produced. Tasks are
// handed out through an atomic cursor, so long tasks do not stall the queue
// behind them. With one worker (or one task) everything runs on the calling
// goroutine, making the serial path allocation- and goroutine-free.
//
// After a task fails no *new* tasks are started, but tasks already running
// are not interrupted; RunCtx returns once all started tasks finish. The
// context is checked before each task is handed out, so a cancelled or
// expired context stops the pool between tasks and RunCtx returns
// ctx.Err(). An already-cancelled context returns promptly, starting no
// tasks and leaving no goroutines behind. Tasks already running when the
// context fires are not interrupted — long tasks that want finer-grained
// cancellation must check the context themselves.
func RunCtx(ctx context.Context, workers, n int, task func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	metered := poolMetrics.enabled.Load()
	if metered {
		poolMetrics.runs.Add(1)
	}
	done := ctx.Done()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			var err error
			if metered {
				err = runTask(0, task, i)
			} else {
				err = task(i)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	// One struct, one allocation; a worker draws its slot, so go takes no args.
	var st struct {
		cursor, slot atomic.Int64
		failed       atomic.Bool
		errOnce      sync.Once
		firstE       error
		wg           sync.WaitGroup
	}
	worker := func() {
		defer st.wg.Done()
		w := int(st.slot.Add(1)) - 1
		for !st.failed.Load() {
			if done != nil {
				select {
				case <-done:
					st.errOnce.Do(func() { st.firstE = ctx.Err() })
					st.failed.Store(true)
					return
				default:
				}
			}
			i := int(st.cursor.Add(1)) - 1
			if i >= n {
				return
			}
			var err error
			if metered {
				err = runTask(w, task, i)
			} else {
				err = task(i)
			}
			if err != nil {
				st.errOnce.Do(func() { st.firstE = err })
				st.failed.Store(true)
				return
			}
		}
	}
	st.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	st.wg.Wait()
	return st.firstE
}

// Chunk is a half-open index interval [Lo, Hi).
type Chunk struct {
	Lo, Hi int
}

// Len returns the number of indices in the chunk.
func (c Chunk) Len() int { return c.Hi - c.Lo }

// Chunks splits [0, n) into at most `parts` contiguous near-equal chunks
// (never empty ones). Merging per-chunk results in slice order reproduces
// the sequential iteration order.
func Chunks(n, parts int) []Chunk {
	if n <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([]Chunk, 0, parts)
	for i := 0; i < parts; i++ {
		lo := i * n / parts
		hi := (i + 1) * n / parts
		if hi > lo {
			out = append(out, Chunk{Lo: lo, Hi: hi})
		}
	}
	return out
}
