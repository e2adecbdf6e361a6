package main

import (
	"encoding/binary"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// sliceStat is what one measured slice (or one mixed-rw round) observed:
// the work it did, what it cost in wall time, CPU time and allocation, the
// per-operation latencies, and how long the noise-guard walks around it
// took.
type sliceStat struct {
	ops, failed int
	wall, cpu   time.Duration
	reads       []time.Duration
	writes      []time.Duration
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	gcCPU       time.Duration
	guard       time.Duration // the slower of the two bracketing noise-guard walks
}

// measure runs body between two noise-guard walks and two snapshots of the
// process's CPU time and allocator counters. body records its operations
// and latencies into the sliceStat it is handed; the sample buffers are
// allocated before the window opens so they do not count as the engine's
// allocations.
func measure(readCap, writeCap int, body func(s *sliceStat)) sliceStat {
	s := sliceStat{
		reads:  make([]time.Duration, 0, readCap),
		writes: make([]time.Duration, 0, writeCap),
	}
	pre := guard()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g0, c0 := gcCPUTime(), cpuTime()
	t0 := time.Now()
	body(&s)
	s.wall = time.Since(t0)
	s.cpu = cpuTime() - c0
	s.gcCPU = gcCPUTime() - g0
	runtime.ReadMemStats(&m1)
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.gcCycles = m1.NumGC - m0.NumGC
	s.guard = max(pre, guard())
	return s
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPUTime is the runtime's estimate of CPU time spent in the collector.
func gcCPUTime() time.Duration {
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(sample[0].Value.Float64() * float64(time.Second))
}

// The noise guard is a fixed walk along one random cycle through guardBytes
// of memory: guardSteps dependent loads, nearly all of them cache misses,
// about 10 ms on the reference container. The issue asked for an integer
// spin; on that container the disturbance that matters comes from the
// memory side (a neighbour outside the VM) and leaves an integer spin at
// its usual speed while the engine, and this walk, slow down by half. A
// core taken away slows the walk just the same.
const (
	guardBytes = 8 << 20
	guardSteps = 100_000
)

var (
	guardMem  []byte // the cycle, as little-endian uint32 slot numbers; outside the Go heap
	guardPos  uint32
	guardLast time.Duration // the latest walk, and when it ended
	guardAt   time.Time
)

// guardInit lays the cycle out. The memory is mapped, not allocated, so
// that the guard neither shows in live_heap_mb nor moves the collector's
// pacing; where mapping fails it is allocated after all.
func guardInit() {
	mem, err := syscall.Mmap(-1, 0, guardBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		mem = make([]byte, guardBytes)
	}
	const slots = guardBytes / 4
	for i := uint32(0); i < slots; i++ {
		binary.LittleEndian.PutUint32(mem[4*i:], i)
	}
	// Sattolo's shuffle leaves one cycle through every slot.
	x := uint64(1)
	for i := uint32(slots - 1); i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := uint32((x >> 33) % uint64(i))
		a, b := binary.LittleEndian.Uint32(mem[4*i:]), binary.LittleEndian.Uint32(mem[4*j:])
		binary.LittleEndian.PutUint32(mem[4*i:], b)
		binary.LittleEndian.PutUint32(mem[4*j:], a)
	}
	guardMem = mem
}

// guard walks guardSteps steps of the cycle and returns how long it took.
// Slices that follow each other at once share the walk between them.
func guard() time.Duration {
	if guardMem == nil {
		guardInit()
	}
	t0 := time.Now()
	if t0.Sub(guardAt) < time.Millisecond {
		return guardLast
	}
	p := guardPos
	for i := 0; i < guardSteps; i++ {
		p = binary.LittleEndian.Uint32(guardMem[4*p:])
	}
	guardPos = p
	guardAt = time.Now()
	guardLast = guardAt.Sub(t0)
	return guardLast
}

// disturbedShare is the share of slices whose bracketing guards ran more
// than guardSlack slower than the run's fastest guard.
const guardSlack = 0.10

func disturbedShare(slices []sliceStat) float64 {
	if len(slices) == 0 {
		return 0
	}
	fastest := slices[0].guard
	for _, s := range slices {
		fastest = min(fastest, s.guard)
	}
	disturbed := 0
	for _, s := range slices {
		if float64(s.guard) > (1+guardSlack)*float64(fastest) {
			disturbed++
		}
	}
	return float64(disturbed) / float64(len(slices))
}

// liveHeapMiB forces two collections and returns the heap still in use.
// Two, because what a sync.Pool holds survives one collection in the
// pool's victim cache, so after one the figure depends on where the
// pools stood when traffic stopped.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// quantile returns the nearest-rank q-quantile of xs, sorting xs in place.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median returns the median of xs (the mean of the middle two for an even
// count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqrShare is the distance between the first and third quartile of xs as a
// share of their median — the spread the benchmark contract judges by.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The exclusive method of Python's statistics.quantiles(n=4).
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	m := median(s)
	if m <= 0 {
		return 0
	}
	return (at(0.75) - at(0.25)) / m
}

// over maps each slice to one value and returns the per-slice values.
func over(slices []sliceStat, f func(sliceStat) float64) []float64 {
	out := make([]float64, len(slices))
	for i, s := range slices {
		out[i] = f(s)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quiet is how the benchmark condenses the values of one run's slices (or
// rounds, or set-ups) into one: the value at the quiet end's 10th
// percentile, nearest rank — the 4th best of 40, the 2nd best of 12. The
// reference container slows the same binary on the same inputs by up to
// 1.7× for seconds to minutes at a time (a neighbour on the memory side);
// a median over slices reports how much of the run that took up, the quiet
// decile reports the program (README.md has both on the same slices). A
// slice is long enough to hold many collections and, in mixed-rw, its
// checkpoint, so what the program itself does periodically is inside every
// slice; harness.median_to_quiet.ops_per_s says what the median would have
// read. lowerIsBetter says which end is the quiet one.
func quiet(xs []float64, lowerIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(0.1*float64(len(s)))) - 1
	if !lowerIsBetter {
		rank = len(s) - 1 - rank
	}
	return s[rank]
}

// allocation turns measured slices into the allocation metrics: per
// operation they do not depend on the box, and the run reports the median
// over slices.
func allocation(slices []sliceStat, into values) {
	perOp := func(s sliceStat, v float64) float64 { return v / float64(max(s.ops, 1)) }
	into["allocs_per_op"] = median(over(slices, func(s sliceStat) float64 { return perOp(s, float64(s.mallocs)) }))
	into["alloc_kb_per_op"] = median(over(slices, func(s sliceStat) float64 { return perOp(s, float64(s.allocBytes)/1024) }))
}

// timing turns measured slices into the timings. None of them is an
// end-to-end metric with a bound: the reference container runs identical
// work up to 1.9× slower for minutes at a time, so no timing of these
// workloads repeats to the 25 % a bound may be, and the issue's rule for
// such a timing is the per-layer section (README.md has the measurements).
// Each is the quiet-decile slice's own value (its throughput, its CPU time
// per operation, its p50). There is no read p90: a slice of a join workload
// holds 8 to 50 joins of 8 different pairs, so its p90 would be its slowest
// pair, one to five samples; the pooled p90 is tail.read_p90_ms.
func timing(slices []sliceStat, into values) {
	into["timing.ops_per_s"] = quiet(over(slices, func(s sliceStat) float64 { return float64(s.ops) / s.wall.Seconds() }), false)
	into["timing.cpu_ms_per_op"] = quiet(over(slices, func(s sliceStat) float64 { return ms(s.cpu) / float64(max(s.ops, 1)) }), true)
	into["timing.read_p50_ms"] = quiet(over(slices, func(s sliceStat) float64 { return ms(quantile(s.reads, 0.5)) }), true)
}

// writeTiming adds the write-latency timings of slices that recorded
// writes.
func writeTiming(slices []sliceStat, into values) {
	into["timing.write_p50_us"] = quiet(over(slices, func(s sliceStat) float64 { return us(quantile(s.writes, 0.5)) }), true)
	into["timing.write_p90_us"] = quiet(over(slices, func(s sliceStat) float64 { return us(quantile(s.writes, 0.9)) }), true)
}

// harnessHealth reports the timings of a traced run's untraced slices and
// how steady the run itself was: the tail percentiles pooled over all
// slices, the collector's share, the slice-to-slice spread, and the noise
// guard's verdict.
func harnessHealth(slices []sliceStat, into values) {
	timing(slices, into)
	var reads, writes []time.Duration
	var wall, cpu, gcCPU time.Duration
	var gcCycles uint32
	for _, s := range slices {
		reads = append(reads, s.reads...)
		writes = append(writes, s.writes...)
		wall += s.wall
		cpu += s.cpu
		gcCPU += s.gcCPU
		gcCycles += s.gcCycles
	}
	into["tail.read_p90_ms"] = ms(quantile(reads, 0.9))
	into["tail.read_p99_ms"] = ms(quantile(reads, 0.99))
	into["tail.read_max_ms"] = ms(quantile(reads, 1))
	if len(writes) > 0 {
		writeTiming(slices, into)
	}
	into["tail.write_p99_us"] = us(quantile(writes, 0.99))
	into["tail.write_max_us"] = us(quantile(writes, 1))
	into["harness.samples_read"] = float64(len(reads))
	into["harness.samples_write"] = float64(len(writes))
	if wall > 0 {
		into["runtime.gc_cycles_per_s"] = float64(gcCycles) / wall.Seconds()
	}
	if cpu > 0 {
		into["runtime.gc_cpu_share"] = float64(gcCPU) / float64(cpu)
	}
	rates := over(slices, func(s sliceStat) float64 { return float64(s.ops) / s.wall.Seconds() })
	if q := quiet(rates, false); q > 0 {
		into["harness.median_to_quiet.ops_per_s"] = median(rates) / q
	}
	into["harness.slice_spread.ops_per_s"] = iqrShare(rates)
	into["harness.slice_spread.read_p50_ms"] = iqrShare(over(slices, func(s sliceStat) float64 { return ms(quantile(s.reads, 0.5)) }))
	into["harness.disturbed_share"] = disturbedShare(slices)
	into["harness.nproc"] = float64(runtime.NumCPU())
}
