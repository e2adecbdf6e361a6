package zorder

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
)

// randRects returns n random rectangles inside (or, with slop > 0,
// spilling past) the world — boundary-crossing inputs exercise the
// clamped-reference ownership rule of the tile partitioner.
func randRects(rng *rand.Rand, n int, world geom.Rect, maxSide, slop float64) []geom.Rect {
	out := make([]geom.Rect, n)
	for i := range out {
		w := 0.5 + rng.Float64()*maxSide
		h := 0.5 + rng.Float64()*maxSide
		x := world.MinX - slop + rng.Float64()*(world.Width()+2*slop)
		y := world.MinY - slop + rng.Float64()*(world.Height()+2*slop)
		out[i] = geom.NewRect(x, y, x+w, y+h)
	}
	return out
}

func pairKey(ps []Pair) string {
	sorted := append([]Pair(nil), ps...)
	SortPairs(sorted)
	return fmt.Sprint(sorted)
}

func TestParallelOverlapJoinMatchesSequential(t *testing.T) {
	world := geom.NewRect(0, 0, 1024, 1024)
	for _, tc := range []struct {
		name  string
		level uint
		n     int
		slop  float64
	}{
		{"inside_world", 8, 700, 0},
		{"boundary_spill", 8, 700, 60},
		{"coarse_grid", 3, 500, 0},
		{"small_input_serial_fallback", 8, 40, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n) + int64(tc.level)))
			g, err := NewGrid(world, tc.level)
			if err != nil {
				t.Fatal(err)
			}
			rs := randRects(rng, tc.n, world, 30, tc.slop)
			ss := randRects(rng, tc.n, world, 30, tc.slop)
			want, _ := g.OverlapJoin(rs, ss, JoinOptions{Dedup: true, Exact: true})
			wantKey := pairKey(want)
			for _, workers := range []int{1, 2, 3, 8, 0} {
				got, _ := g.ParallelOverlapJoin(rs, ss, workers)
				if pairKey(got) != wantKey {
					t.Fatalf("workers=%d: %d pairs, sequential %d", workers, len(got), len(want))
				}
				// The parallel join's contract includes canonical order.
				for i := 1; i < len(got); i++ {
					if got[i-1].R > got[i].R ||
						(got[i-1].R == got[i].R && got[i-1].S >= got[i].S) {
						t.Fatalf("workers=%d: output not sorted at %d", workers, i)
					}
				}
			}
			// A cancelled run reports the context's error, never a partial answer.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if got, _, err := g.ParallelOverlapJoinCtx(ctx, rs, ss, 8); !errors.Is(err, context.Canceled) || got != nil {
				t.Fatalf("cancelled run: %d pairs, err %v; want context.Canceled", len(got), err)
			}
		})
	}
}

func TestParallelOverlapJoinSelfJoin(t *testing.T) {
	world := geom.NewRect(0, 0, 512, 512)
	g, err := NewGrid(world, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	rects := randRects(rng, 600, world, 20, 0)
	want := BruteOverlapJoin(rects, rects)
	got, _ := g.ParallelOverlapJoin(rects, rects, 8)
	if pairKey(got) != pairKey(want) {
		t.Fatalf("self join: %d pairs, brute force %d", len(got), len(want))
	}
}

func TestParallelOverlapJoinEmpty(t *testing.T) {
	g, err := NewGrid(geom.NewRect(0, 0, 100, 100), 6)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := g.ParallelOverlapJoin(nil, nil, 8); len(got) != 0 {
		t.Fatalf("empty inputs produced %d pairs", len(got))
	}
	rng := rand.New(rand.NewSource(1))
	rs := randRects(rng, 400, geom.NewRect(0, 0, 100, 100), 5, 0)
	if got, _ := g.ParallelOverlapJoin(rs, nil, 8); len(got) != 0 {
		t.Fatalf("one empty side produced %d pairs", len(got))
	}
}

// TestParallelOverlapJoinTouchingAtBoundary pins the ownership rule: two
// rectangles meeting exactly on a strip boundary are reported exactly
// once. The geometry is built so the shared edge lands on a tile boundary
// for the worker counts used.
func TestParallelOverlapJoinTouchingAtBoundary(t *testing.T) {
	world := geom.NewRect(0, 0, 1024, 1024)
	g, err := NewGrid(world, 8)
	if err != nil {
		t.Fatal(err)
	}
	var rs, ss []geom.Rect
	// Pairs touching at x = 512, 256, 128 — tile boundaries for 2/4/8-way
	// splits (and their ×4 oversplits).
	for i, x := range []float64{512, 256, 128, 64} {
		y := float64(i * 40)
		rs = append(rs, geom.NewRect(x-30, y, x, y+30))
		ss = append(ss, geom.NewRect(x, y, x+30, y+30))
	}
	// Pad the inputs past the serial-fallback threshold with far-away
	// non-matching rects.
	for i := 0; i < parallelMinInput; i++ {
		rs = append(rs, geom.NewRect(900, 900+float64(i%50), 901, 901+float64(i%50)))
	}
	want := BruteOverlapJoin(rs, ss)
	for _, workers := range []int{2, 4, 8} {
		got, _ := g.ParallelOverlapJoin(rs, ss, workers)
		if pairKey(got) != pairKey(want) {
			t.Fatalf("workers=%d: %d pairs, brute force %d", workers, len(got), len(want))
		}
	}
}
