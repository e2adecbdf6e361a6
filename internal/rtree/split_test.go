package rtree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
)

// distribution is one way the oracle cuts M+1 sorted entries in two.
type distribution struct {
	first, second []int // item IDs, in sort order
	overlap, area float64
}

// oracleDistributions enumerates, by brute force, every distribution the
// R* split considers on one axis: both sorts (lower edge, then upper edge)
// and every first-group size k in [m, M+1−m]. It returns them with the
// axis's margin sum.
func oracleDistributions(rects []geom.Rect, m, axis int) (margin float64, ds []distribution) {
	lo := func(r geom.Rect) float64 { return [2]float64{r.MinX, r.MinY}[axis] }
	hi := func(r geom.Rect) float64 { return [2]float64{r.MaxX, r.MaxY}[axis] }
	for _, byUpper := range []bool{false, true} {
		ids := make([]int, len(rects))
		for i := range ids {
			ids[i] = i
		}
		sort.SliceStable(ids, func(i, j int) bool {
			a, b := rects[ids[i]], rects[ids[j]]
			ka, kb := [2]float64{lo(a), hi(a)}, [2]float64{lo(b), hi(b)}
			if byUpper {
				ka, kb = [2]float64{hi(a), lo(a)}, [2]float64{hi(b), lo(b)}
			}
			return ka[0] < kb[0] || (geom.SameCoord(ka[0], kb[0]) && ka[1] < kb[1])
		})
		for k := m; k <= len(rects)-m; k++ {
			b1, b2 := bound(rects, ids[:k]), bound(rects, ids[k:])
			margin += b1.Width() + b1.Height() + b2.Width() + b2.Height()
			ds = append(ds, distribution{
				first: ids[:k], second: ids[k:],
				overlap: math.Max(0, math.Min(b1.MaxX, b2.MaxX)-math.Max(b1.MinX, b2.MinX)) *
					math.Max(0, math.Min(b1.MaxY, b2.MaxY)-math.Max(b1.MinY, b2.MinY)),
				area: b1.Width()*b1.Height() + b2.Width()*b2.Height(),
			})
		}
	}
	return margin, ds
}

func bound(rects []geom.Rect, ids []int) geom.Rect {
	b := rects[ids[0]]
	for _, id := range ids[1:] {
		r := rects[id]
		b = geom.Rect{MinX: math.Min(b.MinX, r.MinX), MinY: math.Min(b.MinY, r.MinY),
			MaxX: math.Max(b.MaxX, r.MaxX), MaxY: math.Max(b.MaxY, r.MaxY)}
	}
	return b
}

func sameIDs(a, b []int) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	sort.Ints(a)
	sort.Ints(b)
	return slices.Equal(a, b)
}

// find returns the distribution of ds that cuts the items into the two
// groups of got, in either order, or nil, and the distribution of ds with the least overlap, then area.
func find(ds []distribution, got [2][]int) (match, best *distribution) {
	best = &ds[0]
	for i, d := range ds {
		if match == nil && (sameIDs(d.first, got[0]) && sameIDs(d.second, got[1]) ||
			sameIDs(d.first, got[1]) && sameIDs(d.second, got[0])) {
			match = &ds[i]
		}
		if d.overlap < best.overlap || (geom.SameCoord(d.overlap, best.overlap) && d.area < best.area) {
			best = &ds[i]
		}
	}
	return match, best
}

// TestSplitMinimisesMarginThenOverlap inserts M+1 random rectangles into an
// empty tree, so the root leaf splits once, and checks the two leaves
// against an oracle that enumerates every (axis, sort, k): the split must
// be a distribution on the axis with the least margin sum, and no
// distribution on that axis may have less overlap, or equal overlap and
// less total area. Half the trials use small integer coordinates, whose
// ties the split must break as the rule allows.
func TestSplitMinimisesMarginThenOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, M := range []int{4, 5, 8} {
		for m := 1; m <= M/2; m++ {
			for trial := 0; trial < 300; trial++ {
				rects := make([]geom.Rect, M+1)
				for i := range rects {
					if trial%2 == 0 {
						rects[i] = randRect(rng, 100)
					} else {
						x, y := float64(rng.Intn(8)), float64(rng.Intn(8))
						rects[i] = geom.NewRect(x, y, x+float64(rng.Intn(4)), y+float64(rng.Intn(4)))
					}
				}
				tr := MustNew(Options{MinEntries: m, MaxEntries: M})
				for i, r := range rects {
					tr.Insert(r, i)
				}
				if err := tr.Validate(); err != nil {
					t.Fatal(err)
				}
				if tr.Height() != 1 || len(tr.root.entries) != 2 {
					t.Fatalf("M=%d m=%d: %d items made height %d with %d root entries, want one split",
						M, m, M+1, tr.Height(), len(tr.root.entries))
				}
				var got [2][]int
				for g, e := range tr.root.entries {
					for _, it := range e.child.entries {
						got[g] = append(got[g], it.id)
					}
				}

				// The split's axis is one of least margin sum (either, when
				// the sums tie), and on it the split has the least overlap,
				// then the least area.
				marginX, onX := oracleDistributions(rects, m, 0)
				marginY, onY := oracleDistributions(rects, m, 1)
				cx, bx := find(onX, got)
				cy, by := find(onY, got)
				tie := geom.ApproxEqual(marginX, marginY)
				var chosen, best *distribution
				switch {
				case cx != nil && (marginX < marginY || tie):
					chosen, best = cx, bx
				case cy != nil && (marginY < marginX || tie):
					chosen, best = cy, by
				default:
					t.Fatalf("M=%d m=%d trial %d: split %v | %v is no distribution on the axis of least margin (x %g, y %g)",
						M, m, trial, got[0], got[1], marginX, marginY)
				}
				if !geom.SameCoord(chosen.overlap, best.overlap) || !geom.SameCoord(chosen.area, best.area) {
					t.Fatalf("M=%d m=%d trial %d: split %v | %v has overlap %g and area %g; %v | %v has %g and %g",
						M, m, trial, got[0], got[1], chosen.overlap, chosen.area,
						best.first, best.second, best.overlap, best.area)
				}
			}
		}
	}
}

// maxInsertAllocs bounds the allocations of one Insert into a growing
// default tree: 0.671 measured, plus 10 %. A split allocates the sibling
// node and its entries and works in the tree's scratch; otherwise only a
// node outgrowing its slots allocates, so most inserts allocate nothing.
const maxInsertAllocs = 0.738

// TestInsertAllocations builds a default tree of 2,000 uniform rectangles,
// sized as the benchmark's join inputs are, and pins the allocations per
// insert.
func TestInsertAllocations(t *testing.T) {
	const n = 2000
	rects := datagen.UniformRects(rand.New(rand.NewSource(1)), n, geom.NewRect(0, 0, 10000, 10000), 2, 100)
	perTree := testing.AllocsPerRun(8, func() {
		tr := MustNew(DefaultOptions())
		for i, r := range rects {
			tr.Insert(r, i)
		}
	})
	if got := perTree / n; got > maxInsertAllocs {
		t.Fatalf("%.3f allocations per insert, want at most %.3f", got, maxInsertAllocs)
	}
}
