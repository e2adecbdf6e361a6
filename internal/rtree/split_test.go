package rtree

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
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
				if tr.Height() != 1 || tr.root.count != 2 {
					t.Fatalf("M=%d m=%d: %d items made height %d with %d root slots, want one split",
						M, m, M+1, tr.Height(), tr.root.count)
				}
				var got [2][]int
				for g, e := range tr.root.slots() {
					for _, it := range tr.rec(e.ref).slots() {
						got[g] = append(got[g], it.ref)
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
// default tree: 0.022 measured (44 per tree), plus 10 %. A split takes its
// sibling from the arena and works in the tree's scratch, so only a new
// block of records (two allocations per 32 records), the arena's block
// list and the descent path grow; the rest is the tree and its split
// scratch, made once.
const maxInsertAllocs = 0.0242

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

// referenceOrder is sort o of rects as slices.SortFunc orders it under the
// comparator the split used before its keys were precomputed: by the sort's
// edge, then the other edge on the same axis, then position.
func referenceOrder(rects []geom.Rect, o int) []int {
	order := make([]int, len(rects))
	for i := range order {
		order[i] = i
	}
	axis, upper := o/2, o%2 == 1
	slices.SortFunc(order, func(i, j int) int {
		ai, bi := edges(rects[i], axis)
		aj, bj := edges(rects[j], axis)
		if upper {
			ai, bi, aj, bj = bi, ai, bj, aj
		}
		return cmp.Or(cmp.Compare(ai, aj), cmp.Compare(bi, bj), cmp.Compare(i, j))
	})
	return order
}

// TestSplitSortMatchesReference checks that each of the split's four sorts
// is the permutation the reference comparator gives, on M+1 entries heavy
// in ties: coordinates on a four-value grid, duplicated rectangles, equal
// lower edges under different upper edges, and, in a quarter of the trials,
// −0 beside +0, infinities and NaN, which the comparator orders as
// cmp.Compare does. Equal keys must keep position order.
func TestSplitSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	grid := []float64{0, 1, 2, 3}
	odd := []float64{math.Copysign(0, -1), 0, 1, math.Inf(-1), math.Inf(1), math.NaN()}
	for _, M := range []int{4, 8, 16} {
		s := newSplitScratch(M)
		for trial := 0; trial < 500; trial++ {
			rects := make([]geom.Rect, M+1)
			for i := range rects {
				switch {
				case i > 0 && rng.Intn(4) == 0:
					rects[i] = rects[rng.Intn(i)]
				case trial%4 == 3:
					v := func() float64 { return odd[rng.Intn(len(odd))] }
					rects[i] = geom.Rect{MinX: v(), MinY: v(), MaxX: v(), MaxY: v()}
				default:
					v := func() float64 { return grid[rng.Intn(len(grid))] }
					rects[i] = geom.NewRect(v(), v(), v(), v())
				}
			}
			s.all = s.all[:0]
			for i, r := range rects {
				s.all = append(s.all, slot{rect: r, ref: i})
			}
			for o := range s.order {
				s.sortAndBound(o)
				if got, want := s.order[o][:M+1], referenceOrder(rects, o); !slices.Equal(got, want) {
					t.Fatalf("M=%d trial %d sort %d of %v: order %v, want %v", M, trial, o, rects, got, want)
				}
			}
		}
	}
}

// treeFingerprint is the FNV-64a hash of a pre-order walk of t: for every
// slot, its depth, the bits of its rectangle and its item ID (0 for an
// interior slot, whose node number is not part of the tree's shape).
func treeFingerprint(t *Tree) uint64 {
	h := fnv.New64a()
	var buf [48]byte
	var walk func(n *record, depth int)
	walk = func(n *record, depth int) {
		for _, e := range n.slots() {
			binary.LittleEndian.PutUint64(buf[0:], uint64(depth))
			for i, v := range [4]float64{e.rect.MinX, e.rect.MinY, e.rect.MaxX, e.rect.MaxY} {
				binary.LittleEndian.PutUint64(buf[8+8*i:], math.Float64bits(v))
			}
			id := 0
			if n.leaf {
				id = e.ref
			}
			binary.LittleEndian.PutUint64(buf[40:], uint64(id))
			h.Write(buf[:])
			if !n.leaf {
				walk(t.rec(e.ref), depth+1)
			}
		}
	}
	walk(t.root, 0)
	return h.Sum64()
}

// TestInsertBuildsTheSameTree pins the shape of trees built by inserting
// seeded uniform and clustered rectangles one at a time. The fingerprints
// were computed at commit d0961e8, whose split sorted by slices.SortFunc
// under a closure comparator and whose rectangle bounds took math.Min and
// math.Max;
// a change to the insert path that keeps them builds the same trees, so
// the same Θ counts and page reads in every join over them.
func TestInsertBuildsTheSameTree(t *testing.T) {
	world := geom.NewRect(0, 0, 10000, 10000)
	cases := []struct {
		name  string
		opts  Options
		rects []geom.Rect
		want  uint64
	}{
		{"uniform M=8", DefaultOptions(),
			datagen.UniformRects(rand.New(rand.NewSource(1)), 5000, world, 2, 100), 0x3433104c7378573a},
		{"clustered M=8", DefaultOptions(),
			datagen.ClusteredRects(rand.New(rand.NewSource(2)), 5000, 12, world, 400, 40), 0x033984ba3ba4c1cd},
		{"uniform M=4", Options{MinEntries: 2, MaxEntries: 4},
			datagen.UniformRects(rand.New(rand.NewSource(3)), 5000, world, 2, 100), 0x29a7ebf8d9c702a5},
		{"clustered M=16", Options{MinEntries: 6, MaxEntries: 16},
			datagen.ClusteredRects(rand.New(rand.NewSource(4)), 5000, 12, world, 400, 40), 0x12bd13193ec4c8ef},
	}
	for _, c := range cases {
		tr := MustNew(c.opts)
		for i, r := range c.rects {
			tr.Insert(r, i)
		}
		if got := treeFingerprint(tr); got != c.want {
			t.Errorf("%s: fingerprint %#x, want %#x", c.name, got, c.want)
		}
	}
}
