package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/pred"
	"spatialjoin/internal/rtree"
)

// TestTreeJoinReachesEveryThetaPassingItemPair checks that JOIN4's
// restriction of a pair of technical nodes loses no candidate: the
// children of the larger MBR are restricted first, the other node's
// against the union of what passed, and a single pass is crossed with all
// of them untested. Over R-trees of equal and of unequal height in both
// operand orders, an R-tree against itself (every pair of twins ties on
// area), trees of points, segments and boxes on a small grid, trees whose
// shapes all lie on one line (every MBR has zero area, so every pair
// ties), and an S2 model tree against an R-tree, every operator's join
// returns the exhaustive θ result. Where both R-trees have the same height
// every θ is on a pair of items, so ExactEvals must be the number of item
// pairs whose MBRs pass Θ: each reaches θ, once.
func TestTreeJoinReachesEveryThetaPassingItemPair(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	// shapes draws n shapes on a 40 × 40 integer grid: a third points, a
	// third horizontal segments and the rest boxes of side 1 to 6. On a
	// line, every shape is flattened onto y = 20.
	shapes := func(n int, onLine bool) []geom.Rect {
		out := make([]geom.Rect, n)
		for i := range out {
			x, y := float64(rng.Intn(40)), float64(rng.Intn(40))
			var w, h float64
			switch i % 3 {
			case 1:
				w = float64(rng.Intn(6))
			case 2:
				w, h = float64(1+rng.Intn(6)), float64(1+rng.Intn(6))
			}
			if onLine {
				y, h = 20, 0
			}
			out[i] = geom.NewRect(x, y, x+w, y+h)
		}
		return out
	}
	rtreeOf := func(rects []geom.Rect) core.Tree {
		rt := rtree.MustNew(rtree.Options{MinEntries: 2, MaxEntries: 5})
		for i, r := range rects {
			rt.Insert(r, i)
		}
		return rt.Generalization()
	}
	model, _ := datagen.ModelTree(rng, geom.NewRect(0, 0, 46, 46), 3, 4)
	big, other, small := rtreeOf(shapes(120, false)), rtreeOf(shapes(120, false)), rtreeOf(shapes(12, false))
	line, otherLine := rtreeOf(shapes(120, true)), rtreeOf(shapes(120, true))
	if big.Height() != other.Height() || line.Height() != otherLine.Height() || big.Height() == small.Height() {
		t.Fatalf("heights %d, %d, %d, %d, %d: the cases below need two equal pairs and one unequal",
			big.Height(), other.Height(), line.Height(), otherLine.Height(), small.Height())
	}
	cases := []struct {
		name   string
		tr, ts core.Tree
		items  bool // both are R-trees of one height: every θ is on a pair of items
	}{
		{"grid ⋈ grid", big, other, true},
		{"grid ⋈ itself", big, big, true},
		{"line ⋈ line", line, otherLine, true},
		{"grid ⋈ small", big, small, false},
		{"small ⋈ grid", small, big, false},
		{"model ⋈ grid", model, big, false},
		{"grid ⋈ model", big, model, false},
	}
	items := func(tree core.Tree) (ns []core.Node) {
		core.Walk(tree, func(n core.Node, _ int) bool {
			if n.NumChildren() == 0 {
				ns = append(ns, n)
			}
			return true
		})
		return ns
	}
	matches := 0
	for _, op := range pred.Extended() {
		for _, c := range cases {
			name := fmt.Sprintf("%s %s", c.name, op.Name())
			res, err := core.Join(c.tr, c.ts, op, &core.JoinOptions{ReadR: readRect, ReadS: readRect})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			core.SortMatches(res.Pairs)
			matches += len(res.Pairs)
			if want := exhaustiveJoin(c.tr, c.ts, op); !slices.Equal(res.Pairs, want) {
				t.Errorf("%s: %d matches, exhaustive reference has %d", name, len(res.Pairs), len(want))
			}
			if !c.items {
				continue
			}
			var candidates int64
			for _, a := range items(c.tr) {
				for _, b := range items(c.ts) {
					if op.Filter(a.Bounds(), b.Bounds()) {
						candidates++
					}
				}
			}
			if res.Stats.ExactEvals != candidates {
				t.Errorf("%s: ExactEvals = %d, want %d: one per item pair whose MBRs pass Θ",
					name, res.Stats.ExactEvals, candidates)
			}
		}
	}
	if matches == 0 {
		t.Fatal("no case matched anything; the comparison is vacuous")
	}
}
