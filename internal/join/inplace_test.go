package join

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/pred"
	"spatialjoin/internal/relation"
	"spatialjoin/internal/rtree"
)

// inPlaceGolden pins tree joins in which no pair of items forms, so θ runs
// where the paper's JOIN3 runs it and none is deferred to a level's
// refinement: R-tree collections of unequal height, whose items meet only
// in the JOIN4 SELECT passes of the shorter tree's items, and a model tree
// (S2: every node contains its tuple) against an R-tree collection, in both
// operand orders. Each join runs through a 16-frame pool dropped before
// it. The ExactEvals and results columns were captured
// before θ moved into the refinement, and they may not move. The
// FilterEvals and PageReads columns were captured when the R-tree took the
// R* split: its nodes overlap less, so each row evaluates fewer Θ, and θ
// runs in descent order, which follows the tree's shape, so the pages a
// 16-frame pool misses move with it. The FilterEvals of the four
// R-tree × R-tree rows were captured again when JOIN4 began to restrict
// two technical nodes larger MBR first and against the union of the passes:
// they test fewer children, and the other columns do not move.
//
// Format: case, FilterEvals, ExactEvals, PageReads, results.
var inPlaceGolden = []string{
	"rtree-2000x150/overlaps 4122 312 272 312",
	"rtree-150x2000/overlaps 4122 312 273 312",
	"model-x-rtree/overlaps 12241 6263 4533 6263",
	"rtree-x-model/overlaps 12241 6263 4464 6263",
	"rtree-2000x150/within_distance(20) 7010 1487 986 359",
	"rtree-150x2000/within_distance(20) 7010 1487 1029 359",
	"model-x-rtree/within_distance(20) 15097 8278 5991 206",
	"rtree-x-model/within_distance(20) 15097 8278 5795 206",
}

func TestTreeJoinInPlaceThetaKeepsItsCounts(t *testing.T) {
	pool := newPool(t, 16)
	rng := rand.New(rand.NewSource(23))
	world := geom.NewRect(0, 0, 1000, 1000)
	opts := rtree.DefaultOptions()
	bigTab, bigTree := newRTreeTable(t, pool, rng, "big", 2000, world, opts)
	smallTab, smallTree := newRTreeTable(t, pool, rng, "small", 150, world, opts)
	if bigTree.Height() == smallTree.Height() {
		t.Fatalf("both R-trees have height %d; the case needs unequal heights", bigTree.Height())
	}
	model := newFixture(t, pool, 29, 4, 3, relation.PlaceShuffled)

	var lines []string
	run := func(name string, trR core.Tree, r Table, trS core.Tree, s Table, op pred.Operator) {
		if err := pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		got, stats, err := TreeJoin(context.Background(), trR, r, trS, s, op)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := NestedLoop(context.Background(), r, s, op, 1)
		if err != nil {
			t.Fatal(err)
		}
		equalMatchSets(t, name+" vs nested loop", got, want)
		lines = append(lines, fmt.Sprintf("%s/%s %d %d %d %d", name, op.Name(),
			stats.FilterEvals, stats.ExactEvals, stats.PageReads, len(got)))
	}
	for _, op := range []pred.Operator{pred.Overlaps{}, pred.WithinDistance{D: 20}} {
		run("rtree-2000x150", bigTree, bigTab, smallTree, smallTab, op)
		run("rtree-150x2000", smallTree, smallTab, bigTree, bigTab, op)
		run("model-x-rtree", model.tree, model.table, bigTree, bigTab, op)
		run("rtree-x-model", bigTree, bigTab, model.tree, model.table, op)
	}
	if len(lines) != len(inPlaceGolden) {
		for _, l := range lines {
			t.Log(l)
		}
		t.Fatalf("%d cases, %d golden lines", len(lines), len(inPlaceGolden))
	}
	for i, l := range lines {
		if l != inPlaceGolden[i] {
			t.Errorf("got  %s\nwant %s", l, inPlaceGolden[i])
		}
	}
}
