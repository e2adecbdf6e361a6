package join

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/pred"
	"spatialjoin/internal/relation"
	"spatialjoin/internal/storage"
)

// s2ReadsGolden pins the physical page reads of TreeJoin and TreeSelect
// over trees that satisfy the paper's assumption S2 (every node contains
// its tuple), each run through a 16-frame pool dropped before it. On such
// trees examining a node reads its tuple's page, so the reads are the
// paper's C_IO charge for the placement at hand: the model trees under
// clustered (BFS-order) and unclustered (shuffled) placement, IIb and IIa,
// and a cartographic hierarchy stored in BFS order. The values were
// captured before R-tree items moved their charge from Θ to θ; a node that
// contains its tuple is still charged when it is examined, so none of them
// may move. core.TestJoinS2TreesMatchGolden pins the same trees' counts.
//
// Format: case, PageReads, FilterEvals, ExactEvals, results.
var s2ReadsGolden = []string{
	"model-clustered/join/overlaps 42 1933 1373 1373",
	"model-clustered/join/within_distance(40) 57 3177 2416 283",
	"model-clustered/select/bfs 4 33 18 18",
	"model-clustered/select/dfs 4 33 18 18",
	"model-unclustered/join/overlaps 180 1933 1373 1373",
	"model-unclustered/join/within_distance(40) 268 3177 2416 283",
	"model-unclustered/select/bfs 10 33 18 18",
	"model-unclustered/select/dfs 10 33 18 18",
	"carto/join/overlaps 62 2025 968 966",
	"carto/join/within_distance(40) 62 2636 1337 116",
	"carto/select/bfs 3 16 4 4",
	"carto/select/dfs 3 16 4 4",
}

// newCartoFixture stores the features of a generated map in BFS (tuple-ID)
// order behind pool, the clustered layout of a cartographic hierarchy.
func newCartoFixture(t *testing.T, pool *storage.BufferPool, seed int64) fixture {
	t.Helper()
	h, feats, err := datagen.GenerateMap(rand.New(rand.NewSource(seed)), datagen.MapSpec{
		World: geom.NewRect(0, 0, 1000, 1000), Countries: 5, StatesPerCountry: 4, CitiesPerState: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	sch, err := relation.NewSchema(
		relation.Column{Name: "id", Type: relation.TypeInt64},
		relation.Column{Name: "shape", Type: relation.TypeGeometry},
	)
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]relation.Tuple, len(feats))
	for i, f := range feats {
		if f.TupleID != i {
			t.Fatalf("feature %d has tuple %d: GenerateMap must number in BFS order", i, f.TupleID)
		}
		tuples[i] = relation.Tuple{int64(i), f.Shape}
	}
	rel, err := relation.BulkLoad(pool, fmt.Sprintf("map%d", seed), sch, tuples,
		relation.PlaceSequential, 0.75, seed)
	if err != nil {
		t.Fatal(err)
	}
	table, err := NewTable(rel, 1, pool)
	if err != nil {
		t.Fatal(err)
	}
	return fixture{pool: pool, table: table, tree: h.Tree()}
}

// s2ReadCases runs the fixed-seed S2 joins and selections and renders one
// line per case in s2ReadsGolden's format.
func s2ReadCases(t *testing.T) []string {
	t.Helper()
	const frames = 16
	var lines []string
	line := func(name string, stats Stats, results int) {
		lines = append(lines, fmt.Sprintf("%s %d %d %d %d", name,
			stats.PageReads, stats.FilterEvals, stats.ExactEvals, results))
	}
	drop := func(f fixture) {
		if err := f.pool.DropAll(); err != nil {
			t.Fatal(err)
		}
	}
	ops := []pred.Operator{pred.Overlaps{}, pred.WithinDistance{D: 40}}
	window := geom.NewRect(300, 300, 380, 360)
	run := func(name string, r, s fixture) {
		for _, op := range ops {
			drop(r)
			ms, stats, err := TreeJoin(context.Background(), r.tree, r.table, s.tree, s.table, op)
			if err != nil {
				t.Fatalf("%s join %s: %v", name, op.Name(), err)
			}
			line(name+"/join/"+op.Name(), stats, len(ms))
		}
		for trav, tname := range []string{core.BreadthFirst: "bfs", core.DepthFirst: "dfs"} {
			drop(r)
			ids, stats, err := TreeSelect(context.Background(), s.tree, s.table, window, pred.Overlaps{}, core.Traversal(trav))
			if err != nil {
				t.Fatalf("%s select: %v", name, err)
			}
			line(name+"/select/"+tname, stats, len(ids))
		}
	}
	for _, pl := range []struct {
		name      string
		placement relation.Placement
	}{{"model-clustered", relation.PlaceSequential}, {"model-unclustered", relation.PlaceShuffled}} {
		pool := newPool(t, frames)
		run(pl.name, newFixture(t, pool, 31, 4, 4, pl.placement), newFixture(t, pool, 32, 4, 4, pl.placement))
	}
	pool := newPool(t, frames)
	run("carto", newCartoFixture(t, pool, 33), newCartoFixture(t, pool, 34))
	return lines
}

func TestS2PageReadsMatchGolden(t *testing.T) {
	got := s2ReadCases(t)
	if len(got) != len(s2ReadsGolden) {
		for _, l := range got {
			t.Logf("%q,", l)
		}
		t.Fatalf("%d cases, %d golden lines", len(got), len(s2ReadsGolden))
	}
	for i, l := range got {
		if l != s2ReadsGolden[i] {
			t.Errorf("case %d:\n got  %s\n want %s", i, l, s2ReadsGolden[i])
		}
	}
}
