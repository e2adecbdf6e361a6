package join

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/pred"
	"spatialjoin/internal/relation"
	"spatialjoin/internal/rtree"
	"spatialjoin/internal/storage"
)

// fixture bundles a loaded relation, its generalization tree and the shared
// pool.
type fixture struct {
	pool  *storage.BufferPool
	table Table
	tree  core.Tree
	rects []geom.Rect
}

// newFixture loads n random rectangles into a relation (clustered by tree
// BFS order or shuffled) and builds the matching model generalization tree.
func newFixture(t *testing.T, pool *storage.BufferPool, seed int64, k, height int,
	placement relation.Placement) fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	world := geom.NewRect(0, 0, 1000, 1000)
	tree, n := datagen.ModelTree(rng, world, k, height)

	// The tree's node rectangles are the tuples' spatial values; collect in
	// tuple-ID order.
	rects := make([]geom.Rect, n)
	core.Walk(tree, func(nd core.Node, _ int) bool {
		if id, ok := nd.Tuple(); ok {
			rects[id] = nd.Bounds()
		}
		return true
	})
	sch, err := relation.NewSchema(
		relation.Column{Name: "id", Type: relation.TypeInt64},
		relation.Column{Name: "mbr", Type: relation.TypeRect},
	)
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{int64(i), rects[i]}
	}
	rel, err := relation.BulkLoad(pool, "objects", sch, tuples, placement, 0.75, seed)
	if err != nil {
		t.Fatal(err)
	}
	table, err := NewTable(rel, 1, pool)
	if err != nil {
		t.Fatal(err)
	}
	return fixture{pool: pool, table: table, tree: tree, rects: rects}
}

func newPool(t *testing.T, capacity int) *storage.BufferPool {
	t.Helper()
	bp, err := storage.NewBufferPool(storage.NewDisk(2000), capacity)
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

func sortMatches(ms []core.Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].R != ms[j].R {
			return ms[i].R < ms[j].R
		}
		return ms[i].S < ms[j].S
	})
}

func equalMatchSets(t *testing.T, label string, got, want []core.Match) {
	t.Helper()
	sortMatches(got)
	sortMatches(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func TestNewTableValidation(t *testing.T) {
	pool := newPool(t, 16)
	sch, _ := relation.NewSchema(
		relation.Column{Name: "id", Type: relation.TypeInt64},
		relation.Column{Name: "mbr", Type: relation.TypeRect},
	)
	rel, _ := relation.Create(pool, "r", sch, 0.75)
	if _, err := NewTable(rel, 0, pool); err == nil {
		t.Error("non-spatial column must fail")
	}
	if _, err := NewTable(rel, 5, pool); err == nil {
		t.Error("out-of-range column must fail")
	}
	if _, err := NewTable(rel, 1, nil); err == nil {
		t.Error("nil pool must fail")
	}
	if _, err := NewTable(rel, 1, pool); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
}

func TestStatsCostAndAdd(t *testing.T) {
	s := Stats{FilterEvals: 2, ExactEvals: 3, PageReads: 4, IndexReads: 1}
	if got := s.Cost(1, 1000); got != 5+5000 {
		t.Fatalf("Cost = %g", got)
	}
	sum := s.Add(Stats{FilterEvals: 1, ExactEvals: 1, PageReads: 1, IndexReads: 1})
	if sum != (Stats{FilterEvals: 3, ExactEvals: 4, PageReads: 5, IndexReads: 2}) {
		t.Fatalf("Add = %+v", sum)
	}
}

func TestAllJoinStrategiesAgree(t *testing.T) {
	pool := newPool(t, 64)
	fr := newFixture(t, pool, 1, 3, 3, relation.PlaceSequential)
	fs := newFixture(t, pool, 2, 3, 3, relation.PlaceShuffled)
	for _, op := range []pred.Operator{pred.Overlaps{}, pred.WithinDistance{D: 120}, pred.NorthwestOf{}} {
		nl, nlStats, err := NestedLoop(context.Background(), fr.table, fs.table, op, 1)
		if err != nil {
			t.Fatal(err)
		}
		tj, tjStats, err := TreeJoin(context.Background(), fr.tree, fr.table, fs.tree, fs.table, op)
		if err != nil {
			t.Fatal(err)
		}
		ix, _, err := BuildIndex(fr.table, fs.table, op, 100)
		if err != nil {
			t.Fatal(err)
		}
		ij, ijStats, err := IndexJoin(context.Background(), ix, fr.table, fs.table)
		if err != nil {
			t.Fatal(err)
		}
		equalMatchSets(t, "tree vs nested "+op.Name(), tj, nl)
		equalMatchSets(t, "index vs nested "+op.Name(), ij, nl)
		if nlStats.ExactEvals != int64(fr.table.Rel.Len())*int64(fs.table.Rel.Len()) {
			t.Fatalf("nested loop must evaluate every pair, got %d", nlStats.ExactEvals)
		}
		if tjStats.FilterEvals == 0 {
			t.Fatal("tree join must report filter evals")
		}
		if ijStats.ExactEvals != 0 || ijStats.FilterEvals != 0 {
			t.Fatal("index join must not evaluate predicates")
		}
	}
}

func TestAllSelectStrategiesAgree(t *testing.T) {
	pool := newPool(t, 64)
	f := newFixture(t, pool, 3, 3, 3, relation.PlaceSequential)
	o := geom.NewRect(100, 100, 420, 380)
	for _, op := range []pred.Operator{pred.Overlaps{}, pred.WithinDistance{D: 150}} {
		ex, exStats, err := ExhaustiveSelect(context.Background(), f.table, o, op)
		if err != nil {
			t.Fatal(err)
		}
		tb, _, err := TreeSelect(context.Background(), f.tree, f.table, o, op, core.BreadthFirst)
		if err != nil {
			t.Fatal(err)
		}
		td, _, err := TreeSelect(context.Background(), f.tree, f.table, o, op, core.DepthFirst)
		if err != nil {
			t.Fatal(err)
		}
		sort.Ints(ex)
		sort.Ints(tb)
		sort.Ints(td)
		if len(ex) != len(tb) || len(ex) != len(td) {
			t.Fatalf("%s: exhaustive %d, BFS %d, DFS %d", op.Name(), len(ex), len(tb), len(td))
		}
		for i := range ex {
			if ex[i] != tb[i] || ex[i] != td[i] {
				t.Fatalf("%s: selection mismatch at %d", op.Name(), i)
			}
		}
		if exStats.ExactEvals != int64(f.table.Rel.Len()) {
			t.Fatalf("exhaustive select must test every tuple, got %d", exStats.ExactEvals)
		}
	}
}

func TestIndexSelectMatchesTreeSelect(t *testing.T) {
	pool := newPool(t, 64)
	fr := newFixture(t, pool, 4, 3, 2, relation.PlaceSequential)
	fs := newFixture(t, pool, 5, 3, 2, relation.PlaceSequential)
	op := pred.Overlaps{}
	ix, _, err := BuildIndex(fr.table, fs.table, op, 50)
	if err != nil {
		t.Fatal(err)
	}
	// For every R tuple, the index's answer must equal a fresh selection.
	for rid := 0; rid < fr.table.Rel.Len(); rid += 7 {
		var dst geom.Rect
		obj, err := fr.table.Rel.Spatial(rid, fr.table.Col, nil, &dst)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := TreeSelect(context.Background(), fs.tree, fs.table, obj, op, core.BreadthFirst)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := IndexSelect(ix, rid, fs.table)
		if err != nil {
			t.Fatal(err)
		}
		sort.Ints(want)
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("rid %d: index %d matches, select %d", rid, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("rid %d: mismatch at %d", rid, i)
			}
		}
		if len(got) > 0 && stats.IndexReads == 0 {
			t.Fatal("index select must charge index reads")
		}
	}
}

func TestClusteredLayoutReducesSelectIO(t *testing.T) {
	// The paper's IIa vs IIb comparison, measured: the same SELECT over the
	// same tree costs fewer page reads when tuples are clustered in BFS
	// order than when they are scattered. Small pool forces real I/O.
	mk := func(placement relation.Placement) int64 {
		pool := newPool(t, 12)
		f := newFixture(t, pool, 6, 4, 3, placement)
		pool.DropAll()
		pool.ResetStats()
		_, stats, err := TreeSelect(context.Background(), f.tree, f.table, geom.NewRect(0, 0, 400, 400),
			pred.Overlaps{}, core.BreadthFirst)
		if err != nil {
			t.Fatal(err)
		}
		return stats.PageReads
	}
	clustered := mk(relation.PlaceSequential)
	shuffled := mk(relation.PlaceShuffled)
	if clustered >= shuffled {
		t.Fatalf("clustered reads (%d) must be below unclustered (%d)", clustered, shuffled)
	}
}

func TestNestedLoopRequiresSharedPool(t *testing.T) {
	p1, p2 := newPool(t, 16), newPool(t, 16)
	f1 := newFixture(t, p1, 7, 2, 2, relation.PlaceSequential)
	f2 := newFixture(t, p2, 8, 2, 2, relation.PlaceSequential)
	if _, _, err := NestedLoop(context.Background(), f1.table, f2.table, pred.Overlaps{}, 1); err == nil {
		t.Fatal("separate pools must be rejected")
	}
}

func TestTreeJoinSeparatePoolsCounted(t *testing.T) {
	p1, p2 := newPool(t, 12), newPool(t, 12)
	f1 := newFixture(t, p1, 9, 3, 2, relation.PlaceSequential)
	f2 := newFixture(t, p2, 10, 3, 2, relation.PlaceSequential)
	p1.DropAll()
	p2.DropAll()
	pairs, stats, err := TreeJoin(context.Background(), f1.tree, f1.table, f2.tree, f2.table, pred.Overlaps{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("trees over the same world must produce pairs")
	}
	if stats.PageReads == 0 {
		t.Fatal("cold-cache tree join must read pages from both pools")
	}
}

func TestIndexJoinChargesIndexPages(t *testing.T) {
	pool := newPool(t, 64)
	fr := newFixture(t, pool, 11, 3, 2, relation.PlaceSequential)
	fs := newFixture(t, pool, 12, 3, 2, relation.PlaceSequential)
	ix, buildStats, err := BuildIndex(fr.table, fs.table, pred.Overlaps{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if buildStats.ExactEvals == 0 {
		t.Fatal("build must evaluate pairs")
	}
	_, stats, err := IndexJoin(context.Background(), ix, fr.table, fs.table)
	if err != nil {
		t.Fatal(err)
	}
	wantPages := int64((ix.Len() + 9) / 10)
	if stats.IndexReads != wantPages {
		t.Fatalf("index reads = %d, want %d", stats.IndexReads, wantPages)
	}
}

func TestIndexJoinEmptyIndex(t *testing.T) {
	pool := newPool(t, 16)
	fr := newFixture(t, pool, 13, 2, 1, relation.PlaceSequential)
	fs := newFixture(t, pool, 14, 2, 1, relation.PlaceSequential)
	ix, _, err := BuildIndex(fr.table, fs.table, pred.WithinDistance{D: 0.000001}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// A join of objects that essentially never match centerpoint-exactly.
	pairs, stats, err := IndexJoin(context.Background(), ix, fr.table, fs.table)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != ix.Len() {
		t.Fatalf("pairs = %d, index len = %d", len(pairs), ix.Len())
	}
	if ix.Len() == 0 && stats.IndexReads != 0 {
		t.Fatal("empty index must charge no index pages")
	}
}

func TestNestedLoopSmallPoolStillCorrect(t *testing.T) {
	// A pool barely above the minimum forces multiple blocks; results must
	// still be exact.
	pool := newPool(t, 12)
	fr := newFixture(t, pool, 15, 3, 2, relation.PlaceShuffled)
	fs := newFixture(t, pool, 16, 3, 2, relation.PlaceShuffled)
	nl, _, err := NestedLoop(context.Background(), fr.table, fs.table, pred.Overlaps{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Reference via big-pool run.
	pool2 := newPool(t, 256)
	fr2 := newFixture(t, pool2, 15, 3, 2, relation.PlaceShuffled)
	fs2 := newFixture(t, pool2, 16, 3, 2, relation.PlaceShuffled)
	ref, _, err := NestedLoop(context.Background(), fr2.table, fs2.table, pred.Overlaps{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	equalMatchSets(t, "blocked vs reference", nl, ref)
}

// newRTreeTable bulk-loads n uniform rectangles drawn from rng into a
// relation behind pool, in tuple-ID order, and indexes them with an R-tree
// whose generalization (technical interior nodes, one leaf per tuple) it
// returns beside the table.
func newRTreeTable(t *testing.T, pool *storage.BufferPool, rng *rand.Rand, name string,
	n int, world geom.Rect, opts rtree.Options) (Table, core.Tree) {
	t.Helper()
	sch, err := relation.NewSchema(
		relation.Column{Name: "id", Type: relation.TypeInt64},
		relation.Column{Name: "mbr", Type: relation.TypeRect},
	)
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]relation.Tuple, n)
	rt := rtree.MustNew(opts)
	for i, r := range datagen.UniformRects(rng, n, world, 2, 30) {
		tuples[i] = relation.Tuple{int64(i), r}
		rt.Insert(r, i)
	}
	rel, err := relation.BulkLoad(pool, name, sch, tuples, relation.PlaceSequential, 0.75, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(rel, 1, pool)
	if err != nil {
		t.Fatal(err)
	}
	return tab, rt.Generalization()
}

func TestTreeJoinOverRTreesMatchesNestedLoop(t *testing.T) {
	// End-to-end: R-tree indices (technical interior nodes) as the
	// generalization trees over stored relations.
	pool := newPool(t, 64)
	rng := rand.New(rand.NewSource(17))
	world := geom.NewRect(0, 0, 500, 500)
	rTab, rTree := newRTreeTable(t, pool, rng, "r", 150, world, rtree.DefaultOptions())
	sTab, sTree := newRTreeTable(t, pool, rng, "s", 150, world, rtree.DefaultOptions())
	nl, _, err := NestedLoop(context.Background(), rTab, sTab, pred.Overlaps{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tj, _, err := TreeJoin(context.Background(), rTree, rTab, sTree, sTab, pred.Overlaps{})
	if err != nil {
		t.Fatal(err)
	}
	equalMatchSets(t, "rtree join vs nested loop", tj, nl)
}
