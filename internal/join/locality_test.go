package join

import (
	"context"
	"math/rand"
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/pred"
	"spatialjoin/internal/rtree"
)

// levelOrderJoin is the join's descent with every pair, item pairs
// included, decided in a QualPairs level of its own — the order algorithm
// JOIN had before childless pairs were decided where they are formed. It
// issues exactly the Θ evaluations core.Join does (the second pass is
// skipped under a technical b that no child qualified for), only later, and
// reads every node it examines, as core.Join did before an item's page was
// read only for θ; θ evaluates what the readers returned for the pair. It is
// written for index trees of equal height alone: a node with children must
// be technical and is never paired with an item, so no SELECT pass ever
// descends.
func levelOrderJoin(t *testing.T, trR, trS core.Tree, op pred.Operator,
	readR, readS core.Reader) (matches []core.Match, filterEvals, itemPairs int64) {

	t.Helper()
	var dstA, dstB, dstChild geom.Rect
	read := func(f core.Reader, n core.Node, dst *geom.Rect) geom.Spatial {
		v, err := f(n, dst)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	type pair struct{ a, b core.Node }
	for qual := []pair{{trR.Root(), trS.Root()}}; len(qual) > 0; {
		var next []pair
		for _, p := range qual {
			a, b := p.a, p.b
			ra, tupleA := a.Tuple()
			sb, tupleB := b.Tuple()
			if tupleA != tupleB || tupleA != (a.NumChildren() == 0) || tupleB != (b.NumChildren() == 0) {
				t.Fatal("levelOrderJoin: not a pair of technical nodes or a pair of items")
			}
			if tupleA {
				itemPairs++
			}
			objA := read(readR, a, &dstA)
			objB := read(readS, b, &dstB)
			filterEvals++
			if !op.Filter(a.Bounds(), b.Bounds()) {
				continue
			}
			if tupleA && tupleB && op.Eval(objA, objB) {
				matches = append(matches, core.Match{R: ra, S: sb})
			}
			var aPass, bPass []core.Node
			for j := 0; j < b.NumChildren(); j++ {
				b2 := b.Child(j)
				read(readS, b2, &dstChild)
				filterEvals++
				if op.Filter(a.Bounds(), b2.Bounds()) {
					bPass = append(bPass, b2)
				}
			}
			if !tupleB && len(bPass) == 0 {
				continue
			}
			for i := 0; i < a.NumChildren(); i++ {
				a2 := a.Child(i)
				read(readR, a2, &dstChild)
				filterEvals++
				if op.Filter(a2.Bounds(), b.Bounds()) {
					aPass = append(aPass, a2)
				}
			}
			for _, a2 := range aPass {
				for _, b2 := range bPass {
					next = append(next, pair{a2, b2})
				}
			}
		}
		qual = next
	}
	return matches, filterEvals, itemPairs
}

// maxTupleOrderJoinReads bounds what the tree join below reads now that θ
// runs on a level's pairs of items after its Θ filter, in (R, S) tuple-ID
// order: 3,081 pages. It read 3,648 when θ ran on each pair of items as the
// level formed it, and 10,635 when every examined item was touched before
// its Θ filter.
const maxTupleOrderJoinReads = 3200

// TestTreeJoinDecidesItemPairsWhileTheirPagesAreResident is the locality
// pin of the tree join over two R-tree collections behind a 16-frame pool.
// Against the level-order walk above, which reads every node it examines,
// through the same pool dropped before each run, the join returns the same
// matches from the same Θ count; it reads at most a third of the walk's
// pages, because an item's page is read only when θ reads the item, and at
// most maxTupleOrderJoinReads, because θ reads the items in heap order. Traced, the join has no item level and its
// per-level reads sum to Stats.PageReads. And the reads are exactly θ's
// operands: two per θ evaluation, none of a technical node.
func TestTreeJoinDecidesItemPairsWhileTheirPagesAreResident(t *testing.T) {
	opts := rtree.DefaultOptions()
	pool := newPool(t, 16)
	rng := rand.New(rand.NewSource(5))
	world := geom.NewRect(0, 0, 1000, 1000)
	rTab, rTree := newRTreeTable(t, pool, rng, "r", 2000, world, opts)
	sTab, sTree := newRTreeTable(t, pool, rng, "s", 2000, world, opts)
	if rTree.Height() != sTree.Height() {
		t.Fatalf("heights %d and %d: item pairs form only between trees of equal height",
			rTree.Height(), sTree.Height())
	}
	op := pred.Overlaps{}
	misses := func() int64 { return pool.Stats().Misses }
	drop := func() {
		if err := pool.DropAll(); err != nil {
			t.Fatal(err)
		}
	}

	drop()
	before := misses()
	want, wantEvals, itemPairs := levelOrderJoin(t, rTree, sTree, op, rTab.Reader(), sTab.Reader())
	walkReads := misses() - before

	drop()
	ctx, trace := obs.WithTrace(context.Background())
	got, stats, err := TreeJoin(ctx, rTree, rTab, sTree, sTab, op, 1)
	if err != nil {
		t.Fatal(err)
	}
	equalMatchSets(t, "tree join vs level-order walk", got, want)
	if stats.FilterEvals != wantEvals {
		t.Errorf("FilterEvals = %d, the level-order walk evaluated %d", stats.FilterEvals, wantEvals)
	}
	if stats.PageReads*3 > walkReads {
		t.Errorf("tree join read %d pages, the level-order walk %d: want at most a third",
			stats.PageReads, walkReads)
	}
	if stats.PageReads > maxTupleOrderJoinReads {
		t.Errorf("tree join read %d pages, want at most %d: θ must read its items in tuple order",
			stats.PageReads, maxTupleOrderJoinReads)
	}
	t.Logf("reads: join %d, level-order walk %d; %d item pairs, %d θ evaluations",
		stats.PageReads, walkReads, itemPairs, stats.ExactEvals)
	levels := trace.SpansNamed("level")
	if len(levels) != rTree.Height() {
		t.Errorf("%d level spans, want %d: the item depth gets no level", len(levels), rTree.Height())
	}
	var levelReads int64
	for _, sp := range levels {
		r, _ := sp.IntAttr("reads")
		levelReads += r
	}
	if levelReads != stats.PageReads {
		t.Errorf("level reads sum to %d, PageReads = %d", levelReads, stats.PageReads)
	}

	var touches, technical int64
	count := func(read core.Reader) core.Reader {
		return func(n core.Node, dst *geom.Rect) (geom.Spatial, error) {
			touches++
			if _, ok := n.Tuple(); !ok {
				technical++
			}
			return read(n, dst)
		}
	}
	res, err := core.Join(rTree, sTree, op, &core.JoinOptions{ReadR: count(rTab.Reader()), ReadS: count(sTab.Reader())})
	if err != nil {
		t.Fatal(err)
	}
	if touches != 2*res.Stats.ExactEvals || technical != 0 {
		t.Errorf("%d touches (%d of technical nodes), want 2 × %d θ evaluations and none technical",
			touches, technical, res.Stats.ExactEvals)
	}
}
