package rtree

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/pred"
)

// readRect is the reader of a rectangle-only test tree: a rectangle is its
// own MBR, so the tuple an item references is the rectangle it stores.
func readRect(n core.Node, dst *geom.Rect) (geom.Spatial, error) {
	*dst = n.Bounds()
	return dst, nil
}

func TestAdapterEmptyTree(t *testing.T) {
	tr := MustNew(DefaultOptions())
	gt := tr.Generalization()
	if gt.Root() != nil {
		t.Fatal("empty R-tree must adapt to nil root")
	}
	if gt.Height() != 0 {
		t.Fatalf("empty height = %d", gt.Height())
	}
}

func TestAdapterStructure(t *testing.T) {
	tr := MustNew(Options{MinEntries: 2, MaxEntries: 4})
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 100; i++ {
		tr.Insert(randRect(rng, 100), i)
	}
	gt := tr.Generalization()
	if gt.Height() != tr.Height()+1 {
		t.Fatalf("adapter height %d, rtree height %d", gt.Height(), tr.Height())
	}
	// Interior nodes are technical; leaves carry the 100 tuples exactly once.
	tuples := make(map[int]int)
	interior := 0
	core.Walk(gt, func(n core.Node, _ int) bool {
		if id, ok := n.Tuple(); ok {
			tuples[id]++
			if n.NumChildren() != 0 {
				t.Fatal("item nodes must be leaves")
			}
		} else {
			interior++
		}
		return true
	})
	if len(tuples) != 100 {
		t.Fatalf("adapter exposes %d tuples, want 100", len(tuples))
	}
	for id, c := range tuples {
		if c != 1 {
			t.Fatalf("tuple %d appears %d times", id, c)
		}
	}
	if interior == 0 {
		t.Fatal("no technical nodes found")
	}
}

func TestAdapterContainmentInvariant(t *testing.T) {
	// The adapter must be a valid generalization tree: children inside
	// parents.
	tr := MustNew(Options{MinEntries: 1, MaxEntries: 4})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		tr.Insert(randRect(rng, 500), i)
	}
	var check func(n core.Node) bool
	check = func(n core.Node) bool {
		for i := 0; i < n.NumChildren(); i++ {
			c := n.Child(i)
			if !n.Bounds().ContainsRect(c.Bounds()) {
				t.Fatalf("child %v escapes parent %v", c.Bounds(), n.Bounds())
			}
			if !check(c) {
				return false
			}
		}
		return true
	}
	check(tr.Generalization().Root())
}

func TestSelectOverRTree(t *testing.T) {
	tr := MustNew(Options{MinEntries: 2, MaxEntries: 6})
	rng := rand.New(rand.NewSource(12))
	var rects []geom.Rect
	for i := 0; i < 300; i++ {
		r := randRect(rng, 400)
		rects = append(rects, r)
		tr.Insert(r, i)
	}
	query := geom.NewRect(100, 100, 180, 180)
	res, err := core.Select(tr.Generalization(), query, pred.Overlaps{}, &core.SelectOptions{Read: readRect})
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i, r := range rects {
		if r.Intersects(query) {
			want = append(want, i)
		}
	}
	got := append([]int(nil), res.Tuples...)
	sort.Ints(got)
	if len(got) != len(want) {
		t.Fatalf("core.Select over R-tree: %d hits, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("hit set mismatch")
		}
	}
	// Pruning must make the hierarchical select cheaper than exhaustive.
	if res.Stats.NodesExamined >= int64(core.CountNodes(tr.Generalization())) {
		t.Fatalf("select examined all %d nodes — no pruning", res.Stats.NodesExamined)
	}
}

func TestJoinOverTwoRTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	trA := MustNew(Options{MinEntries: 2, MaxEntries: 5})
	trB := MustNew(Options{MinEntries: 2, MaxEntries: 4})
	var as, bs []geom.Rect
	for i := 0; i < 120; i++ {
		a := randRect(rng, 200)
		b := randRect(rng, 200)
		as = append(as, a)
		bs = append(bs, b)
		trA.Insert(a, i)
		trB.Insert(b, i)
	}
	res, err := core.Join(trA.Generalization(), trB.Generalization(), pred.Overlaps{},
		&core.JoinOptions{ReadR: readRect, ReadS: readRect})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, a := range as {
		for _, b := range bs {
			if a.Intersects(b) {
				want++
			}
		}
	}
	if len(res.Pairs) != want {
		t.Fatalf("join found %d pairs, brute force %d", len(res.Pairs), want)
	}
	seen := make(map[core.Match]bool)
	for _, m := range res.Pairs {
		if seen[m] {
			t.Fatalf("duplicate pair %+v", m)
		}
		seen[m] = true
	}
}

func TestAdapterIsLiveView(t *testing.T) {
	tr := MustNew(DefaultOptions())
	gt := tr.Generalization()
	tr.Insert(geom.NewRect(0, 0, 1, 1), 0)
	if gt.Root() == nil {
		t.Fatal("adapter must see the insert")
	}
	res, err := core.Select(gt, geom.NewRect(0, 0, 2, 2), pred.Overlaps{}, &core.SelectOptions{Read: readRect})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("live view select found %d", len(res.Tuples))
	}
}

// TestJoinWorkGuardOnRTrees pins the work of algorithm JOIN over two R-tree
// adapters, whose interior nodes are all technical. JOIN4 over a passing
// pair restricts first the children of the node with the larger MBR (b's
// on a tie) against the other node; the other node's children are not
// tested when none passed, are crossed untested with a single pass, and
// are otherwise restricted against the union of the passes; and a pair of
// items is decided by the level that formed it instead of being queued. So
// level j evaluates Θ once per QualPairs entry, once per child restricted,
// and once per item pair it forms — and the item level has no QualPairs
// of its own.
// An R-tree node only references its tuple, so the readers are called at
// the item depth alone, for θ: with no pages given, a level's refinement is
// one block, which reads each distinct item of a θ candidate once per
// side; a Θ test reads nothing. The expectation comes
// from an independent level-by-level walk that has no SELECT pass at all;
// the test fails if the pass descends where no result can come from, if the
// restrictions take another order or rectangle, or run for nothing, if
// item pairs get a level to themselves, if
// a node is read for its Θ filter, or if the trace holds anything but
// the level spans (a span or event per pair).
func TestJoinWorkGuardOnRTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	trA := MustNew(Options{MinEntries: 2, MaxEntries: 6})
	trB := MustNew(Options{MinEntries: 2, MaxEntries: 6})
	for i := 0; i < 600; i++ {
		trA.Insert(randRect(rng, 300), i)
		trB.Insert(randRect(rng, 300), i)
	}
	if trA.Height() != trB.Height() || trA.Height() < 3 {
		t.Fatalf("heights %d and %d: the count below needs equal heights ≥ 3", trA.Height(), trB.Height())
	}
	ga, gb := trA.Generalization(), trB.Generalization()
	op := pred.Overlaps{}

	// The reference walk: QualPairs level by level, counting what a guarded
	// descent must do at each.
	type pair struct{ a, b core.Node }
	var wantQual, wantEvals []int64    // per level
	var wantTouchA, wantTouchB []int64 // per node depth
	var wantExact int64
	bump := func(s *[]int64, i int, by int64) {
		if by == 0 {
			return
		}
		for len(*s) <= i {
			*s = append(*s, 0)
		}
		(*s)[i] += by
	}
	children := func(n core.Node) []core.Node {
		var cs []core.Node
		for i := 0; i < n.NumChildren(); i++ {
			cs = append(cs, n.Child(i))
		}
		return cs
	}
	// restrict evaluates Θ between each of cs and against, R-side first,
	// and returns the nodes that passed and the union of their MBRs.
	restrict := func(level int, cs []core.Node, against geom.Rect, csAreR bool) ([]core.Node, geom.Rect) {
		var pass []core.Node
		var u geom.Rect
		for _, c := range cs {
			bump(&wantEvals, level, 1)
			r, s := against, c.Bounds()
			if csAreR {
				r, s = s, r
			}
			if !op.Filter(r, s) {
				continue
			}
			if len(pass) == 0 {
				u = c.Bounds()
			} else {
				u = u.Union(c.Bounds())
			}
			pass = append(pass, c)
		}
		return pass, u
	}
	for level, qual := 0, []pair{{ga.Root(), gb.Root()}}; len(qual) > 0; level++ {
		bump(&wantQual, level, int64(len(qual)))
		var next []pair
		candA, candB := map[core.Node]bool{}, map[core.Node]bool{}
		for _, p := range qual {
			bump(&wantEvals, level, 1)
			if !op.Filter(p.a.Bounds(), p.b.Bounds()) {
				continue
			}
			// JOIN4 over two technical nodes: the children of the larger
			// MBR (b's on a tie) against the other node, then the other's
			// children against the union of those passes, or, after a
			// single pass, all of them crossed with it untested.
			as, bs := children(p.a), children(p.b)
			var aPass, bPass []core.Node
			if p.a.Bounds().Area() > p.b.Bounds().Area() {
				var u geom.Rect
				aPass, u = restrict(level, as, p.b.Bounds(), true)
				switch len(aPass) {
				case 0:
					continue
				case 1:
					bPass = bs
				default:
					bPass, _ = restrict(level, bs, u, false)
				}
			} else {
				var u geom.Rect
				bPass, u = restrict(level, bs, p.a.Bounds(), false)
				switch len(bPass) {
				case 0:
					continue // a's children are not examined
				case 1:
					aPass = as
				default:
					aPass, _ = restrict(level, as, u, true)
				}
			}
			for _, a2 := range aPass {
				for _, b2 := range bPass {
					if a2.NumChildren() > 0 || b2.NumChildren() > 0 {
						next = append(next, pair{a2, b2})
						continue
					}
					// An item pair: its Θ belongs to this level, and only
					// its θ reads the two items.
					bump(&wantEvals, level, 1)
					if op.Filter(a2.Bounds(), b2.Bounds()) {
						wantExact++
						candA[a2], candB[b2] = true, true
					}
				}
			}
		}
		bump(&wantTouchA, level+1, int64(len(candA)))
		bump(&wantTouchB, level+1, int64(len(candB)))
		qual = next
	}
	if len(wantQual) != ga.Height() {
		t.Fatalf("reference walk has %d levels, want %d: every depth but the items'", len(wantQual), ga.Height())
	}

	depthOf := func(tree core.Tree) map[core.Node]int {
		m := map[core.Node]int{}
		core.Walk(tree, func(n core.Node, level int) bool { m[n] = level; return true })
		return m
	}
	depthA, depthB := depthOf(ga), depthOf(gb)
	var gotTouchA, gotTouchB []int64
	trace := obs.NewTrace()
	res, err := core.Join(ga, gb, op, &core.JoinOptions{
		ReadR: func(n core.Node, dst *geom.Rect) (geom.Spatial, error) {
			bump(&gotTouchA, depthA[n], 1)
			return readRect(n, dst)
		},
		ReadS: func(n core.Node, dst *geom.Rect) (geom.Spatial, error) {
			bump(&gotTouchB, depthB[n], 1)
			return readRect(n, dst)
		},
		Trace: trace,
	})
	if err != nil {
		t.Fatal(err)
	}

	var sumEvals, maxQual int64
	for level, q := range wantQual {
		sumEvals += wantEvals[level]
		maxQual = max(maxQual, q)
	}
	if res.Stats.FilterEvals != sumEvals {
		t.Errorf("FilterEvals = %d, want %d (Σ|QualPairs| + children examined + item pairs)",
			res.Stats.FilterEvals, sumEvals)
	}
	if res.Stats.ExactEvals != wantExact {
		t.Errorf("ExactEvals = %d, want %d (item pairs whose Θ passed)", res.Stats.ExactEvals, wantExact)
	}
	if int64(res.Stats.MaxQueue) != maxQual {
		t.Errorf("MaxQueue = %d, want %d", res.Stats.MaxQueue, maxQual)
	}
	spans := trace.SpansNamed("level")
	if len(spans) != len(wantQual) || len(trace.Spans()) != len(wantQual) || len(trace.Events()) != 0 {
		t.Fatalf("%d level spans of %d, %d events; want %d level spans and nothing else",
			len(spans), len(trace.Spans()), len(trace.Events()), len(wantQual))
	}
	for level, sp := range spans {
		if q, _ := sp.IntAttr("qualpairs"); q != wantQual[level] {
			t.Errorf("level %d: qualpairs = %d, want %d", level, q, wantQual[level])
		}
		if e, _ := sp.IntAttr("filter_evals"); e != wantEvals[level] {
			t.Errorf("level %d: filter_evals = %d, want %d", level, e, wantEvals[level])
		}
	}
	if !slices.Equal(gotTouchA, wantTouchA) {
		t.Errorf("ReadR per node depth = %v, want %v", gotTouchA, wantTouchA)
	}
	if !slices.Equal(gotTouchB, wantTouchB) {
		t.Errorf("ReadS per node depth = %v, want %v", gotTouchB, wantTouchB)
	}
}
