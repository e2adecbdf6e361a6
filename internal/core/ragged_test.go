package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/pred"
	"spatialjoin/internal/rtree"
)

// exhaustiveJoin is the reference result: θ over every pair of
// tuple-bearing nodes, (R, S)-sorted.
func exhaustiveJoin(tr, ts core.Tree, op pred.Operator) []core.Match {
	tuples := func(t core.Tree) (ns []core.Node) {
		core.Walk(t, func(n core.Node, _ int) bool {
			if _, ok := n.Tuple(); ok {
				ns = append(ns, n)
			}
			return true
		})
		return ns
	}
	var out []core.Match
	for _, a := range tuples(tr) {
		for _, b := range tuples(ts) {
			if op.Eval(a.Object(), b.Object()) {
				ra, _ := a.Tuple()
				sb, _ := b.Tuple()
				out = append(out, core.Match{R: ra, S: sb})
			}
		}
	}
	core.SortMatches(out)
	return out
}

// TestJoinChildlessAgainstDeepTrees joins shallow trees against deep ones.
// A childless node paired with a node that has children is not a pair to
// decide on the spot: it must still be queued (when a cross forms it) or
// expanded (when it is the root pair), and its SELECT pass must still
// descend — including the second pass under a childless, tuple-bearing b,
// whose first pass has nothing to qualify. A one-node tree and a root with
// childless children meet a cartographic hierarchy (every node a tuple) and
// an R-tree (technical interior nodes) on either side, under every Table 1
// operator, and must return the exhaustive result.
func TestJoinChildlessAgainstDeepTrees(t *testing.T) {
	world := geom.NewRect(0, 0, 100, 100)
	oneNode := core.NewBasicTree(core.NewBasicNode(geom.NewRect(30, 30, 70, 70), 0))
	root := core.NewBasicNode(geom.NewRect(10, 10, 90, 90), 0)
	root.AddChild(core.NewBasicNode(geom.NewRect(10, 10, 50, 50), 1))
	root.AddChild(core.NewBasicNode(geom.NewRect(40, 40, 90, 90), 2))
	root.AddChild(core.NewBasicNode(geom.NewRect(60, 12, 64, 16), 3))
	twoLevels := core.NewBasicTree(root)

	m, _, err := datagen.GenerateMap(rand.New(rand.NewSource(7)),
		datagen.MapSpec{World: world, Countries: 4, StatesPerCountry: 3, CitiesPerState: 5})
	if err != nil {
		t.Fatal(err)
	}
	rt := rtree.MustNew(rtree.Options{MinEntries: 2, MaxEntries: 4})
	for i, r := range datagen.UniformRects(rand.New(rand.NewSource(8)), 200, world, 1, 12) {
		rt.Insert(r, i)
	}

	matches := 0
	shallow := map[string]core.Tree{"one node": oneNode, "two levels": twoLevels}
	deep := map[string]core.Tree{"carto": m.Tree(), "rtree": rt.Generalization()}
	for sName, s := range shallow {
		for dName, d := range deep {
			for _, op := range pred.Table1() {
				for _, c := range []struct {
					name   string
					tr, ts core.Tree
				}{
					{sName + " ⋈ " + dName, s, d},
					{dName + " ⋈ " + sName, d, s},
				} {
					res, err := core.Join(c.tr, c.ts, op, &core.JoinOptions{ReadR: readRect, ReadS: readRect})
					if err != nil {
						t.Fatalf("%s %s: %v", c.name, op.Name(), err)
					}
					core.SortMatches(res.Pairs)
					matches += len(res.Pairs)
					if want := exhaustiveJoin(c.tr, c.ts, op); !slices.Equal(res.Pairs, want) {
						t.Errorf("%s %s: %d matches, exhaustive reference has %d",
							c.name, op.Name(), len(res.Pairs), len(want))
					}
				}
			}
		}
	}
	if matches == 0 {
		t.Fatal("no case matched anything; the comparison is vacuous")
	}
}
