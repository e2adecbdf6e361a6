// Package localindex implements the extension Günther sketches in his
// conclusions (§5): local join indices — precomputed join results "between
// objects that are indexed by the same generalization tree and have some
// ancestor in common. This extension can be viewed as a mixture between the
// pure generalization trees (strategy II) and pure join indices (strategy
// III)".
//
// An Index anchors one small join index at every node of a chosen level λ
// of the tree: the anchor at node v precomputes all matching pairs whose
// members both lie in v's subtree (equivalently, whose lowest common
// ancestor is at level ≥ λ). A self-join then answers intra-subtree pairs
// by index lookup and computes only the subtree-spanning pairs (lca above
// λ) with the hierarchical JOIN descent. Updates touch a single anchor —
// one subtree's worth of evaluations instead of strategy III's full
// relation scan.
//
// λ interpolates between the pure strategies: λ = 0 is one global join
// index (III); λ > height(tree) stores nothing and degenerates to the pure
// tree join (II).
package localindex

import (
	"fmt"
	"slices"

	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/joinindex"
	"spatialjoin/internal/pred"
)

// Stats describes the work of building, querying or maintaining a local
// index, in the cost model's units.
type Stats struct {
	// FilterEvals and ExactEvals count Θ and θ evaluations of the live
	// (tree-descent) part.
	FilterEvals int64
	ExactEvals  int64
	// IndexReads counts join-index pages touched (⌈pairs/z⌉ per anchor
	// consulted).
	IndexReads int64
}

// Cost collapses the stats into time units.
func (s Stats) Cost(cTheta, cIO float64) float64 {
	return cTheta*float64(s.FilterEvals+s.ExactEvals) + cIO*float64(s.IndexReads)
}

// anchor is one level-λ node with its precomputed intra-subtree pairs.
// path is the node's child-index path from the root ("2.0.3"), the identity
// key the self-join descent uses — interface values are never compared, so
// nodes carrying slice-backed geometries are safe.
type anchor struct {
	node core.Node
	path string
	ix   *joinindex.Index
}

// Index is a set of local join indices anchored at level λ of one
// generalization tree, for one θ-operator and a self-join of the indexed
// relation.
type Index struct {
	tree    core.Tree
	op      pred.Operator
	level   int
	anchors []anchor
}

// subtree adapts a node as a core.Tree rooted at it.
type subtree struct{ root core.Node }

// Root implements core.Tree.
func (s subtree) Root() core.Node { return s.root }

// Height implements core.Tree; algorithm JOIN terminates on empty
// worklists, so an upper bound is unnecessary and 0 is fine.
func (s subtree) Height() int { return 0 }

// Build constructs the local indices: one per level-λ node, each filled by
// a hierarchical self-join of that node's subtree. order is the B+-tree
// order z of each local index.
func Build(tree core.Tree, op pred.Operator, level, order int) (*Index, Stats, error) {
	var stats Stats
	if tree == nil || op == nil {
		return nil, stats, fmt.Errorf("localindex: nil tree or operator")
	}
	if level < 0 {
		return nil, stats, fmt.Errorf("localindex: negative anchor level %d", level)
	}
	idx := &Index{tree: tree, op: op, level: level}
	type entry struct {
		node core.Node
		path string
	}
	var nodes []entry
	var collect func(n core.Node, depth int, path string)
	collect = func(n core.Node, depth int, path string) {
		if depth == level {
			nodes = append(nodes, entry{node: n, path: path})
			return
		}
		for i, k := 0, n.NumChildren(); i < k; i++ {
			collect(n.Child(i), depth+1, childPath(path, i))
		}
	}
	if root := tree.Root(); root != nil {
		collect(root, 0, "")
	}
	for _, v := range nodes {
		res, err := core.Join(subtree{v.node}, subtree{v.node}, op, nil)
		if err != nil {
			return nil, stats, err
		}
		stats.FilterEvals += res.Stats.FilterEvals
		stats.ExactEvals += res.Stats.ExactEvals
		ji, err := joinindex.New(order)
		if err != nil {
			return nil, stats, err
		}
		for _, m := range res.Pairs {
			if _, err := ji.Add(m.R, m.S); err != nil {
				return nil, stats, err
			}
		}
		idx.anchors = append(idx.anchors, anchor{node: v.node, path: v.path, ix: ji})
	}
	return idx, stats, nil
}

// childPath extends a child-index path by one step.
func childPath(path string, i int) string {
	if path == "" {
		return fmt.Sprint(i)
	}
	return path + "." + fmt.Sprint(i)
}

// Level returns the anchor level λ.
func (ix *Index) Level() int { return ix.level }

// Anchors returns the number of local indices.
func (ix *Index) Anchors() int { return len(ix.anchors) }

// Pairs returns the total number of precomputed pairs across all anchors.
func (ix *Index) Pairs() int {
	total := 0
	for _, a := range ix.anchors {
		total += a.ix.Len()
	}
	return total
}

// SelfJoin computes the full self-join R ⋈θ R: spanning pairs (lowest
// common ancestor above λ) by hierarchical descent, intra-subtree pairs by
// local-index lookup. The descent is algorithm JOIN's level loop with one
// change — an identity pair at level λ is answered from its anchor — and
// its JOIN4 SELECT passes are core's own, accumulating into a
// core.JoinResult whose counts become the returned Stats.
func (ix *Index) SelfJoin() (_ []core.Match, stats Stats, _ error) {
	var live core.JoinResult
	var opts core.JoinOptions
	defer func() {
		stats.FilterEvals, stats.ExactEvals = live.Stats.FilterEvals, live.Stats.ExactEvals
	}()

	byPath := make(map[string]*joinindex.Index, len(ix.anchors))
	for _, a := range ix.anchors {
		byPath[a.path] = a.ix
	}

	root := ix.tree.Root()
	if root == nil {
		return nil, stats, nil
	}
	// same marks identity pairs (both members the same node), tracked
	// structurally so interface values are never compared; path is the
	// identity pair's child-index path, the anchor lookup key.
	type pair struct {
		a, b core.Node
		same bool
		path string
	}
	qual := []pair{{a: root, b: root, same: true, path: ""}}
	// Per-pair scratch, reused across pairs: which children of each side
	// passed their Θ check.
	var aQual, bQual []bool
	depth := 0
	for len(qual) > 0 {
		var next []pair
		for _, p := range qual {
			a, b := p.a, p.b
			// Identity pair at the anchor level: answer from the local
			// index; prune the descent entirely.
			if depth == ix.level && p.same {
				ji, ok := byPath[p.path]
				if !ok {
					return nil, stats, fmt.Errorf("localindex: missing anchor at level %d", depth)
				}
				ji.AllPairs(func(r, s int) bool {
					live.Pairs = append(live.Pairs, core.Match{R: r, S: s})
					return true
				})
				stats.IndexReads += ji.Pages()
				continue
			}
			live.Stats.FilterEvals++
			if !ix.op.Filter(a.Bounds(), b.Bounds()) {
				continue
			}
			if ra, okA := a.Tuple(); okA {
				if sb, okB := b.Tuple(); okB {
					live.Stats.ExactEvals++
					if ix.op.Eval(a.Object(), b.Object()) {
						live.Pairs = append(live.Pairs, core.Match{R: ra, S: sb})
					}
				}
			}
			na, nb := a.NumChildren(), b.NumChildren()
			// JOIN4: SELECT a against b's subtrees, and b against a's.
			bQual = slices.Grow(bQual[:0], nb)[:nb]
			for j := range bQual {
				ok, err := core.JoinSelect(a, b.Child(j), ix.op, core.MovingS, &opts, &live)
				if err != nil {
					return nil, stats, err
				}
				bQual[j] = ok
			}
			aQual = slices.Grow(aQual[:0], na)[:na]
			for i := range aQual {
				ok, err := core.JoinSelect(b, a.Child(i), ix.op, core.MovingR, &opts, &live)
				if err != nil {
					return nil, stats, err
				}
				aQual[i] = ok
			}
			for i := range aQual {
				if !aQual[i] {
					continue
				}
				for j := range bQual {
					if !bQual[j] {
						continue
					}
					np := pair{a: a.Child(i), b: b.Child(j)}
					if p.same && i == j {
						np.same = true
						np.path = childPath(p.path, i)
					}
					next = append(next, np)
				}
			}
		}
		qual = next
		depth++
	}
	return live.Pairs, stats, nil
}

// AnchorFor returns the index of the anchor whose subtree region contains
// r, or ok = false when r escapes every anchor (it then only participates
// in spanning pairs computed live).
func (ix *Index) AnchorFor(r geom.Rect) (int, bool) {
	for i, a := range ix.anchors {
		if a.node.Bounds().ContainsRect(r) {
			return i, true
		}
	}
	return 0, false
}

// MaintainInsert updates the given anchor after a tuple-bearing node for
// (id, obj) was attached somewhere in that anchor's subtree: the new object
// is evaluated against every tuple in the subtree — including itself — in
// both operand orders. It returns the number of evaluations, the quantity
// to compare against strategy III's full-relation scan.
func (ix *Index) MaintainInsert(anchorIdx, id int, obj geom.Spatial) (int, error) {
	if anchorIdx < 0 || anchorIdx >= len(ix.anchors) {
		return 0, fmt.Errorf("localindex: anchor %d out of range", anchorIdx)
	}
	a := ix.anchors[anchorIdx]
	evals := 0
	var ferr error
	core.Walk(subtree{a.node}, func(n core.Node, _ int) bool {
		nid, ok := n.Tuple()
		if !ok {
			return true
		}
		if nid == id {
			evals++
			if ix.op.Eval(obj, obj) {
				if _, err := a.ix.Add(id, id); err != nil {
					ferr = err
					return false
				}
			}
			return true
		}
		evals += 2
		if ix.op.Eval(obj, n.Object()) {
			if _, err := a.ix.Add(id, nid); err != nil {
				ferr = err
				return false
			}
		}
		if ix.op.Eval(n.Object(), obj) {
			if _, err := a.ix.Add(nid, id); err != nil {
				ferr = err
				return false
			}
		}
		return true
	})
	return evals, ferr
}

// Validate cross-checks every anchor's index structure.
func (ix *Index) Validate() error {
	for i, a := range ix.anchors {
		if err := a.ix.Validate(); err != nil {
			return fmt.Errorf("localindex anchor %d: %w", i, err)
		}
	}
	return nil
}
