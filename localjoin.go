package spatialjoin

import (
	"fmt"

	"spatialjoin/internal/localindex"
	"spatialjoin/internal/pred"
)

// Direction identifies a compass quadrant for the directional operators.
type Direction = pred.Direction

// Compass quadrants for DirectionOf.
const (
	DirNorthwest = pred.Northwest
	DirNortheast = pred.Northeast
	DirSouthwest = pred.Southwest
	DirSoutheast = pred.Southeast
)

// DirectionOf returns the generalized "o₁ to the <direction> of o₂"
// operator (the paper's Figure 5 construction, rotated to any quadrant).
// DirectionOf(DirNorthwest) is equivalent to NorthwestOf().
func DirectionOf(d Direction) Operator { return pred.DirectionOf{Dir: d} }

// LocalJoinIndex is the paper's §5 extension: per-subtree join indices
// anchored at a level λ of one collection's R-tree, mixing strategy II
// (live hierarchical descent for subtree-spanning pairs) with strategy III
// (precomputed lookup for intra-subtree pairs).
//
// The index is a snapshot of the collection at build time: inserting into
// the collection afterwards does NOT maintain it (the R-tree may
// restructure arbitrarily); rebuild after modifications.
type LocalJoinIndex struct {
	c  *Collection
	op Operator
	ix *localindex.Index
}

// BuildLocalJoinIndex precomputes local join indices for the self-join
// c ⋈θ c, anchored at the given level of c's R-tree generalization view
// (level 0 = root = one global index; levels past the leaves = pure tree
// join).
func (db *Database) BuildLocalJoinIndex(c *Collection, op Operator, level int) (*LocalJoinIndex, error) {
	if c == nil || op == nil {
		return nil, fmt.Errorf("spatialjoin: nil local-index argument")
	}
	ix, _, err := localindex.Build(c.index.Generalization(), op, level, db.cfg.JoinIndexOrder,
		c.table.Reader(nil))
	if err != nil {
		return nil, err
	}
	return &LocalJoinIndex{c: c, op: op, ix: ix}, nil
}

// Level returns the anchor level λ.
func (l *LocalJoinIndex) Level() int { return l.ix.Level() }

// Anchors returns the number of per-subtree indices.
func (l *LocalJoinIndex) Anchors() int { return l.ix.Anchors() }

// StoredPairs returns the number of precomputed pairs across all anchors.
func (l *LocalJoinIndex) StoredPairs() int { return l.ix.Pairs() }

// SelfJoin computes the full self-join of the collection: intra-subtree
// pairs from the anchors, spanning pairs live.
func (l *LocalJoinIndex) SelfJoin() ([]Match, Stats, error) {
	pairs, st, err := l.ix.SelfJoin()
	if err != nil {
		return nil, Stats{}, err
	}
	return pairs, Stats{
		FilterEvals: st.FilterEvals,
		ExactEvals:  st.ExactEvals,
		IndexReads:  st.IndexReads,
	}, nil
}
