package rtree

import (
	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
)

// Generalization adapts the R-tree to the core.Tree interface so the
// hierarchical SELECT and JOIN algorithms can run over it. Interior R-tree
// nodes appear as technical nodes (no tuple); each stored item appears as a
// leaf node carrying its MBR and tuple ID. An item only references its
// tuple, so θ's operand is read from the tuple through the executor's
// reader (core.Node.ContainsTuple), not from the tree.
//
// The adapter is a live view: it reflects subsequent inserts.
// A node of the generalization tree is one entry of the R-tree — the root's
// entry, a child entry of an interior node, or an item slot of a leaf — so
// the view is a single pointer (boxing it into a core.Node allocates
// nothing) and its bounds are the entry's rectangle, a load. Like any
// iterator over the tree, views are invalidated by a mutation.
func (t *Tree) Generalization() core.Tree { return adapterTree{t: t} }

type adapterTree struct{ t *Tree }

// Root implements core.Tree.
func (a adapterTree) Root() core.Node {
	if a.t.size == 0 {
		return nil
	}
	return entryView{e: &a.t.top}
}

// Height implements core.Tree: R-tree levels plus the item level.
func (a adapterTree) Height() int {
	if a.t.size == 0 {
		return 0
	}
	return a.t.height + 1
}

// entryView adapts one entry: with a child it stands for that R-tree node
// (a technical entity), without one for the stored item.
type entryView struct{ e *entry }

// Bounds implements core.Node.
func (v entryView) Bounds() geom.Rect { return v.e.rect }

// Object implements core.Node: every entry stores only its MBR.
func (v entryView) Object() geom.Spatial { return v.e.rect }

// Tuple implements core.Node: only items carry tuples.
func (v entryView) Tuple() (int, bool) { return v.e.id, v.e.child == nil }

// NumChildren implements core.Node.
func (v entryView) NumChildren() int {
	if v.e.child == nil {
		return 0
	}
	return len(v.e.child.entries)
}

// Child implements core.Node.
func (v entryView) Child(i int) core.Node { return entryView{e: &v.e.child.entries[i]} }

// ContainsTuple implements core.Node: a leaf entry stores an item's MBR and
// tuple ID, so Θ never needs its tuple; θ reads it from the tuple.
func (v entryView) ContainsTuple() bool { return false }
