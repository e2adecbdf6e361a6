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
// The adapter is a live view: it reflects subsequent inserts. A node view
// is a pointer to its record and an item view a pointer to its leaf slot,
// so either boxes into a core.Node without allocating, and either's bounds
// are one load: the record's rectangle or the slot's. A child's node number
// resolves through the record's back-pointer to its tree. Like any iterator
// over the tree, views are invalidated by a mutation.
func (t *Tree) Generalization() core.Tree { return adapterTree{t: t} }

type adapterTree struct{ t *Tree }

// Root implements core.Tree.
func (a adapterTree) Root() core.Node {
	if a.t.size == 0 {
		return nil
	}
	return nodeView{r: a.t.root}
}

// Height implements core.Tree: R-tree levels plus the item level.
func (a adapterTree) Height() int {
	if a.t.size == 0 {
		return 0
	}
	return a.t.height + 1
}

// nodeView adapts one record, an R-tree node: a technical entity, whose
// bounds and object are its MBR and whose children are the records its
// slots name or, in a leaf record, its items.
type nodeView struct{ r *record }

func (v nodeView) Bounds() geom.Rect    { return v.r.rect }
func (v nodeView) Object() geom.Spatial { return v.r.rect }
func (v nodeView) Tuple() (int, bool)   { return 0, false }
func (v nodeView) NumChildren() int     { return int(v.r.count) }
func (v nodeView) ContainsTuple() bool  { return false }

func (v nodeView) Child(i int) core.Node {
	s := &v.r.slots()[i]
	if v.r.leaf {
		return itemView{s: s}
	}
	return nodeView{r: v.r.tree.rec(s.ref)}
}

// itemView adapts one leaf slot, a stored item: its bounds and object are
// its MBR and its tuple is the slot's ID. A leaf slot stores only those, so
// Θ never needs the item's tuple and θ reads it from the heap
// (ContainsTuple is false).
type itemView struct{ s *slot }

func (v itemView) Bounds() geom.Rect    { return v.s.rect }
func (v itemView) Object() geom.Spatial { return v.s.rect }
func (v itemView) Tuple() (int, bool)   { return v.s.ref, true }
func (v itemView) NumChildren() int     { return 0 }
func (v itemView) Child(int) core.Node  { panic("rtree: an item has no children") }
func (v itemView) ContainsTuple() bool  { return false }
