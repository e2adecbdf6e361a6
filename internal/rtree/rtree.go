// Package rtree implements Guttman's R-tree (SIGMOD 1984), the canonical
// abstract-index instance of the paper's generalization trees (Figure 2): a
// height-balanced hierarchy of nested rectangles with configurable node
// capacity. Insert descends by Guttman's ChooseLeaf and splits an
// overflowing node by the R*-tree split (Beckmann et al., SIGMOD 1990),
// which leaves less overlap between sibling rectangles, and so fewer Θ
// filters per join descent, than Guttman's quadratic split.
//
// A leaf entry is Guttman's (MBR, tuple pointer): the object's rectangle and
// its tuple ID, never the object itself, whose one copy is the stored tuple.
// Interior nodes are "technical entities of no interest to the user" (§3.1):
// when the tree is adapted to core.Tree (see Generalization), interior nodes
// expose no tuple, so the hierarchical SELECT/JOIN algorithms use them purely
// for Θ-filter pruning.
package rtree

import (
	"fmt"

	"spatialjoin/internal/geom"
)

// Options configures a Tree.
type Options struct {
	// MinEntries is Guttman's m: the minimum number of entries per node
	// (except the root). Must satisfy 1 ≤ m ≤ MaxEntries/2.
	MinEntries int
	// MaxEntries is Guttman's M: the node capacity.
	MaxEntries int
}

// DefaultOptions returns the configuration used throughout the benchmarks:
// m=2, M=8.
func DefaultOptions() Options {
	return Options{MinEntries: 2, MaxEntries: 8}
}

func (o Options) validate() error {
	if o.MaxEntries < 2 {
		return fmt.Errorf("rtree: MaxEntries %d < 2", o.MaxEntries)
	}
	if o.MinEntries < 1 || o.MinEntries > o.MaxEntries/2 {
		return fmt.Errorf("rtree: MinEntries %d out of [1, MaxEntries/2=%d]",
			o.MinEntries, o.MaxEntries/2)
	}
	return nil
}

// Item is one indexed object as a leaf entry holds it: its MBR and the ID
// of the tuple that holds its exact geometry.
type Item struct {
	Rect geom.Rect
	ID   int
}

// entry is a slot in a node: a rectangle with either a child pointer
// (interior) or the item's tuple ID (leaf).
type entry struct {
	rect  geom.Rect
	child *node
	id    int
}

// node is one R-tree node.
type node struct {
	leaf    bool
	entries []entry
	parent  *node
}

// mbr returns the tight bounding rectangle of the node's entries (the zero
// rectangle for an empty root).
func (n *node) mbr() geom.Rect {
	if len(n.entries) == 0 {
		return geom.Rect{}
	}
	r := n.entries[0].rect
	for _, e := range n.entries[1:] {
		r = r.Union(e.rect)
	}
	return r
}

// Tree is an R-tree.
type Tree struct {
	opts   Options
	root   *node
	size   int
	height int // number of levels below the root; a leaf-root tree has 0

	// top is the entry the root would have in a parent: its MBR and the
	// root itself. Every other node's MBR already sits in its parent's
	// entry, kept tight by insert; with top every node's bounds are one
	// load away, which is what a descent reads per node examined. Insert
	// grows its rectangle by each inserted one; New and BulkLoad set it
	// from the root.
	top entry

	split splitScratch
}

// refreshTop recomputes the root's entry from the root's entries.
func (t *Tree) refreshTop() { t.top = entry{rect: t.root.mbr(), child: t.root} }

// New returns an empty R-tree.
func New(opts Options) (*Tree, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	t := &Tree{opts: opts, root: &node{leaf: true}, split: newSplitScratch(opts.MaxEntries)}
	t.refreshTop()
	return t, nil
}

// MustNew is New for static configurations known to be valid; it panics on
// error.
func MustNew(opts Options) *Tree {
	t, err := New(opts)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels below the root.
func (t *Tree) Height() int { return t.height }

// Options returns the tree's configuration.
func (t *Tree) Options() Options { return t.opts }

// Bounds returns the MBR of all stored items; ok is false when empty.
func (t *Tree) Bounds() (geom.Rect, bool) {
	if t.size == 0 {
		return geom.Rect{}, false
	}
	return t.top.rect, true
}

// Insert adds an item with MBR r for the given tuple ID. It is Guttman's
// Insert: ChooseLeaf, then add the entry to the leaf. A full node splits
// into itself and a sibling, whose entry is added to the parent the same
// way; above the last split every ancestor's rectangle grows by r, the
// whole of its change.
func (t *Tree) Insert(r geom.Rect, id int) {
	if t.size == 0 {
		t.top.rect = r
	} else {
		t.top.rect = t.top.rect.Union(r)
	}
	t.size++
	n, e := t.chooseLeaf(r), entry{rect: r, id: id}
	for len(n.entries) == t.opts.MaxEntries {
		sib, nRect, sibRect := t.splitNode(n, e)
		if n == t.root {
			t.root = &node{entries: []entry{{rect: nRect, child: n}, {rect: sibRect, child: sib}}}
			n.parent, sib.parent = t.root, t.root
			t.top.child = t.root
			t.height++
			return
		}
		n.parent.entries[n.parent.indexOf(n)].rect = nRect
		sib.parent = n.parent
		n, e = n.parent, entry{rect: sibRect, child: sib}
	}
	n.entries = append(n.entries, e)
	for ; n != t.root; n = n.parent {
		pe := &n.parent.entries[n.parent.indexOf(n)]
		if pe.rect.ContainsRect(r) {
			return
		}
		pe.rect = pe.rect.Union(r)
	}
}

// indexOf returns the position of child c among n's entries.
func (n *node) indexOf(c *node) int {
	for i := range n.entries {
		if n.entries[i].child == c {
			return i
		}
	}
	panic("rtree: child missing from its parent")
}

// chooseLeaf descends to the leaf whose MBR needs the least enlargement to
// include r, breaking ties by smallest area (Guttman's CL3).
func (t *Tree) chooseLeaf(r geom.Rect) *node {
	n := t.root
	for !n.leaf {
		best := -1
		var bestEnl, bestArea float64
		for i, e := range n.entries {
			enl := e.rect.Enlargement(r)
			area := e.rect.Area()
			if best < 0 || enl < bestEnl || (geom.SameCoord(enl, bestEnl) && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		n = n.entries[best].child
	}
	return n
}

// Search calls f for every item whose rectangle intersects r, stopping early
// when f returns false. It reports the number of nodes visited, the measure
// the paper's index-supported strategies are charged by.
func (t *Tree) Search(r geom.Rect, f func(Item) bool) (nodesVisited int) {
	if t.size == 0 {
		return 0
	}
	stop := false
	t.search(t.root, r, f, &nodesVisited, &stop)
	return nodesVisited
}

func (t *Tree) search(n *node, r geom.Rect, f func(Item) bool, visited *int, stop *bool) {
	*visited++
	for _, e := range n.entries {
		if *stop {
			return
		}
		if !e.rect.Intersects(r) {
			continue
		}
		if n.leaf {
			if !f(Item{Rect: e.rect, ID: e.id}) {
				*stop = true
				return
			}
		} else {
			t.search(e.child, r, f, visited, stop)
		}
	}
}

// All calls f for every stored item.
func (t *Tree) All(f func(Item) bool) {
	var walk func(n *node) bool
	walk = func(n *node) bool {
		for _, e := range n.entries {
			if n.leaf {
				if !f(Item{Rect: e.rect, ID: e.id}) {
					return false
				}
			} else if !walk(e.child) {
				return false
			}
		}
		return true
	}
	walk(t.root)
}

// Validate checks the R-tree invariants: parent rectangles tightly cover
// their children, entry counts respect m and M (root excepted), all leaves
// are at the same depth, and the item count matches Len().
func (t *Tree) Validate() error {
	leafDepth := -1
	items := 0
	var walk func(n *node, depth int, isRoot bool) error
	walk = func(n *node, depth int, isRoot bool) error {
		if !isRoot && len(n.entries) < t.opts.MinEntries {
			return fmt.Errorf("rtree: node at depth %d underfull: %d < %d",
				depth, len(n.entries), t.opts.MinEntries)
		}
		if len(n.entries) > t.opts.MaxEntries {
			return fmt.Errorf("rtree: node at depth %d overfull: %d > %d",
				depth, len(n.entries), t.opts.MaxEntries)
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("rtree: leaves at depths %d and %d", leafDepth, depth)
			}
			items += len(n.entries)
			return nil
		}
		for i, e := range n.entries {
			if e.child == nil {
				return fmt.Errorf("rtree: interior entry %d at depth %d has no child", i, depth)
			}
			if e.child.parent != n {
				return fmt.Errorf("rtree: parent pointer broken at depth %d entry %d", depth, i)
			}
			if got := e.child.mbr(); !geom.SameRect(got, e.rect) {
				return fmt.Errorf("rtree: stale MBR at depth %d entry %d: stored %v, actual %v",
					depth, i, e.rect, got)
			}
			if !e.rect.ContainsRect(e.child.mbr()) {
				return fmt.Errorf("rtree: child escapes parent rect at depth %d entry %d", depth, i)
			}
			if err := walk(e.child, depth+1, false); err != nil {
				return err
			}
		}
		return nil
	}
	if t.top.child != t.root || !geom.SameRect(t.top.rect, t.root.mbr()) {
		return fmt.Errorf("rtree: stale root entry: stored %v, actual %v", t.top.rect, t.root.mbr())
	}
	if t.size == 0 {
		if !t.root.leaf || len(t.root.entries) != 0 {
			return fmt.Errorf("rtree: empty tree with non-empty root")
		}
		return nil
	}
	if err := walk(t.root, 0, true); err != nil {
		return err
	}
	if items != t.size {
		return fmt.Errorf("rtree: item count %d != Len() %d", items, t.size)
	}
	if leafDepth != t.height {
		return fmt.Errorf("rtree: leaf depth %d != Height() %d", leafDepth, t.height)
	}
	return nil
}
