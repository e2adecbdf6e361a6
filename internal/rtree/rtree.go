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
	"math"

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
	if o.MaxEntries < 2 || o.MaxEntries > math.MaxUint16 {
		return fmt.Errorf("rtree: MaxEntries %d out of [2, %d]", o.MaxEntries, math.MaxUint16)
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

// slot is one of a record's M slots: a rectangle and a reference, which is
// the child's node number in an interior record and the item's tuple ID in
// a leaf. It holds no pointer, so the collector never scans a slot array.
type slot struct {
	rect geom.Rect
	ref  int
}

// record is one R-tree node: a header whose count slots sit in its block's
// slot array. rect is the MBR of those slots, the rectangle the parent's
// slot for the record also holds; keeping it here makes a node view's
// bounds one load. tree is the one back-pointer a record keeps: through it
// a view resolves a child's node number without a second word.
type record struct {
	rect  geom.Rect
	tree  *Tree
	num   uint32 // the record's node number, which places its slots
	count uint16
	leaf  bool
}

// blockRecords is the number of records per arena block. A block is
// allocated once, when its first record is, and never moves, so a record
// pointer stays valid; a tree's unused tail is under one block (11.8 KB at
// M = 8). A power of two fills the allocator's size classes.
const blockRecords = 32

// block holds blockRecords records and their blockRecords×M slots.
type block struct {
	recs  [blockRecords]record
	slots []slot
}

// step is one interior record on chooseLeaf's descent and the slot taken.
type step struct {
	rec  *record
	slot int
}

// Tree is an R-tree whose nodes are records in an arena of blocks, named by
// node number. Nothing points up the tree: Insert walks the path chooseLeaf
// recorded.
type Tree struct {
	opts   Options
	blocks []*block
	nodes  int // records in use, numbered 0 … nodes-1
	root   *record
	size   int
	height int // number of levels below the root; a leaf-root tree has 0

	path  []step // chooseLeaf's descent, root first
	split splitScratch
}

// rec returns the record with node number n.
func (t *Tree) rec(n int) *record { return &t.blocks[n/blockRecords].recs[n%blockRecords] }

// newRecord takes the next node number and returns its record, empty.
func (t *Tree) newRecord(leaf bool) *record {
	n := t.nodes
	if n/blockRecords == len(t.blocks) {
		t.blocks = append(t.blocks, &block{slots: make([]slot, blockRecords*t.opts.MaxEntries)})
	}
	t.nodes++
	r := t.rec(n)
	*r = record{tree: t, num: uint32(n), leaf: leaf}
	return r
}

// slots returns the record's count slots, a window of capacity M on its
// block's slot array.
func (r *record) slots() []slot {
	m := r.tree.opts.MaxEntries
	i := int(r.num%blockRecords) * m
	return r.tree.blocks[r.num/blockRecords].slots[i : i+int(r.count) : i+m]
}

// add appends s to the record's slots.
func (r *record) add(s slot) {
	r.slots()[:r.count+1][r.count] = s
	r.count++
}

// mbr returns the tight bounding rectangle of slots (the zero rectangle for
// none).
func mbr(slots []slot) geom.Rect {
	if len(slots) == 0 {
		return geom.Rect{}
	}
	r := slots[0].rect
	for _, s := range slots[1:] {
		r = r.Union(s.rect)
	}
	return r
}

// New returns an empty R-tree.
func New(opts Options) (*Tree, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	t := &Tree{opts: opts, split: newSplitScratch(opts.MaxEntries)}
	t.root = t.newRecord(true)
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
	return t.root.rect, true
}

// Insert adds an item with MBR r for the given tuple ID. It is Guttman's
// Insert: ChooseLeaf, then add the slot to the leaf. A full record splits
// into itself and a sibling, whose slot is added to the parent on the
// descent path the same way; above the last split every record's rectangle,
// and its parent's slot, grows by r, the whole of its change.
func (t *Tree) Insert(r geom.Rect, id int) {
	if t.size == 0 {
		t.root.rect = r
	}
	t.size++
	n, e, depth := t.chooseLeaf(r), slot{rect: r, ref: id}, len(t.path)
	for int(n.count) == t.opts.MaxEntries {
		sib := t.splitNode(n, e)
		e = slot{rect: sib.rect, ref: int(sib.num)}
		if depth == 0 {
			t.root = t.newRecord(false)
			t.root.add(slot{rect: n.rect, ref: int(n.num)})
			t.root.add(e)
			t.root.rect = n.rect.Union(sib.rect)
			t.height++
			return
		}
		depth--
		p := t.path[depth]
		p.rec.slots()[p.slot].rect = n.rect
		n = p.rec
	}
	n.add(e)
	for !n.rect.ContainsRect(r) {
		n.rect = n.rect.Union(r)
		if depth == 0 {
			return
		}
		depth--
		p := t.path[depth]
		p.rec.slots()[p.slot].rect = n.rect
		n = p.rec
	}
}

// chooseLeaf descends to the leaf whose MBR needs the least enlargement to
// include r, breaking ties by smallest area (Guttman's CL3), and records
// the descent in t.path.
func (t *Tree) chooseLeaf(r geom.Rect) *record {
	t.path = t.path[:0]
	n := t.root
	for !n.leaf {
		slots := n.slots()
		best := -1
		var bestEnl, bestArea float64
		for i := range slots {
			enl := slots[i].rect.Enlargement(r)
			area := slots[i].rect.Area()
			if best < 0 || enl < bestEnl || (geom.SameCoord(enl, bestEnl) && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		t.path = append(t.path, step{rec: n, slot: best})
		n = t.rec(slots[best].ref)
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

func (t *Tree) search(n *record, r geom.Rect, f func(Item) bool, visited *int, stop *bool) {
	*visited++
	for _, e := range n.slots() {
		if *stop {
			return
		}
		if !e.rect.Intersects(r) {
			continue
		}
		if n.leaf {
			if !f(Item{Rect: e.rect, ID: e.ref}) {
				*stop = true
				return
			}
		} else {
			t.search(t.rec(e.ref), r, f, visited, stop)
		}
	}
}

// All calls f for every stored item.
func (t *Tree) All(f func(Item) bool) {
	var walk func(n *record) bool
	walk = func(n *record) bool {
		for _, e := range n.slots() {
			if n.leaf {
				if !f(Item{Rect: e.rect, ID: e.ref}) {
					return false
				}
			} else if !walk(t.rec(e.ref)) {
				return false
			}
		}
		return true
	}
	walk(t.root)
}

// Validate checks the R-tree invariants: every record's rectangle, and its
// parent's slot for it, is the tight cover of its slots; slot counts
// respect m and M (root excepted); every record in use is reached exactly
// once from the root; all leaves are at the same depth; and the item count
// matches Len().
func (t *Tree) Validate() error {
	leafDepth, items, reached := -1, 0, 0
	var walk func(n *record, depth int) error
	walk = func(n *record, depth int) error {
		if reached++; reached > t.nodes {
			return fmt.Errorf("rtree: more than the %d records in use reached from the root", t.nodes)
		}
		if int(n.count) > t.opts.MaxEntries || n != t.root && int(n.count) < t.opts.MinEntries {
			return fmt.Errorf("rtree: record at depth %d has %d slots, outside [m, M] = [%d, %d]",
				depth, n.count, t.opts.MinEntries, t.opts.MaxEntries)
		}
		slots := n.slots()
		if got := mbr(slots); !geom.SameRect(got, n.rect) {
			return fmt.Errorf("rtree: stale record rectangle at depth %d: stored %v, actual %v",
				depth, n.rect, got)
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("rtree: leaves at depths %d and %d", leafDepth, depth)
			}
			items += len(slots)
			return nil
		}
		for i, e := range slots {
			if e.ref < 0 || e.ref >= t.nodes {
				return fmt.Errorf("rtree: slot %d at depth %d names record %d of %d", i, depth, e.ref, t.nodes)
			}
			c := t.rec(e.ref)
			if !geom.SameRect(e.rect, c.rect) {
				return fmt.Errorf("rtree: stale slot rectangle at depth %d slot %d: stored %v, record's %v",
					depth, i, e.rect, c.rect)
			}
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return err
	}
	if reached != t.nodes {
		return fmt.Errorf("rtree: %d records reached from the root, %d in use", reached, t.nodes)
	}
	if items != t.size {
		return fmt.Errorf("rtree: item count %d != Len() %d", items, t.size)
	}
	if leafDepth != t.height {
		return fmt.Errorf("rtree: leaf depth %d != Height() %d", leafDepth, t.height)
	}
	return nil
}
