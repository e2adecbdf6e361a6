// Package core implements the paper's primary contribution: generalization
// trees and the hierarchical spatial-selection and spatial-join algorithms
// SELECT and JOIN (§3 of Günther, "Efficient Computation of Spatial Joins",
// ICDE 1993).
//
// A generalization tree is any tree of spatial objects in which every
// non-root object is completely contained in its parent's object. Objects at
// the same level may overlap, dead space is allowed, and — unlike most index
// structures — interior nodes may correspond to application objects that can
// themselves qualify for query results. Both abstract indices (R-trees,
// package rtree) and application hierarchies (package carto) satisfy the
// Tree interface and can be handed to Select and Join unchanged.
package core

import (
	"fmt"

	"spatialjoin/internal/geom"
)

// Node is one node of a generalization tree.
type Node interface {
	// Bounds returns the node's spatial object as an MBR; Θ filters are
	// evaluated on this rectangle.
	Bounds() geom.Rect

	// Object returns the spatial object the node stores. A node that
	// contains its tuple returns the tuple's exact geometry, θ's operand.
	// A node that only references its tuple (an R-tree entry) stores just
	// its MBR and returns that: θ's operand is then read from the tuple by
	// the executor's Reader, never taken from Object.
	Object() geom.Spatial

	// Tuple returns the ID of the relation tuple this node corresponds to.
	// ok is false for purely technical index nodes (e.g. R-tree interior
	// nodes), which participate in filtering but never in results.
	Tuple() (id int, ok bool)

	// NumChildren returns the number of direct descendants, 0 for leaves.
	NumChildren() int

	// Child returns the i-th direct descendant, 0 ≤ i < NumChildren().
	// Iterating by index instead of materializing a slice keeps the
	// descent allocation-free: implementations hand out pointer-shaped
	// values, which box into the interface without touching the heap.
	Child(i int) Node

	// ContainsTuple reports where the node's tuple is read, and so when
	// the executor's Reader is called for it. True for a node stored with
	// its tuple (the paper's S2, §4.1): examining it reads the tuple, so the
	// reader is called when it is examined, before Θ, and θ evaluates
	// Object(). False for a node that only references its tuple, such as an
	// index entry that stores its MBR: Θ reads only the entry, and the
	// reader is called immediately before θ, whose operand is what it
	// returns, so a node Θ rejects costs no tuple read.
	ContainsTuple() bool
}

// Reader reads the tuple of node n from storage and returns its spatial
// value, θ's operand when n only references its tuple (Node.ContainsTuple).
// A rectangle may be returned as dst, with its value stored there, so that
// reading one allocates nothing; the result is valid until dst is reused.
// With dst nil, where the value is discarded (a node that contains its
// tuple is read when examined), it reads the tuple without building the
// value and may return nil. For a technical node, which has no tuple, it
// returns nil.
type Reader func(n Node, dst *geom.Rect) (geom.Spatial, error)

// Tree is a generalization tree used as a secondary index on one spatial
// column of one relation.
type Tree interface {
	// Root returns the root node, or nil for an empty tree.
	Root() Node

	// Height returns the number of levels below the root (a root-only tree
	// has height 0), i.e. the paper's n with the root at height 0.
	Height() int
}

// BasicNode is a straightforward materialized Node for building
// application-defined generalization trees (cartographic hierarchies,
// synthetic model trees, tests).
type BasicNode struct {
	// Obj is the node's spatial object.
	Obj geom.Spatial
	// TupleID is the corresponding tuple, or a negative value when the node
	// is technical.
	TupleID int
	// Kids are the direct descendants.
	Kids []*BasicNode
}

// NewBasicNode returns a node for obj and tuple id (negative id = technical
// node).
func NewBasicNode(obj geom.Spatial, id int) *BasicNode {
	return &BasicNode{Obj: obj, TupleID: id}
}

// AddChild appends c to the node's children and returns c.
func (n *BasicNode) AddChild(c *BasicNode) *BasicNode {
	n.Kids = append(n.Kids, c)
	return c
}

// Bounds implements Node.
func (n *BasicNode) Bounds() geom.Rect { return n.Obj.Bounds() }

// Object implements Node.
func (n *BasicNode) Object() geom.Spatial { return n.Obj }

// Tuple implements Node.
func (n *BasicNode) Tuple() (int, bool) { return n.TupleID, n.TupleID >= 0 }

// NumChildren implements Node.
func (n *BasicNode) NumChildren() int { return len(n.Kids) }

// Child implements Node.
func (n *BasicNode) Child(i int) Node { return n.Kids[i] }

// ContainsTuple implements Node: a materialized node is its tuple (S2).
func (n *BasicNode) ContainsTuple() bool { return true }

// BasicTree wraps a BasicNode root as a Tree.
type BasicTree struct {
	root *BasicNode
}

// NewBasicTree returns a tree rooted at root (which may be nil for an empty
// tree).
func NewBasicTree(root *BasicNode) *BasicTree { return &BasicTree{root: root} }

// Root implements Tree.
func (t *BasicTree) Root() Node {
	if t.root == nil {
		return nil
	}
	return t.root
}

// Height implements Tree.
func (t *BasicTree) Height() int {
	var h func(n *BasicNode) int
	h = func(n *BasicNode) int {
		best := 0
		for _, k := range n.Kids {
			if d := 1 + h(k); d > best {
				best = d
			}
		}
		return best
	}
	if t.root == nil {
		return 0
	}
	return h(t.root)
}

// Validate checks the generalization-tree invariant: every child's MBR is
// completely contained in its parent's MBR.
func (t *BasicTree) Validate() error {
	var walk func(n *BasicNode) error
	walk = func(n *BasicNode) error {
		pb := n.Bounds()
		for i, k := range n.Kids {
			if !pb.ContainsRect(k.Bounds()) {
				return fmt.Errorf("core: child %d (%v) escapes parent (%v)", i, k.Bounds(), pb)
			}
			if err := walk(k); err != nil {
				return err
			}
		}
		return nil
	}
	if t.root == nil {
		return nil
	}
	return walk(t.root)
}

// Walk visits every node of tree in breadth-first order, calling f with the
// node and its level. Returning false stops the walk.
func Walk(tree Tree, f func(n Node, level int) bool) {
	root := tree.Root()
	if root == nil {
		return
	}
	type entry struct {
		n     Node
		level int
	}
	queue := []entry{{root, 0}}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		if !f(e.n, e.level) {
			return
		}
		for i, k := 0, e.n.NumChildren(); i < k; i++ {
			queue = append(queue, entry{e.n.Child(i), e.level + 1})
		}
	}
}

// CountNodes returns the number of nodes in tree.
func CountNodes(tree Tree) int {
	n := 0
	Walk(tree, func(Node, int) bool { n++; return true })
	return n
}

// BFSOrder returns the tuple IDs of all tuple-bearing nodes in breadth-first
// order. Loading a relation in this order produces the paper's clustered
// layout (strategy IIb).
func BFSOrder(tree Tree) []int {
	var ids []int
	Walk(tree, func(n Node, _ int) bool {
		if id, ok := n.Tuple(); ok {
			ids = append(ids, id)
		}
		return true
	})
	return ids
}
