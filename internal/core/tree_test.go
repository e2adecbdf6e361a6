package core

import (
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
)

// buildUniformTree builds a k-ary generalization tree of the given height
// whose node rectangles nest properly: each child occupies a random
// subrectangle of its parent. Tuple IDs are assigned in BFS order starting
// at firstID; technicalInterior makes interior nodes tuple-less (R-tree
// style).
func buildUniformTree(rng *rand.Rand, root geom.Rect, k, height int,
	firstID int, technicalInterior bool) (*BasicTree, int) {

	nextID := firstID
	rootNode := NewBasicNode(root, -1)
	tree := NewBasicTree(rootNode)
	// Assign IDs level by level (BFS) so BFS order == tuple ID order.
	level := []*BasicNode{rootNode}
	for depth := 0; depth <= height; depth++ {
		var next []*BasicNode
		for _, n := range level {
			isLeaf := depth == height
			if !technicalInterior || isLeaf {
				n.TupleID = nextID
				nextID++
			}
			if !isLeaf {
				for c := 0; c < k; c++ {
					n.AddChild(NewBasicNode(subRect(rng, n.Bounds()), -1))
				}
				next = append(next, n.Kids...)
			}
		}
		level = next
	}
	return tree, nextID - firstID
}

// subRect returns a random rectangle strictly inside parent.
func subRect(rng *rand.Rand, parent geom.Rect) geom.Rect {
	w, h := parent.Width(), parent.Height()
	x1 := parent.MinX + rng.Float64()*w
	x2 := parent.MinX + rng.Float64()*w
	y1 := parent.MinY + rng.Float64()*h
	y2 := parent.MinY + rng.Float64()*h
	return geom.NewRect(x1, y1, x2, y2)
}

func TestBasicNodeAccessors(t *testing.T) {
	n := NewBasicNode(geom.NewRect(0, 0, 2, 2), 7)
	if n.Bounds() != geom.NewRect(0, 0, 2, 2) {
		t.Fatalf("bounds = %v", n.Bounds())
	}
	if id, ok := n.Tuple(); !ok || id != 7 {
		t.Fatalf("tuple = %d, %t", id, ok)
	}
	tech := NewBasicNode(geom.NewRect(0, 0, 1, 1), -1)
	if _, ok := tech.Tuple(); ok {
		t.Fatal("negative id must mean technical node")
	}
	if n.NumChildren() != 0 {
		t.Fatal("a leaf has no children")
	}
	c := n.AddChild(NewBasicNode(geom.NewRect(0, 0, 1, 1), 8))
	if n.NumChildren() != 1 || n.Child(0) != Node(c) {
		t.Fatal("AddChild wiring broken")
	}
}

func TestBasicTreeHeight(t *testing.T) {
	if h := NewBasicTree(nil).Height(); h != 0 {
		t.Fatalf("empty tree height = %d", h)
	}
	root := NewBasicNode(geom.NewRect(0, 0, 10, 10), 0)
	tr := NewBasicTree(root)
	if tr.Height() != 0 {
		t.Fatalf("root-only height = %d", tr.Height())
	}
	c := root.AddChild(NewBasicNode(geom.NewRect(0, 0, 5, 5), 1))
	c.AddChild(NewBasicNode(geom.NewRect(0, 0, 2, 2), 2))
	root.AddChild(NewBasicNode(geom.NewRect(5, 5, 9, 9), 3))
	if tr.Height() != 2 {
		t.Fatalf("ragged tree height = %d, want 2", tr.Height())
	}
}

func TestBasicTreeValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr, _ := buildUniformTree(rng, geom.NewRect(0, 0, 100, 100), 3, 3, 0, false)
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated tree should validate: %v", err)
	}
	bad := NewBasicNode(geom.NewRect(0, 0, 1, 1), 0)
	bad.AddChild(NewBasicNode(geom.NewRect(0, 0, 5, 5), 1)) // escapes parent
	if err := NewBasicTree(bad).Validate(); err == nil {
		t.Fatal("escaping child must fail validation")
	}
	if err := NewBasicTree(nil).Validate(); err != nil {
		t.Fatalf("empty tree validates: %v", err)
	}
}

func TestWalkBFSOrderAndEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr, n := buildUniformTree(rng, geom.NewRect(0, 0, 100, 100), 2, 3, 0, false)
	var levels []int
	var ids []int
	Walk(tr, func(node Node, level int) bool {
		levels = append(levels, level)
		if id, ok := node.Tuple(); ok {
			ids = append(ids, id)
		}
		return true
	})
	// Levels must be non-decreasing in a BFS walk.
	for i := 1; i < len(levels); i++ {
		if levels[i] < levels[i-1] {
			t.Fatalf("walk not breadth-first at step %d", i)
		}
	}
	// Tuple IDs were assigned in BFS order, so they must come out sorted.
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			t.Fatalf("BFS ids out of order at %d: %v", i, ids[i-1:i+1])
		}
	}
	if len(ids) != n {
		t.Fatalf("visited %d tuples, want %d", len(ids), n)
	}
	count := 0
	Walk(tr, func(Node, int) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestCountNodesAndBFSOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr, _ := buildUniformTree(rng, geom.NewRect(0, 0, 50, 50), 3, 2, 0, false)
	// Full 3-ary tree of height 2: 1 + 3 + 9 = 13 nodes.
	if n := CountNodes(tr); n != 13 {
		t.Fatalf("CountNodes = %d, want 13", n)
	}
	order := BFSOrder(tr)
	if len(order) != 13 {
		t.Fatalf("BFSOrder length = %d", len(order))
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("BFSOrder[%d] = %d", i, id)
		}
	}
	// With technical interiors only leaves carry tuples: 9 of them.
	tr2, n2 := buildUniformTree(rng, geom.NewRect(0, 0, 50, 50), 3, 2, 0, true)
	if n2 != 9 || len(BFSOrder(tr2)) != 9 {
		t.Fatalf("technical tree tuples = %d / %d, want 9", n2, len(BFSOrder(tr2)))
	}
	if CountNodes(tr2) != 13 {
		t.Fatalf("technical tree still has 13 nodes")
	}
}

func TestWalkEmptyTree(t *testing.T) {
	called := false
	Walk(NewBasicTree(nil), func(Node, int) bool { called = true; return true })
	if called {
		t.Fatal("walk of empty tree must not call f")
	}
	if CountNodes(NewBasicTree(nil)) != 0 {
		t.Fatal("empty tree has 0 nodes")
	}
}
