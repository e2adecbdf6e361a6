package rtree

import (
	"spatialjoin/internal/geom"
)

// Delete removes the item with the given geometry bounds and ID. It returns
// false when no such item is stored. Underfull nodes are condensed per
// Guttman's CondenseTree, with orphaned items re-inserted.
func (t *Tree) Delete(obj geom.Spatial, id int) bool {
	r := obj.Bounds()
	leaf, idx := t.findLeaf(t.root, r, id)
	if leaf == nil {
		return false
	}
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	t.size--
	t.condenseTree(leaf)
	// D4: if the root is an interior node with a single child, shorten the
	// tree.
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
		t.root.parent = nil
		t.height--
	}
	t.refreshTop()
	return true
}

// findLeaf locates the leaf and entry index holding (r, id), descending only
// into subtrees whose rectangles contain r.
func (t *Tree) findLeaf(n *node, r geom.Rect, id int) (*node, int) {
	if n.leaf {
		for i, e := range n.entries {
			if e.item.ID == id && geom.SameRect(e.rect, r) {
				return n, i
			}
		}
		return nil, 0
	}
	for _, e := range n.entries {
		if !e.rect.ContainsRect(r) {
			continue
		}
		if leaf, i := t.findLeaf(e.child, r, id); leaf != nil {
			return leaf, i
		}
	}
	return nil, 0
}

// condenseTree walks from leaf to root, removing underfull nodes and
// collecting their orphaned leaf items for re-insertion, refreshing MBRs
// along the way.
func (t *Tree) condenseTree(n *node) {
	var orphans []entry
	for n != t.root {
		p := n.parent
		if len(n.entries) < t.opts.MinEntries {
			// Remove n from its parent and queue its items.
			for i := range p.entries {
				if p.entries[i].child == n {
					p.entries = append(p.entries[:i], p.entries[i+1:]...)
					break
				}
			}
			collectItems(n, &orphans)
		} else {
			// Refresh n's MBR in its parent.
			for i := range p.entries {
				if p.entries[i].child == n {
					p.entries[i].rect = n.mbr()
					break
				}
			}
		}
		n = p
	}
	// If the whole tree emptied out, reset to a fresh leaf root.
	if !t.root.leaf && len(t.root.entries) == 0 {
		t.root = &node{leaf: true}
		t.height = 0
	}
	if t.root.leaf && len(t.root.entries) == 0 {
		t.height = 0
	}
	// Re-insert orphaned items. Re-inserting at leaf level (rather than at
	// the orphan's original level) is a standard simplification that
	// preserves all invariants.
	for _, e := range orphans {
		t.insertAtLeaf(e)
	}
}

// collectItems appends every leaf item under n to out.
func collectItems(n *node, out *[]entry) {
	if n.leaf {
		*out = append(*out, n.entries...)
		return
	}
	for _, e := range n.entries {
		collectItems(e.child, out)
	}
}
