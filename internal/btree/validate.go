package btree

import "fmt"

// Validate checks the B+-tree invariants: sorted keys, occupancy bounds,
// uniform leaf depth, correct separators, an intact leaf chain, and a key
// count matching Len().
func (t *Tree) Validate() error {
	// Structure walk.
	leafDepth := -1
	count := 0
	var walk func(n *node, depth int, isRoot bool, lo, hi *Key) error
	walk = func(n *node, depth int, isRoot bool, lo, hi *Key) error {
		for i := 1; i < len(n.keys); i++ {
			if !n.keys[i-1].Less(n.keys[i]) {
				return fmt.Errorf("btree: unsorted keys at depth %d", depth)
			}
		}
		for _, k := range n.keys {
			if lo != nil && k.Less(*lo) {
				return fmt.Errorf("btree: key below subtree bound at depth %d", depth)
			}
			if hi != nil && !k.Less(*hi) {
				return fmt.Errorf("btree: key above subtree bound at depth %d", depth)
			}
		}
		if !isRoot && len(n.keys) < t.minKeys() {
			return fmt.Errorf("btree: underfull node at depth %d: %d < %d", depth, len(n.keys), t.minKeys())
		}
		if len(n.keys) > t.order {
			return fmt.Errorf("btree: overfull node at depth %d: %d > %d", depth, len(n.keys), t.order)
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("btree: leaves at depths %d and %d", leafDepth, depth)
			}
			count += len(n.keys)
			return nil
		}
		if len(n.kids) != len(n.keys)+1 {
			return fmt.Errorf("btree: interior at depth %d has %d kids for %d keys", depth, len(n.kids), len(n.keys))
		}
		for i, c := range n.kids {
			var clo, chi *Key
			if i > 0 {
				clo = &n.keys[i-1]
			} else {
				clo = lo
			}
			if i < len(n.keys) {
				chi = &n.keys[i]
			} else {
				chi = hi
			}
			if err := walk(c, depth+1, false, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0, true, nil, nil); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("btree: %d keys counted, Len() says %d", count, t.size)
	}
	if t.size > 0 && leafDepth != t.height {
		return fmt.Errorf("btree: leaf depth %d != Height() %d", leafDepth, t.height)
	}
	// Leaf chain must enumerate exactly the same keys, in order.
	chain := 0
	var prev *Key
	bad := false
	t.All(func(k Key) bool {
		if prev != nil && !prev.Less(k) {
			bad = true
			return false
		}
		kk := k
		prev = &kk
		chain++
		return true
	})
	if bad {
		return fmt.Errorf("btree: leaf chain out of order")
	}
	if chain != t.size {
		return fmt.Errorf("btree: leaf chain has %d keys, Len() says %d", chain, t.size)
	}
	return nil
}
