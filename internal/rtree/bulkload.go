package rtree

import (
	"math"
	"sort"
)

// BulkLoad builds an R-tree from all items at once with the Sort-Tile-
// Recursive (STR) packing algorithm: items are sorted by center X, cut into
// √(nodes) vertical slices, each slice sorted by center Y and packed into
// nodes; the resulting level is packed recursively the same way until a
// single root remains.
//
// Compared to one-at-a-time insertion, a bulk-loaded tree has nearly full
// nodes and far less directory overlap — the BenchmarkAblationBulkLoad
// ablation quantifies the difference. Later Insert calls split the loaded
// nodes as they split any other; all occupancy invariants
// (MinEntries/MaxEntries) hold on the result.
func BulkLoad(opts Options, items []Item) (*Tree, error) {
	t, err := New(opts)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return t, nil
	}
	entries := make([]entry, len(items))
	for i, it := range items {
		entries[i] = entry{rect: it.Rect, id: it.ID}
	}
	level := packSTR(entries, opts.MaxEntries, true)
	height := 0
	for len(level) > 1 {
		parents := make([]entry, len(level))
		for i, n := range level {
			parents[i] = entry{rect: n.mbr(), child: n}
		}
		level = packSTR(parents, opts.MaxEntries, false)
		height++
	}
	t.root = level[0]
	t.height = height
	t.size = len(items)
	fixParents(t.root)
	t.refreshTop()
	return t, nil
}

// packSTR groups entries into nodes of at most max entries using STR
// tiling. Within each slice the entries are distributed evenly over
// ⌈len/max⌉ nodes, so no node falls below ⌊max/2⌋ ≥ MinEntries except when
// the whole input fits in a single (root) node.
func packSTR(entries []entry, max int, leaf bool) []*node {
	n := len(entries)
	nodeCount := (n + max - 1) / max
	sliceCount := int(math.Ceil(math.Sqrt(float64(nodeCount))))

	sort.Slice(entries, func(i, j int) bool {
		return entries[i].rect.Center().X < entries[j].rect.Center().X
	})
	// Distribute entries evenly over the slices (rather than filling slices
	// to sliceCount·max and leaving a tiny remainder slice), so every slice
	// — and therefore every node — stays above the minimum occupancy.
	sliceBase := n / sliceCount
	sliceExtra := n % sliceCount
	var out []*node
	start := 0
	for sl := 0; sl < sliceCount && start < n; sl++ {
		size := sliceBase
		if sl < sliceExtra {
			size++
		}
		end := start + size
		slice := entries[start:end]
		start = end
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].rect.Center().Y < slice[j].rect.Center().Y
		})
		groups := (len(slice) + max - 1) / max
		base := len(slice) / groups
		extra := len(slice) % groups // the first `extra` groups get base+1
		pos := 0
		for g := 0; g < groups; g++ {
			size := base
			if g < extra {
				size++
			}
			out = append(out, &node{
				leaf:    leaf,
				entries: append([]entry(nil), slice[pos:pos+size]...),
			})
			pos += size
		}
	}
	return out
}

// fixParents rebuilds parent pointers after packing.
func fixParents(n *node) {
	if n.leaf {
		return
	}
	for _, e := range n.entries {
		e.child.parent = n
		fixParents(e.child)
	}
}
