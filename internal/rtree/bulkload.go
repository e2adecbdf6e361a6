package rtree

import (
	"math"
	"sort"
)

// BulkLoad builds an R-tree from all items at once with the Sort-Tile-
// Recursive (STR) packing algorithm: items are sorted by center X, cut into
// √(nodes) vertical slices, each slice sorted by center Y and packed into
// nodes; the resulting level is packed recursively the same way until a
// single root remains. Records fill bottom-up: the leaves take the first
// node numbers, the root the last.
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
	level := make([]slot, len(items))
	for i, it := range items {
		level[i] = slot{rect: it.Rect, ref: it.ID}
	}
	t.nodes = 0 // the packed records replace New's empty root
	level = t.packSTR(level, true)
	for len(level) > 1 {
		level = t.packSTR(level, false)
		t.height++
	}
	t.root = t.rec(level[0].ref)
	t.size = len(items)
	return t, nil
}

// packSTR groups slots into new records of at most M slots using STR
// tiling and returns each record's slot for the level above. Within each
// slice the slots are distributed evenly over ⌈len/M⌉ records, so no record
// falls below ⌊M/2⌋ ≥ MinEntries except when the whole input fits in a
// single (root) record.
func (t *Tree) packSTR(entries []slot, leaf bool) []slot {
	n, max := len(entries), t.opts.MaxEntries
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
	var out []slot
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
			r := t.newRecord(leaf)
			r.count = uint16(size)
			copy(r.slots(), slice[pos:pos+size])
			r.rect = mbr(r.slots())
			out = append(out, slot{rect: r.rect, ref: int(r.num)})
			pos += size
		}
	}
	return out
}
