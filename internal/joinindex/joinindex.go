// Package joinindex implements Valduriez-style join indices (the paper's
// strategy III): the result of a join R ⋈θ S precomputed as a binary
// relation of matching tuple-ID pairs, stored in a B+-tree (modeling
// assumption S4).
//
// The tree is keyed (r, s), so the matches of one R tuple are one key range.
// The paper's key observations about this strategy are directly visible in
// the API: lookups are cheap (MatchesOfR walks a small key range), but
// maintenance is expensive because every inserted tuple must be checked
// against the entire other relation (MaintainInsert* take a full candidate
// enumeration). Pairs are only ever added: the engine has no delete path.
package joinindex

import (
	"fmt"

	"spatialjoin/internal/btree"
)

// Index is a precomputed join index between two relations R and S for one
// fixed θ-operator.
type Index struct {
	tree *btree.Tree // keys (r, s)
}

// New returns an empty join index whose B+-tree has the given order (the
// paper's z, Table 3: 100).
func New(order int) (*Index, error) {
	tree, err := btree.New(order)
	if err != nil {
		return nil, err
	}
	return &Index{tree: tree}, nil
}

// MustNew is New that panics on error.
func MustNew(order int) *Index {
	ix, err := New(order)
	if err != nil {
		panic(err)
	}
	return ix
}

// Len returns the number of stored pairs (the join cardinality |J|).
func (ix *Index) Len() int { return ix.tree.Len() }

// Order returns the underlying B+-tree's order (the paper's z).
func (ix *Index) Order() int { return ix.tree.Order() }

// Pages is strategy III's paging charge for a full scan of the index: its
// leaves, ⌈|J|/z⌉ (the model's C_III and D_III).
func (ix *Index) Pages() int64 {
	n, z := ix.Len(), ix.Order()
	return int64((n + z - 1) / z)
}

// Height returns the tree's height, the paper's parameter d minus
// one (the paper counts pages on a root-to-leaf path, with the root pinned
// in memory).
func (ix *Index) Height() int { return ix.tree.Height() }

// Add records that tuples r ∈ R and s ∈ S match. It reports whether the
// pair is new. Negative IDs are rejected.
func (ix *Index) Add(r, s int) (bool, error) {
	if r < 0 || s < 0 {
		return false, fmt.Errorf("joinindex: negative tuple id (%d, %d)", r, s)
	}
	return ix.tree.Insert(btree.Key{Hi: uint64(r), Lo: uint64(s)}), nil
}

// Contains reports whether the pair is stored.
func (ix *Index) Contains(r, s int) bool {
	if r < 0 || s < 0 {
		return false
	}
	found, _ := ix.tree.Contains(btree.Key{Hi: uint64(r), Lo: uint64(s)})
	return found
}

// MatchesOfR calls f with every s matching r, in ascending order. It
// returns the number of index nodes visited (the unit the cost model
// charges for paging in the join index).
func (ix *Index) MatchesOfR(r int, f func(s int) bool) (visits int) {
	if r < 0 {
		return 0
	}
	return ix.tree.Range(
		btree.Key{Hi: uint64(r), Lo: 0},
		btree.Key{Hi: uint64(r), Lo: ^uint64(0)},
		func(k btree.Key) bool { return f(int(k.Lo)) },
	)
}

// AllPairs calls f for every stored pair in (r, s) order.
func (ix *Index) AllPairs(f func(r, s int) bool) {
	ix.tree.All(func(k btree.Key) bool { return f(int(k.Hi), int(k.Lo)) })
}

// MaintainCost describes the work a maintenance operation performed, in the
// paper's units: θ evaluations (C_U each in §4.2's update model) and pairs
// added.
type MaintainCost struct {
	Evaluations int
	PairsAdded  int
}

// MaintainInsertR updates the index after tuple r is inserted into R: match
// must report, for each existing tuple s of S (0..sCount-1), whether
// r θ s. This is the paper's U_III update path — note the full scan of the
// other relation.
func (ix *Index) MaintainInsertR(r, sCount int, match func(s int) (bool, error)) (MaintainCost, error) {
	var cost MaintainCost
	for s := 0; s < sCount; s++ {
		cost.Evaluations++
		ok, err := match(s)
		if err != nil {
			return cost, err
		}
		if ok {
			if _, err := ix.Add(r, s); err != nil {
				return cost, err
			}
			cost.PairsAdded++
		}
	}
	return cost, nil
}

// MaintainInsertS is the symmetric update path for an insert into S.
func (ix *Index) MaintainInsertS(s, rCount int, match func(r int) (bool, error)) (MaintainCost, error) {
	var cost MaintainCost
	for r := 0; r < rCount; r++ {
		cost.Evaluations++
		ok, err := match(r)
		if err != nil {
			return cost, err
		}
		if ok {
			if _, err := ix.Add(r, s); err != nil {
				return cost, err
			}
			cost.PairsAdded++
		}
	}
	return cost, nil
}

// Validate checks the B+-tree's invariants.
func (ix *Index) Validate() error {
	if err := ix.tree.Validate(); err != nil {
		return fmt.Errorf("joinindex: %w", err)
	}
	return nil
}
