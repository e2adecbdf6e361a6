package spatialjoin

import (
	"fmt"
	"math"
	"math/rand"

	"spatialjoin/internal/costmodel"
	"spatialjoin/internal/geom"
)

// Advice is the outcome of cost-based strategy selection for a join: the
// recommended strategy, the sampled selectivity estimate, and the model's
// cost for every candidate.
type Advice struct {
	// Strategy is the cheapest executable strategy.
	Strategy Strategy
	// EstimatedSelectivity is p̂ from pair sampling (Laplace-smoothed).
	EstimatedSelectivity float64
	// Costs holds the model's cost estimate per strategy, in time units.
	// IndexStrategy appears only when a join index exists for the triple.
	Costs map[Strategy]float64
	// SampledPairs is the number of object pairs evaluated for p̂.
	SampledPairs int
}

// AdviseJoin estimates the join selectivity by sampling object pairs, maps
// the database's physical configuration onto the paper's cost model, and
// prices the executable strategies: nested loop (D_I), generalization tree
// (D_IIb), and — when one exists for (r, s, op) — the join index (D_III).
// D_IIb is a known approximation. It assumes S2 (every node is a tuple, read
// when examined) and the clustered placement, where the served R-trees have
// technical interiors, read an item's tuple only for θ, and sit on heaps in
// insertion order, which leaves the items under one leaf on unrelated pages
// (the unclustered case). It stands until a leaf-tuple D_II priced by
// measured clustering replaces it (ROADMAP.md, item 3b).
//
// The model is used the way the paper uses it: to rank strategies, not to
// predict wall-clock times. Empty collections default to TreeStrategy.
func (db *Database) AdviseJoin(r, s *Collection, op Operator) (Advice, error) {
	if r == nil || s == nil || op == nil {
		return Advice{}, fmt.Errorf("spatialjoin: nil advise argument")
	}
	advice := Advice{Strategy: TreeStrategy, Costs: map[Strategy]float64{}}
	if r.Len() == 0 || s.Len() == 0 {
		return advice, nil
	}

	// Sample up to 200 deterministic pairs for p̂.
	const maxSamples = 200
	rng := rand.New(rand.NewSource(int64(r.Len())*1_000_003 + int64(s.Len())))
	samples := maxSamples
	if total := r.Len() * s.Len(); total < samples {
		samples = total
	}
	matches := 0
	for i := 0; i < samples; i++ {
		ra, _, err := r.Get(rng.Intn(r.Len()))
		if err != nil {
			return advice, err
		}
		sb, _, err := s.Get(rng.Intn(s.Len()))
		if err != nil {
			return advice, err
		}
		if op.Eval(ra, sb) {
			matches++
		}
	}
	pHat := (float64(matches) + 1) / (float64(samples) + 2) // Laplace smoothing
	advice.EstimatedSelectivity = pHat
	advice.SampledPairs = samples

	prm, err := db.modelParams(r, s)
	if err != nil {
		return advice, err
	}
	m, err := costmodel.NewModel(prm, costmodel.Uniform, pHat)
	if err != nil {
		return advice, err
	}
	jc := m.JoinCosts()
	advice.Costs[ScanStrategy] = jc.DI
	advice.Costs[TreeStrategy] = jc.DIIb
	if _, ok := db.joinIndexFor(r, s, op); ok {
		advice.Costs[IndexStrategy] = jc.DIII
	}

	best, bestCost := TreeStrategy, math.Inf(1)
	for strat, cost := range advice.Costs {
		if cost < bestCost || (geom.SameCoord(cost, bestCost) && strat == TreeStrategy) {
			best, bestCost = strat, cost
		}
	}
	advice.Strategy = best
	return advice, nil
}

// modelParams maps the database's physical configuration and the
// collections' actual shapes onto the cost model's parameters.
func (db *Database) modelParams(r, s *Collection) (ModelParams, error) {
	prm := costmodel.PaperParams()
	prm.S = float64(db.cfg.PageSize)
	prm.L = db.cfg.FillFactor
	prm.M = float64(db.cfg.BufferPages)
	if prm.M <= 11 {
		prm.M = 12 // the blocking technique needs headroom
	}
	prm.Z = float64(db.cfg.JoinIndexOrder)

	// Effective fanout and height from the (larger) R-tree; the model wants
	// N = (k^{n+1}−1)/(k−1) ≈ the collection size.
	n := r.Len()
	if s.Len() > n {
		n = s.Len()
	}
	k := db.cfg.IndexOptions.MaxEntries
	if k < 2 {
		k = 2
	}
	levels := int(math.Ceil(math.Log(float64(n)*(float64(k)-1)+1)/math.Log(float64(k)))) - 1
	if levels < 1 {
		levels = 1
	}
	prm.K = k
	prm.Nlevels = levels
	prm.H = levels
	prm.T = float64(n)

	// Average tuple size from the heap file's real footprint.
	pages := r.Pages() + s.Pages()
	tuples := r.Len() + s.Len()
	if pages > 0 && tuples > 0 {
		v := float64(pages) * prm.S * prm.L / float64(tuples)
		if v >= 1 {
			prm.V = v
		}
	}
	if err := prm.Validate(); err != nil {
		return prm, fmt.Errorf("spatialjoin: derived model parameters invalid: %w", err)
	}
	return prm, nil
}

// JoinAuto runs AdviseJoin and executes the recommended strategy.
func (db *Database) JoinAuto(r, s *Collection, op Operator) ([]Match, Stats, Advice, error) {
	advice, err := db.AdviseJoin(r, s, op)
	if err != nil {
		return nil, Stats{}, advice, err
	}
	pairs, stats, err := db.Join(r, s, op, advice.Strategy)
	return pairs, stats, advice, err
}
