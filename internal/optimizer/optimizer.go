// Package optimizer produces bushy join trees for the generated queries,
// standing in for the DBS3 optimizer the paper uses (§5.1.2: "Each query is
// then run through our DBS3 query optimizer ... For each query, the two
// best bushy operator trees are retained").
//
// The search is exact dynamic programming over connected sub-graphs of the
// acyclic predicate graph, minimizing the classic sum-of-intermediate-
// result-sizes objective ([Shekita93]). Because the predicate graph is a
// tree, every connected split has exactly one crossing join edge.
package optimizer

import (
	"fmt"
	"math"
	"math/bits"

	"hierdb/internal/catalog"
	"hierdb/internal/cluster"
	"hierdb/internal/plan"
	"hierdb/internal/querygen"
	"hierdb/internal/simtime"
	"hierdb/internal/xrand"
)

// Optimizer holds the cost model configuration.
type Optimizer struct {
	Costs plan.Costs
	Cfg   cluster.Config
}

// New returns an optimizer using the given cost constants and machine
// configuration (the machine matters only through disk/CPU speeds used for
// time estimates).
func New(costs plan.Costs, cfg cluster.Config) *Optimizer {
	return &Optimizer{Costs: costs, Cfg: cfg}
}

type mask = uint32

// MaxRelations is the search's capacity: its table has 2^n entries.
const MaxRelations = 20

type dpEntry struct {
	cost  float64 // sum of intermediate result cardinalities
	card  float64 // output cardinality of the sub-plan
	split mask    // winning left part; 0 for single relations
	conn  bool    // the subset induces a connected subgraph
	sel   float64 // selectivity of the crossing edge of the split
}

// Search is the DP table of one search: for every connected subset of
// the relations, its cheapest join tree's cost, cardinality and root
// split.
type Search struct {
	best  []dpEntry
	edges []querygen.Edge
}

// SearchGraph runs the DP over a predicate graph in slice form: cards[i]
// is relation i's cardinality and edges a spanning tree over the
// relations. The objective reads nothing else of a query, so the
// engine's planning bridge searches its own estimates through it without
// building one; BestTrees is its wrapper for a generated query. It fails
// on more than MaxRelations relations or when edges do not span a tree.
func SearchGraph(cards []float64, edges []querygen.Edge) (Search, error) {
	n := len(cards)
	if n < 2 || n > MaxRelations || len(edges) != n-1 {
		return Search{}, fmt.Errorf("optimizer: %d relations and %d edges (the search takes a tree of 2 to %d relations)", n, len(edges), MaxRelations)
	}
	// nbr[v] is v's neighbourhood; connectivity is a mask fixpoint over
	// it, on the stack.
	var nbr [MaxRelations]mask
	for i, e := range edges {
		if e.A < 0 || e.A >= n || e.B < 0 || e.B >= n || e.A == e.B || !(e.Selectivity > 0) {
			return Search{}, fmt.Errorf("optimizer: edge %d joins %d,%d with selectivity %g", i, e.A, e.B, e.Selectivity)
		}
		nbr[e.A] |= mask(1) << e.B
		nbr[e.B] |= mask(1) << e.A
	}
	size := 1 << n
	s := Search{best: make([]dpEntry, size), edges: edges}
	for m := 1; m < size; m++ {
		s.best[m] = dpEntry{cost: math.Inf(1), conn: connected(mask(m), &nbr)}
	}
	if !s.best[size-1].conn {
		return Search{}, fmt.Errorf("optimizer: graph of %d relations not connected", n)
	}
	for i, c := range cards {
		s.best[1<<i] = dpEntry{cost: 0, card: c, conn: true}
	}
	// DP over subsets in increasing popcount (increasing numeric order
	// suffices because every proper submask is numerically smaller).
	for m := mask(1); int(m) < size; m++ {
		if !s.best[m].conn || bits.OnesCount32(m) < 2 {
			continue
		}
		lowest := m & (-m)
		for sub := (m - 1) & m; sub > 0; sub = (sub - 1) & m {
			if sub&lowest == 0 {
				continue // canonical form: left part holds the lowest bit
			}
			cost, card, sel, ok := s.join(sub, m^sub)
			if ok && cost < s.best[m].cost {
				s.best[m] = dpEntry{cost: cost, card: card, split: sub, conn: true, sel: sel}
			}
		}
		if math.IsInf(s.best[m].cost, 1) {
			panic("optimizer: connected subset with no plan")
		}
	}
	return s, nil
}

// join prices joining the best plans of two disjoint parts: both must be
// connected, and an edge — the only one, the graph being a tree — must
// cross between them.
func (s *Search) join(a, b mask) (cost, card, sel float64, ok bool) {
	if !s.best[a].conn || !s.best[b].conn {
		return 0, 0, 0, false
	}
	for _, e := range s.edges {
		ea, eb := mask(1)<<e.A, mask(1)<<e.B
		if a&ea != 0 && b&eb != 0 || a&eb != 0 && b&ea != 0 {
			card = max(e.Selectivity*s.best[a].card*s.best[b].card, 1)
			return s.best[a].cost + s.best[b].cost + card, card, e.Selectivity, true
		}
	}
	return 0, 0, 0, false
}

// Full is the subset of every relation.
func (s *Search) Full() uint32 { return uint32(len(s.best) - 1) }

// Split is the left part of the winning split of subset m, which the
// search found connected; 0 for a single relation.
func (s *Search) Split(m uint32) uint32 { return s.best[m].split }

// connected reports whether the relations in m induce a connected
// subgraph of the graph whose neighbourhoods nbr holds.
func connected(m mask, nbr *[MaxRelations]mask) bool {
	seen := m & -m
	for {
		grow := seen
		for v := seen; v != 0; v &= v - 1 {
			grow |= nbr[bits.TrailingZeros32(v)] & m
		}
		if grow == seen {
			return seen == m
		}
		seen = grow
	}
}

// buildTree materializes the JoinNode tree for subset m over rels.
func (s *Search) buildTree(rels []*catalog.Relation, m mask) *plan.JoinNode {
	if bits.OnesCount32(m) == 1 {
		return &plan.JoinNode{Rel: rels[bits.TrailingZeros32(m)]}
	}
	e := s.best[m]
	return &plan.JoinNode{
		Left:        s.buildTree(rels, e.split),
		Right:       s.buildTree(rels, m^e.split),
		Selectivity: e.sel,
	}
}

// BestTrees returns up to k join trees for q, ordered by estimated cost.
// The first is the DP optimum; subsequent trees are the best trees whose
// root split differs from all previously selected ones (the paper retains
// the two best bushy trees per query). It panics on an invalid query or
// one of more than MaxRelations relations.
func (o *Optimizer) BestTrees(q *querygen.Query, k int) []*plan.JoinNode {
	if err := q.Validate(); err != nil {
		panic(err)
	}
	cards := make([]float64, len(q.Relations))
	for i, r := range q.Relations {
		cards[i] = float64(r.Cardinality)
	}
	s, err := SearchGraph(cards, q.Edges)
	if err != nil {
		panic(err)
	}
	if k < 1 {
		return nil
	}
	full := s.Full()
	tree := s.buildTree(q.Relations, full)
	tree.EstimateCards()
	trees := []*plan.JoinNode{tree}
	if k == 1 {
		return trees
	}
	// Later trees: every other root split, in the DP's enumeration
	// order, selection-sorted for the k-1 cheapest (k is tiny).
	type rootSplit struct {
		split mask
		sel   float64
		cost  float64
	}
	var splits []rootSplit
	lowest := full & (-full)
	for sub := (full - 1) & full; sub > 0; sub = (sub - 1) & full {
		if sub&lowest == 0 {
			continue
		}
		if cost, _, sel, ok := s.join(sub, full^sub); ok {
			splits = append(splits, rootSplit{split: sub, sel: sel, cost: cost})
		}
	}
	used := map[mask]bool{s.Split(full): true}
	for len(trees) < k {
		bestIdx := -1
		for i, sp := range splits {
			if used[sp.split] {
				continue
			}
			if bestIdx == -1 || sp.cost < splits[bestIdx].cost {
				bestIdx = i
			}
		}
		if bestIdx == -1 {
			break
		}
		sp := splits[bestIdx]
		used[sp.split] = true
		tree := &plan.JoinNode{
			Left:        s.buildTree(q.Relations, sp.split),
			Right:       s.buildTree(q.Relations, full^sp.split),
			Selectivity: sp.sel,
		}
		tree.EstimateCards()
		trees = append(trees, tree)
	}
	return trees
}

// Plans optimizes q and macro-expands its k best trees into execution
// plans homed on home, with the paper's default scheduling. Plan names
// append a tree suffix (".t1", ".t2").
func (o *Optimizer) Plans(q *querygen.Query, k int, home []int) []*plan.Tree {
	return o.PlansSchedule(q, k, home, plan.DefaultSchedule())
}

// PlansSchedule is Plans with explicit scheduling heuristics (§2.2), e.g.
// the full-parallel strategy of §3.2 with both heuristics disabled.
func (o *Optimizer) PlansSchedule(q *querygen.Query, k int, home []int, sched plan.Schedule) []*plan.Tree {
	var out []*plan.Tree
	for i, jt := range o.BestTrees(q, k) {
		name := fmt.Sprintf("%s.t%d", q.Name, i+1)
		t := plan.ExpandSchedule(name, q, jt, home, sched)
		if err := t.Validate(); err != nil {
			panic(err)
		}
		out = append(out, t)
	}
	return out
}

// SequentialTime estimates the best plan's response time on one processor
// with one disk; used by the query-generation gate (§5.1.2: sequential
// response time between 30 minutes and one hour).
func (o *Optimizer) SequentialTime(q *querygen.Query) simtime.Duration {
	seq, _, _ := o.EstimateStats(q)
	return seq
}

// EstimateStats returns the best plan's estimated sequential response
// time, its base-relation volume and its intermediate-result volume (both
// in tuples). The generation gate bounds both: the paper's 40 plans total
// about 1.3 GB of base relations and about 4 GB of intermediate results
// (§5.1.2), i.e. intermediates a small multiple of the base data —
// without the second bound the response-time window selects degenerate
// queries whose last join dominates everything.
func (o *Optimizer) EstimateStats(q *querygen.Query) (seq simtime.Duration, baseTuples, intermediateTuples int64) {
	trees := o.BestTrees(q, 1)
	if len(trees) == 0 {
		return 0, 0, 0
	}
	t := plan.Expand(q.Name+".seq", q, trees[0], []int{0})
	for _, op := range t.Ops {
		switch op.Kind {
		case plan.Scan:
			baseTuples += op.InCard
		case plan.Probe:
			intermediateTuples += op.OutCard
		}
	}
	return o.Costs.TreeSequentialTime(t, o.Cfg), baseTuples, intermediateTuples
}

// DistortedWork computes per-operator work estimates under cost-model
// errors, following §5.2.1 exactly: "the cardinalities of base and
// intermediate relations are distorted by a value chosen in [-e,+e], which
// propagates errors in estimating the cost of operators and the number of
// allocated processors". Every relation — base or intermediate — draws an
// independent factor in [1-rate, 1+rate]; an operator's estimated work
// uses the distorted cardinality of the relation(s) it consumes and
// produces. Independent per-relation errors are what make the estimated
// work *ratios* inside a pipeline chain move, and with them FP's processor
// allocation.
//
// With rate 0 the result equals the true Costs.OpWork for every operator.
// The slice is indexed by operator ID.
func DistortedWork(t *plan.Tree, r *xrand.Rand, rate float64, costs plan.Costs, cfg cluster.Config) []simtime.Duration {
	if rate < 0 {
		panic("optimizer: negative distortion rate")
	}
	// distOut[id] is the distorted cardinality of the relation operator
	// id produces. Base relations draw an independent factor; every join
	// result multiplies the (already distorted) input estimates by the
	// selectivity and draws one more factor of its own. Relative errors
	// therefore *compound* with join depth, exactly the instability of
	// cost models the paper exploits (an 8-deep intermediate estimate
	// errs by (1±e)^k, not ±e).
	distOut := make([]float64, len(t.Ops))
	distIn := make([]float64, len(t.Ops))
	work := make([]simtime.Duration, len(t.Ops))
	// Operators were created children-first during macro-expansion, so a
	// single pass in ID order sees producers before consumers.
	for _, op := range t.Ops {
		switch op.Kind {
		case plan.Scan:
			distOut[op.ID] = float64(op.OutCard) * (1 + r.Range(-rate, rate))
			distIn[op.ID] = distOut[op.ID]
		case plan.Build:
			distOut[op.ID] = 0
		case plan.Probe:
			distOut[op.ID] = op.Selectivity * distIn[op.ID] * distIn[op.Partner.ID] *
				(1 + r.Range(-rate, rate))
		}
		if c := op.Consumer; c != nil {
			distIn[c.ID] = distOut[op.ID]
		}
		var instr float64
		switch op.Kind {
		case plan.Scan:
			instr = distOut[op.ID] * float64(costs.ScanTuple)
		case plan.Build:
			instr = distIn[op.ID] * float64(costs.BuildTuple)
		case plan.Probe:
			instr = distIn[op.ID]*float64(costs.ProbeTuple) + distOut[op.ID]*float64(costs.ResultTuple)
		}
		work[op.ID] = cfg.InstrTime(int64(instr)) + costs.OpIOTime(op, cfg)
	}
	return work
}
