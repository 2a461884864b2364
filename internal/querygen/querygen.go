// Package querygen generates random multi-join queries following the
// methodology of §5.1.2 of the paper, which in turn follows [Shekita93]:
//
//   - the predicate connection graph is a random acyclic connected graph
//     (multi-join queries in practice have simple predicates);
//   - each relation's cardinality is drawn from one of the small, medium or
//     large ranges;
//   - the join selectivity of each edge (R,S) is drawn so that the join
//     result has between 0.5x and 1.5x the cardinality of the larger
//     operand;
//   - queries are kept only if their estimated sequential response time
//     falls inside a window (the paper uses 30-60 minutes).
package querygen

import (
	"fmt"

	"hierdb/internal/catalog"
	"hierdb/internal/xrand"
)

// Edge is one join predicate between two relations, identified by their
// indices in Query.Relations.
type Edge struct {
	A, B int
	// Selectivity is the join selectivity factor: |R join S| =
	// Selectivity * |R| * |S|.
	Selectivity float64
}

// Query is a multi-join query: relations plus an acyclic connected
// predicate graph.
type Query struct {
	// Name identifies the query in reports (Q01, Q02, ...).
	Name      string
	Relations []*catalog.Relation
	Edges     []Edge
}

// NumJoins returns the number of join predicates.
func (q *Query) NumJoins() int { return len(q.Edges) }

// Validate checks structural invariants: the graph must be connected and
// acyclic (exactly n-1 edges reaching every relation), selectivities
// positive, relations valid.
func (q *Query) Validate() error {
	n := len(q.Relations)
	if n < 2 {
		return fmt.Errorf("querygen: %s: %d relations", q.Name, n)
	}
	for _, r := range q.Relations {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	if len(q.Edges) != n-1 {
		return fmt.Errorf("querygen: %s: %d edges for %d relations (graph must be a tree)", q.Name, len(q.Edges), n)
	}
	adj := make([][]int, n)
	for i, e := range q.Edges {
		if e.A < 0 || e.A >= n || e.B < 0 || e.B >= n || e.A == e.B {
			return fmt.Errorf("querygen: %s: edge %d joins %d,%d", q.Name, i, e.A, e.B)
		}
		if e.Selectivity <= 0 {
			return fmt.Errorf("querygen: %s: edge %d selectivity %g", q.Name, i, e.Selectivity)
		}
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	if count != n {
		return fmt.Errorf("querygen: %s: graph not connected (%d of %d reachable)", q.Name, count, n)
	}
	return nil
}

// Params controls generation.
type Params struct {
	// Relations is the number of relations per query (paper: 12).
	Relations int
	// Nodes is the number of SM-nodes every relation is partitioned
	// across.
	Nodes int
	// ClassWeights gives the relative probability of drawing each size
	// class, indexed by catalog.SizeClass. The zero value means uniform.
	ClassWeights [3]float64
}

// DefaultParams matches the paper: 12 relations, uniform class mix.
func DefaultParams(nodes int) Params {
	return Params{Relations: 12, Nodes: nodes}
}

// Generate draws one random query. Determinism: the result depends only on
// r's state and p.
func Generate(r *xrand.Rand, name string, p Params) *Query {
	if p.Relations < 2 {
		panic("querygen: need at least two relations")
	}
	if p.Nodes < 1 {
		panic("querygen: need at least one node")
	}
	w := p.ClassWeights
	if w[0] == 0 && w[1] == 0 && w[2] == 0 {
		w = [3]float64{1, 1, 1}
	}
	home := catalog.AllNodes(p.Nodes)
	q := &Query{Name: name}
	for i := 0; i < p.Relations; i++ {
		class := drawClass(r, w)
		rel := catalog.Random(r, fmt.Sprintf("%s_R%02d", name, i), class, home)
		q.Relations = append(q.Relations, rel)
	}
	// Random spanning tree: attach each new vertex to a uniformly chosen
	// earlier vertex, then relabel with a random permutation so the tree
	// shape is unbiased with respect to relation sizes.
	perm := r.Perm(p.Relations)
	for i := 1; i < p.Relations; i++ {
		j := r.Intn(i)
		a, b := perm[i], perm[j]
		ra, rb := q.Relations[a], q.Relations[b]
		max := ra.Cardinality
		if rb.Cardinality > max {
			max = rb.Cardinality
		}
		// Result cardinality uniform in [0.5, 1.5] x the larger operand
		// (§5.1.2).
		sel := r.Range(0.5, 1.5) * float64(max) / (float64(ra.Cardinality) * float64(rb.Cardinality))
		q.Edges = append(q.Edges, Edge{A: a, B: b, Selectivity: sel})
	}
	return q
}

func drawClass(r *xrand.Rand, w [3]float64) catalog.SizeClass {
	total := w[0] + w[1] + w[2]
	u := r.Float64() * total
	switch {
	case u < w[0]:
		return catalog.Small
	case u < w[0]+w[1]:
		return catalog.Medium
	default:
		return catalog.Large
	}
}

// Estimator computes an estimated sequential response time for a query, in
// arbitrary but consistent units. It is supplied by the optimizer package
// (kept as an interface here to avoid an import cycle).
type Estimator interface {
	SequentialCost(q *Query) float64
}

// GenerateGated draws queries until accept returns true, or maxAttempts is
// reached, in which case the closest-to-accepted query drawn is returned.
// The paper gates on sequential response time between 30 and 60 minutes.
func GenerateGated(r *xrand.Rand, name string, p Params, maxAttempts int, accept func(*Query) (ok bool, distance float64)) *Query {
	var best *Query
	bestDist := 0.0
	for i := 0; i < maxAttempts; i++ {
		q := Generate(r, name, p)
		ok, dist := accept(q)
		if ok {
			return q
		}
		if best == nil || dist < bestDist {
			best, bestDist = q, dist
		}
	}
	return best
}

// PredOp is the comparison operator of a generated scan predicate. The
// values follow the real-data engine's operator order (Eq, Ne, Lt, Le,
// Gt, Ge, IsNull, NotNull), so a materializer converts by value.
type PredOp uint8

// Scan-predicate operators.
const (
	PredEq PredOp = iota
	PredNe
	PredLt
	PredLe
	PredGt
	PredGe
	PredIsNull
	PredNotNull
)

// ScanPred is one generated single-column predicate of a scan, abstract
// over the table it will run against: the materializer maps Col onto a
// real column and Pick onto one of that column's values.
type ScanPred struct {
	// Col is the column ordinal, in [0, ncols).
	Col int
	Op  PredOp
	// Pick, in [0,1), selects the comparison constant among the column's
	// values (and, for the materializer, among equivalent spellings of it).
	Pick float64
	// Foreign asks for a constant outside the column's type family — a
	// predicate that, by the engine's rules, matches no row.
	Foreign bool
}

// predOpWeights biases the draw toward operators that keep a fair share
// of a column (ranges, Ne, NotNull) so that a multi-join query whose
// scans all carry predicates usually still has a result; Eq and IsNull
// (which nearly or entirely empty a null-free scan) stay in the mix.
var predOpWeights = [...]int{PredEq: 1, PredNe: 6, PredLt: 6, PredLe: 6, PredGt: 6, PredGe: 6, PredIsNull: 1, PredNotNull: 6}

// ScanPreds draws the column predicates of one scan over a table of
// ncols columns: none (half the time), one or two, ANDed. Every
// operator occurs; one constant in thirty-two is Foreign. Determinism: the
// result depends only on r's state and ncols.
func ScanPreds(r *xrand.Rand, ncols int) []ScanPred {
	n := 0
	switch u := r.Float64(); {
	case u >= 0.8:
		n = 2
	case u >= 0.5:
		n = 1
	}
	total := 0
	for _, w := range predOpWeights {
		total += w
	}
	preds := make([]ScanPred, n)
	for i := range preds {
		u := r.Intn(total)
		op := PredEq
		for u >= predOpWeights[op] {
			u -= predOpWeights[op]
			op++
		}
		preds[i] = ScanPred{Col: r.Intn(ncols), Op: op, Pick: r.Float64(), Foreign: r.Intn(32) == 0}
	}
	return preds
}

// AggFunc is the function of a generated aggregate. The values follow
// the real-data engine's order (Count, Sum, Min, Max), so a materializer
// converts by value.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
)

// Agg is one generated aggregate: its function and, for every function
// but Count, a Pick in [0,1) selecting the argument among the output's
// numeric columns.
type Agg struct {
	Func AggFunc
	Pick float64
}

// GroupBy is one generated grouped aggregation over a join query's
// output, abstract over the plan it will end: the materializer maps the
// picks onto real columns. The key's place matters to an engine that
// aggregates a join without flattening it — a key from the last join's
// build side is resolved per build row, one from its probe side per
// match, and a projection renumbers both — so the draw covers all three.
type GroupBy struct {
	// KeyBuild draws the key from the build side of the plan's last join
	// (its probe side otherwise); KeyPick, in [0,1), selects the column
	// within that side.
	KeyBuild bool
	KeyPick  float64
	// Project asks for the plan to end in a column projection, the key
	// and the arguments named by their positions behind it; Shuffle seeds
	// the projection's column order.
	Project bool
	Shuffle uint64
	// Aggs holds one to three aggregates.
	Aggs []Agg
}

// DrawGroupBy draws one grouped aggregation: key side and projection
// each half the time, every function equally likely. Determinism: the
// result depends only on r's state.
func DrawGroupBy(r *xrand.Rand) GroupBy {
	g := GroupBy{KeyBuild: r.Intn(2) == 0, KeyPick: r.Float64(), Project: r.Intn(2) == 0, Shuffle: r.Uint64()}
	g.Aggs = make([]Agg, 1+r.Intn(3))
	for i := range g.Aggs {
		g.Aggs[i] = Agg{Func: AggFunc(r.Intn(4)), Pick: r.Float64()}
	}
	return g
}
