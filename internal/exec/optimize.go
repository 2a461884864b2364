package exec

// The cost-based planning bridge: translate a literal builder plan into
// the optimizer's query-graph form, cost it from ANALYZE statistics,
// run the DP search (internal/optimizer — the paper's §5.1.2 stand-in
// for the DBS3 optimizer), and rebuild the chosen tree as an exec plan.
//
// The bridge never changes results. A reordered tree emits the same row
// multiset, and when the new leaf order would permute output columns the
// root join's Out list restores the literal column order — a permutation
// of column headers, so a reordered plan stays columnar to the root.
// Plans the graph extraction does not reorder — a join with an Out list
// of its own (a Project step), a NoReorder hint, a resident leaf whose
// rows are not as wide as its declared columns — fall back to the
// literal order with statistics-derived RowsHints (exactly the
// hints-only mode), and the blocking condition is reported as the
// PlanChoice's Reason.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"hierdb/internal/catalog"
	"hierdb/internal/optimizer"
	"hierdb/internal/querygen"
	"hierdb/internal/vec"
)

// OptimizeMode selects how much planning Optimize applies.
type OptimizeMode int

const (
	// OptimizeOff returns the literal plan untouched.
	OptimizeOff OptimizeMode = iota
	// OptimizeHints keeps the literal tree shape but fills scheduling
	// estimates (RowsHint) from catalog statistics on cloned nodes.
	OptimizeHints
	// OptimizeFull reorders joins with the DP search (and applies the
	// hint pass when the plan cannot be safely reordered).
	OptimizeFull
)

// StatsFunc resolves a table's ANALYZE statistics; nil results mean the
// table was not analyzed and default selectivities apply.
type StatsFunc func(*Table) *catalog.TableStats

// PlanChoice is Optimize's outcome: the plan to execute plus how it was
// chosen. The input plan is never mutated — hints and reorderings apply
// to cloned nodes.
type PlanChoice struct {
	// Root is the plan to execute.
	Root Node
	// Reordered reports that the full mode replaced the literal join
	// order with the DP optimum.
	Reordered bool
	// Reason, in full mode, says why the literal order was kept ("" when
	// the plan was reordered or the mode stops at hints).
	Reason string

	// info is the analysis planning ran (analyzed), whose estimates
	// Describe reports; in off mode Describe analyzes without statistics.
	info     treeInfo
	analyzed bool
}

// Default selectivities when statistics cannot answer ([Selinger79]'s
// magic numbers, unchanged in spirit since).
const (
	filterSelectivity    = 1.0 / 3
	rangeSelectivity     = 1.0 / 3
	defaultEqSelectivity = 0.1
)

// Optimize plans the query rooted at root under the given mode. It
// always returns a choice — planning never fails; conditions that block
// reordering keep the literal order and surface as Reason.
func Optimize(root Node, mode OptimizeMode, stats StatsFunc) *PlanChoice {
	pc := &PlanChoice{Root: root}
	if mode == OptimizeOff || root == nil {
		return pc
	}
	ti := &pc.info
	ti.analyze(root, stats)
	pc.analyzed = true
	if mode == OptimizeFull && ti.reason == "" {
		if nr, ok := ti.reorder(); ok {
			pc.Root = nr
			pc.Reordered = true
			return pc
		}
	}
	if mode == OptimizeFull {
		pc.Reason = ti.reason
	}
	pc.Root = ti.annotate(root)
	return pc
}

// ---------------------------------------------------------------------
// Tree analysis: leaves, predicate edges, cardinality estimates
// ---------------------------------------------------------------------

// leafInfo is one base-relation scan of the analyzed plan.
type leafInfo struct {
	scan     *Scan
	width    int
	est      float64 // estimated post-filter output rows (>= 1)
	rowBytes float64
	st       *catalog.TableStats
}

// qedge is one join predicate mapped onto leaf key columns.
type qedge struct {
	a, b       int // leaf indices
	acol, bcol int // key column local to each leaf's schema
	sel        float64
}

// nodeEst is one plan node's estimated output rows and row bytes.
type nodeEst struct {
	n             Node
	est, rowBytes float64
}

// treeInfo is the analyzed logical tree: its leaves, the predicate
// graph over them (when extractable), and per-node output estimates.
// Leaves are numbered in the literal tree's output column order (probe
// side first), so a subtree's leaves are a run of indices and the
// literal order is the identity.
type treeInfo struct {
	stats  StatsFunc
	leaves []leafInfo
	edges  []qedge
	// ests holds the estimates of every node analyzed or built — the
	// literal tree's and its clones' — for Explain (estOf).
	ests []nodeEst
	// reason is the first condition blocking reordering ("" = clean).
	reason string
}

// analyze walks the plan bottom-up, estimating every node's output
// cardinality and extracting the predicate graph for the DP search.
func (ti *treeInfo) analyze(root Node, stats StatsFunc) {
	ti.stats = stats
	ops, scans, _, _ := planSize(root)
	joins := (ops - scans) / 2
	ti.leaves = make([]leafInfo, 0, scans)
	ti.edges = make([]qedge, 0, joins)
	ti.ests = make([]nodeEst, 0, 2*(scans+joins)) // the literal nodes, then their clones
	ti.walk(root)
	if ti.reason == "" {
		switch n := len(ti.leaves); {
		case n < 2:
			ti.reason = "single-relation plan"
		case n > optimizer.MaxRelations:
			ti.reason = fmt.Sprintf("%d relations exceed the DP capacity (%d)", n, optimizer.MaxRelations)
		}
	}
}

// record notes a node's estimates.
func (ti *treeInfo) record(n Node, est, rowBytes float64) {
	ti.ests = append(ti.ests, nodeEst{n: n, est: est, rowBytes: rowBytes})
}

// estOf is a node's last recorded estimates (zero when it has none).
func (ti *treeInfo) estOf(n Node) nodeEst {
	for i := len(ti.ests) - 1; i >= 0; i-- {
		if ti.ests[i].n == n {
			return ti.ests[i]
		}
	}
	return nodeEst{}
}

// walk analyzes one subtree, appending its leaves, and returns its
// column width and estimates.
func (ti *treeInfo) walk(n Node) (width int, est, rowBytes float64) {
	switch v := n.(type) {
	case *Scan:
		if v.Table == nil {
			ti.block("scan without a table")
			return 0, 0, 0
		}
		var st *catalog.TableStats
		if ti.stats != nil {
			st = ti.stats(v.Table)
		}
		est := estimateScan(v, st, float64(v.Table.NumRows()))
		rb := float64(catalog.DefaultTupleBytes)
		if st != nil && st.AvgRowBytes > 0 {
			rb = st.AvgRowBytes
		}
		if ti.reason == "" {
			if issue := leafReorderIssue(v.Table); issue != "" {
				ti.block(fmt.Sprintf("table %q has %s", v.Table.Name, issue))
			}
		}
		ti.leaves = append(ti.leaves, leafInfo{scan: v, width: len(v.Table.Cols), est: est, rowBytes: rb, st: st})
		ti.record(v, est, rb)
		return len(v.Table.Cols), est, rb
	case *Join:
		plo := len(ti.leaves)
		pw, pEst, pRB := ti.walk(v.Probe)
		blo := len(ti.leaves)
		bw, bEst, bRB := ti.walk(v.Build)
		var e *qedge
		if ti.reason == "" {
			switch {
			case len(v.Out) > 0:
				ti.block("a Project picks the join's output columns")
			case v.NoReorder:
				ti.block("a NoReorder hint pins the literal order")
			case v.ProbeKey < 0 || v.ProbeKey >= pw || v.BuildKey < 0 || v.BuildKey >= bw:
				ti.block("a join key column is out of range") // compile rejects the plan
			default:
				la, ca := ti.locate(plo, v.ProbeKey)
				lb, cb := ti.locate(blo, v.BuildKey)
				ti.edges = append(ti.edges, qedge{a: la, acol: ca, b: lb, bcol: cb})
				e = &ti.edges[len(ti.edges)-1]
			}
		}
		est := pEst // the legacy scheduling default (selectivity 1)
		var sel float64
		switch {
		case v.RowsHint > 0:
			est = float64(v.RowsHint)
			sel = est / (pEst * bEst)
		case v.Selectivity > 0:
			est = v.Selectivity * pEst
			sel = v.Selectivity / bEst
		case e != nil:
			// [Selinger79] equi-join estimate: |P ⋈ B| = |P|·|B| / max(V(a), V(b)).
			da := ti.keyDistinct(e.a, e.acol)
			db := ti.keyDistinct(e.b, e.bcol)
			d := da
			if db > d {
				d = db
			}
			sel = 1 / d
			est = pEst * bEst * sel
		default:
			sel = est / (pEst * bEst)
		}
		if est < 1 {
			est = 1
		}
		if e != nil {
			if !(sel > 0) || math.IsInf(sel, 0) || math.IsNaN(sel) {
				sel = 1e-12
			}
			e.sel = sel
		}
		ti.record(v, est, pRB+bRB)
		return pw + bw, est, pRB + bRB
	default:
		ti.block(fmt.Sprintf("unknown plan node %T", n))
		return 0, 0, 0
	}
}

// block records the first reorder-blocking condition.
func (ti *treeInfo) block(reason string) {
	if ti.reason == "" {
		ti.reason = reason
	}
}

// locate maps a column of the concatenated schema of the subtree whose
// leaves start at lo back to the leaf it projects and the column index
// local to that leaf.
//
//hierdb:hotpath
func (ti *treeInfo) locate(lo, col int) (leaf, local int) {
	for li := lo; li < len(ti.leaves); li++ {
		w := ti.leaves[li].width
		if col < w {
			return li, col
		}
		col -= w
	}
	return -1, -1
}

// keyDistinct is the distinct-count estimate of a leaf's key column,
// clamped to the leaf's estimated (post-filter) cardinality. Without
// statistics the key is assumed unique — the classic FK->PK guess.
//
//hierdb:hotpath
func (ti *treeInfo) keyDistinct(leaf, col int) float64 {
	l := &ti.leaves[leaf]
	d := l.est
	if ds := l.st.DistinctOf(col); ds > 0 {
		d = float64(ds)
	}
	if d > l.est {
		d = l.est
	}
	if d < 1 {
		d = 1
	}
	return d
}

// estimateScan estimates a scan's post-filter output rows.
//
//hierdb:hotpath
func estimateScan(s *Scan, st *catalog.TableStats, base float64) float64 {
	if s.RowsHint > 0 {
		return float64(s.RowsHint)
	}
	est := base
	for i := range s.Preds {
		est *= predSelectivity(&s.Preds[i], st, base)
	}
	if s.Filter != nil {
		est *= filterSelectivity
	}
	if est > base {
		est = base
	}
	if est < 1 {
		est = 1
	}
	return est
}

// predSelectivity estimates the fraction of rows one column predicate
// passes, consulting distinct/null statistics when available.
//
//hierdb:hotpath
func predSelectivity(p *vec.Pred, st *catalog.TableStats, rows float64) float64 {
	switch p.Op {
	case vec.Eq:
		if d := st.DistinctOf(p.Col); d > 0 {
			return 1 / float64(d)
		}
		return defaultEqSelectivity
	case vec.Ne:
		if d := st.DistinctOf(p.Col); d > 0 {
			return 1 - 1/float64(d)
		}
		return 1 - defaultEqSelectivity
	case vec.Lt, vec.Le, vec.Gt, vec.Ge:
		return rangeSelectivity
	case vec.IsNull:
		if st != nil && p.Col >= 0 && p.Col < len(st.Cols) && rows > 0 {
			return float64(st.Cols[p.Col].Nulls) / rows
		}
		return 0.01
	case vec.NotNull:
		if st != nil && p.Col >= 0 && p.Col < len(st.Cols) && rows > 0 {
			return 1 - float64(st.Cols[p.Col].Nulls)/rows
		}
		return 0.99
	}
	return 1
}

// leafReorderIssue reports why a table's rows cannot survive the output
// permutation a reordered plan may need ("" = safe): the permutation is
// computed from the declared Cols, so a resident table's columnization
// must be exactly that wide. (A table file is rectangular.)
func leafReorderIssue(t *Table) string {
	if b := t.Columnar(); b.N > 0 && len(b.Cols) != len(t.Cols) {
		return "rows not as wide as the declared schema"
	}
	return ""
}

// roundEst converts a cardinality estimate to the int64 hint form.
//
//hierdb:hotpath
func roundEst(est float64) int64 {
	if est <= 1 {
		return 1
	}
	if est > 1e15 {
		return int64(1e15)
	}
	return int64(est + 0.5)
}

// ---------------------------------------------------------------------
// Hints-only pass
// ---------------------------------------------------------------------

// annotate clones the literal tree with statistics-derived RowsHints,
// improving scheduling estimates (static allocation, hash-table
// presizing) without touching shape, order, or results. Explicit user
// hints win over derived ones.
func (ti *treeInfo) annotate(n Node) Node {
	switch v := n.(type) {
	case *Scan:
		ns := *v
		e := ti.estOf(v)
		if ns.RowsHint <= 0 {
			ns.RowsHint = roundEst(e.est)
		}
		ti.record(&ns, e.est, e.rowBytes)
		return &ns
	case *Join:
		nj := *v
		nj.Probe = ti.annotate(v.Probe)
		nj.Build = ti.annotate(v.Build)
		e := ti.estOf(v)
		if nj.RowsHint <= 0 {
			nj.RowsHint = roundEst(e.est)
		}
		ti.record(&nj, e.est, e.rowBytes)
		return &nj
	default:
		return n
	}
}

// ---------------------------------------------------------------------
// Full reordering: DP search + exec-tree rebuild
// ---------------------------------------------------------------------

// reorder runs the DP over the extracted predicate graph — the leaves'
// estimates as cardinalities, the edges' selectivities — and rebuilds
// the winning tree as an exec plan. ok = false (with reason set) when
// the search rejects the graph.
func (ti *treeInfo) reorder() (Node, bool) {
	n := len(ti.leaves)
	cards := make([]float64, n)
	for i := range ti.leaves {
		cards[i] = float64(roundEst(ti.leaves[i].est))
	}
	edges := make([]querygen.Edge, len(ti.edges))
	for i, e := range ti.edges {
		edges[i] = querygen.Edge{A: e.a, B: e.b, Selectivity: e.sel}
	}
	s, err := optimizer.SearchGraph(cards, edges)
	if err != nil {
		ti.block(fmt.Sprintf("predicate graph rejected: %v", err))
		return nil, false
	}
	order := make([]int, n)
	node, _, _ := ti.rebuild(&s, s.Full(), order)
	root := node.(*Join)
	for i, li := range order {
		if li != i {
			root.Out = ti.permutation(order)
			break
		}
	}
	return root, true
}

// rebuild turns the search's tree for subset m into an exec subtree,
// writing its leaf order into order (exactly as long as m has leaves)
// and returning the node with its estimated cardinality and row bytes.
// Leaves reuse the literal scans (cloned, with hints); build sides
// follow plan.BuildAuto's smaller-input rule.
func (ti *treeInfo) rebuild(s *optimizer.Search, m uint32, order []int) (Node, float64, float64) {
	if bits.OnesCount32(m) == 1 {
		i := bits.TrailingZeros32(m)
		l := &ti.leaves[i]
		ns := *l.scan
		if ns.RowsHint <= 0 {
			ns.RowsHint = roundEst(l.est)
		}
		ti.record(&ns, l.est, l.rowBytes)
		order[0] = i
		return &ns, l.est, l.rowBytes
	}
	lmask := s.Split(m)
	rmask := m ^ lmask
	nl := bits.OnesCount32(lmask)
	ln, lcard, lrb := ti.rebuild(s, lmask, order[:nl])
	rn, rcard, rrb := ti.rebuild(s, rmask, order[nl:])
	// The predicate graph is a tree, so exactly one edge crosses the
	// split the DP chose.
	var e *qedge
	for i := range ti.edges {
		am := uint32(1) << uint(ti.edges[i].a)
		bm := uint32(1) << uint(ti.edges[i].b)
		if (lmask&am != 0 && rmask&bm != 0) || (lmask&bm != 0 && rmask&am != 0) {
			e = &ti.edges[i]
			break
		}
	}
	probeN, buildN, probeMask, np := ln, rn, lmask, nl
	if lcard < rcard {
		// The right part probes: its leaves come first.
		probeN, buildN, probeMask, np = rn, ln, rmask, len(order)-nl
		slices.Reverse(order)
		slices.Reverse(order[:np])
		slices.Reverse(order[np:])
	}
	out := e.sel * lcard * rcard
	if out < 1 {
		out = 1
	}
	pLeaf, pCol, bLeaf, bCol := e.a, e.acol, e.b, e.bcol
	if probeMask&(uint32(1)<<uint(e.a)) == 0 {
		pLeaf, pCol, bLeaf, bCol = e.b, e.bcol, e.a, e.acol
	}
	j := &Join{
		Build:    buildN,
		Probe:    probeN,
		BuildKey: ti.offsetOf(order[np:], bLeaf) + bCol,
		ProbeKey: ti.offsetOf(order[:np], pLeaf) + pCol,
		RowsHint: roundEst(out),
	}
	ti.record(j, out, lrb+rrb)
	return j, out, lrb + rrb
}

// offsetOf is the column offset of a leaf within a subtree's
// concatenated schema.
//
//hierdb:hotpath
func (ti *treeInfo) offsetOf(order []int, leaf int) int {
	off := 0
	for _, li := range order {
		if li == leaf {
			return off
		}
		off += ti.leaves[li].width
	}
	return off
}

// permutation is the reordered root join's Out list: it restores the
// literal builder's output column order (leaf 0's columns first), so
// callers (and any GroupBy key over column positions) observe identical
// rows.
func (ti *treeInfo) permutation(order []int) []int {
	width := 0
	for i := range ti.leaves {
		width += ti.leaves[i].width
	}
	perm := make([]int, 0, width)
	for li := range ti.leaves {
		base := ti.offsetOf(order, li)
		for c := 0; c < ti.leaves[li].width; c++ {
			perm = append(perm, base+c)
		}
	}
	return perm
}

// ---------------------------------------------------------------------
// Plan description (Explain)
// ---------------------------------------------------------------------

// ExplainNode is one operator of a described plan. Estimated rows come
// from the planner; actual rows are -1 until Actualize pairs the node
// with a finished run's Stats.
type ExplainNode struct {
	// Kind is "scan", "join", or "groupby".
	Kind string
	// Table is the scanned table's name (scans only).
	Table string
	// Preds counts the scan's column predicates; Filtered reports a row
	// Filter closure.
	Preds    int
	Filtered bool
	// EstRows is the planner's output-cardinality estimate (-1 when the
	// planner has none, e.g. group-by output).
	EstRows int64
	// ActRows is the operator's actual output rows, -1 until Actualize.
	ActRows int64
	// Strategy describes the chosen physical strategy (joins: "hash", or
	// "hash, grace spill expected" when the estimated per-node build
	// exceeds the memory budget).
	Strategy string
	// OpID is the producing physical operator's id (scan op for scans,
	// probe op for joins; -1 for groupby). BuildOpID is the join's build
	// operator id (-1 otherwise).
	OpID      int
	BuildOpID int
	// Children: joins list [probe, build]; groupby lists its input.
	Children []*ExplainNode
}

// Describe compiles the chosen plan and returns its structured
// description, with operator ids matching what a Run of the same choice
// executes (compilation is deterministic). gb, when non-nil, wraps the
// tree in a groupby node; cfg is the configuration of the engine the
// plan would run on (the spill heuristic divides build bytes across its
// nodes and compares them with its MemoryPerNode budget).
func (pc *PlanChoice) Describe(gb *GroupBy, cfg EngineConfig) (*ExplainNode, error) {
	if !pc.analyzed {
		pc.info.analyze(pc.Root, nil)
		pc.analyzed = true
	}
	phys, err := compile(pc.Root)
	if err != nil {
		return nil, err
	}
	nodes := max(cfg.Nodes, 1)
	root := pc.info.describeOp(phys, phys.root, cfg.MemoryPerNode, nodes)
	if gb != nil {
		root = &ExplainNode{Kind: "groupby", EstRows: -1, ActRows: -1, OpID: -1, BuildOpID: -1, Children: []*ExplainNode{root}}
	}
	return root, nil
}

func (ti *treeInfo) describeOp(p *physical, op *pop, budget int64, nodes int) *ExplainNode {
	switch op.kind {
	case opScan:
		s := op.scan
		return &ExplainNode{
			Kind:      "scan",
			Table:     s.Table.Name,
			Preds:     len(s.Preds),
			Filtered:  s.Filter != nil,
			EstRows:   roundEst(ti.estOf(s).est),
			ActRows:   -1,
			OpID:      op.id,
			BuildOpID: -1,
		}
	case opProbe:
		bld := op.partner
		j := op.join
		strat := "hash"
		// What a node is charged for its share of the build (buildBytes).
		if b := ti.estOf(j.Build); budget > 0 && b.est*(b.rowBytes+sealIndexRowBytes)/float64(nodes) > float64(budget) {
			strat = "hash, grace spill expected"
		}
		return &ExplainNode{
			Kind:      "join",
			EstRows:   roundEst(ti.estOf(j).est),
			ActRows:   -1,
			Strategy:  strat,
			OpID:      op.id,
			BuildOpID: bld.id,
			Children: []*ExplainNode{
				ti.describeOp(p, producerOf(p, op), budget, nodes),
				ti.describeOp(p, producerOf(p, bld), budget, nodes),
			},
		}
	}
	return nil
}

// Actualize fills ActRows throughout the subtree from a finished run's
// Stats: per-operator production counters for scans and joins, the
// delivered result rows for groupby (its output, per ResultRows
// semantics).
func (n *ExplainNode) Actualize(st *Stats) {
	if n == nil || st == nil {
		return
	}
	switch {
	case n.Kind == "groupby":
		n.ActRows = st.ResultRows
	case n.OpID >= 0 && n.OpID < len(st.OpRows):
		n.ActRows = st.OpRows[n.OpID]
	}
	for _, c := range n.Children {
		c.Actualize(st)
	}
}

// Cost constants (ns per row, single-threaded) calibrated from the
// BENCH_engine.json era of BenchmarkEngineJoinDP — ~23ms for a
// 100k-probe / 10k-build / 100k-result join — spread over the model's
// per-phase touches. They price Explain's plan-cost estimate; the DP
// search itself keeps the paper's sum-of-intermediates objective.
const (
	costScanNs   = 25
	costBuildNs  = 80
	costProbeNs  = 60
	costResultNs = 50
)

// EstimateCostNs returns the subtree's calibrated single-threaded cost
// estimate in nanoseconds.
func (n *ExplainNode) EstimateCostNs() int64 {
	if n == nil {
		return 0
	}
	switch n.Kind {
	case "scan":
		return n.EstRows * costScanNs
	case "join":
		probe, build := n.Children[0], n.Children[1]
		cost := probe.EstimateCostNs() + build.EstimateCostNs()
		return cost + build.EstRows*costBuildNs + probe.EstRows*costProbeNs + n.EstRows*costResultNs
	case "groupby":
		in := n.Children[0]
		return in.EstimateCostNs() + in.EstRows*costBuildNs
	}
	return 0
}

// String renders the subtree as a stable indented text tree — the
// Explain grammar golden tests assert on.
func (n *ExplainNode) String() string {
	var sb strings.Builder
	n.render(&sb, "", "", "")
	return strings.TrimRight(sb.String(), "\n")
}

func (n *ExplainNode) render(sb *strings.Builder, prefix, childPrefix, label string) {
	sb.WriteString(prefix)
	if label != "" {
		sb.WriteString(label)
		sb.WriteString(": ")
	}
	sb.WriteString(n.line())
	sb.WriteByte('\n')
	for i, c := range n.Children {
		var l string
		if n.Kind == "join" {
			if i == 0 {
				l = "probe"
			} else {
				l = "build"
			}
		}
		if i == len(n.Children)-1 {
			c.render(sb, childPrefix+"└─ ", childPrefix+"   ", l)
		} else {
			c.render(sb, childPrefix+"├─ ", childPrefix+"│  ", l)
		}
	}
}

func (n *ExplainNode) line() string {
	act := "-"
	if n.ActRows >= 0 {
		act = strconv.FormatInt(n.ActRows, 10)
	}
	switch n.Kind {
	case "scan":
		s := "scan " + n.Table
		if n.Preds > 0 {
			s += " preds=" + strconv.Itoa(n.Preds)
		}
		if n.Filtered {
			s += " filter"
		}
		return s + " est=" + strconv.FormatInt(n.EstRows, 10) + " act=" + act
	case "join":
		s := "join est=" + strconv.FormatInt(n.EstRows, 10) + " act=" + act
		if n.Strategy != "" {
			s += " [" + n.Strategy + "]"
		}
		return s
	case "groupby":
		return "groupby act=" + act
	}
	return n.Kind
}
