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
	"slices"
	"strconv"
	"strings"

	"hierdb/internal/catalog"
	"hierdb/internal/optimizer"
	"hierdb/internal/plan"
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

	info *treeInfo
}

// dpMaxRelations mirrors the optimizer's DP capacity (2^n subset table).
const dpMaxRelations = 20

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
	ti := analyzeTree(root, stats)
	pc.info = ti
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

// treeInfo is the analyzed logical tree: its leaves, the predicate
// graph over them (when extractable), and per-node output estimates.
type treeInfo struct {
	stats    StatsFunc
	leaves   []leafInfo
	edges    []qedge
	order    []int // leaf index sequence in the literal output column order
	est      map[Node]float64
	rowBytes map[Node]float64
	// reason is the first condition blocking reordering ("" = clean).
	reason string
}

// analyzeTree walks the plan bottom-up, estimating every node's output
// cardinality and extracting the predicate graph for the DP search.
func analyzeTree(root Node, stats StatsFunc) *treeInfo {
	ti := &treeInfo{
		stats:    stats,
		est:      make(map[Node]float64),
		rowBytes: make(map[Node]float64),
	}
	ti.order, _ = ti.walk(root)
	if ti.reason == "" {
		switch n := len(ti.leaves); {
		case n < 2:
			ti.reason = "single-relation plan"
		case n > dpMaxRelations:
			ti.reason = fmt.Sprintf("%d relations exceed the DP capacity (%d)", n, dpMaxRelations)
		}
	}
	return ti
}

// walk analyzes one subtree, returning its leaf order and column width.
func (ti *treeInfo) walk(n Node) (order []int, width int) {
	switch v := n.(type) {
	case *Scan:
		if v.Table == nil {
			ti.block("scan without a table")
			return nil, 0
		}
		li := len(ti.leaves)
		var st *catalog.TableStats
		if ti.stats != nil {
			st = ti.stats(v.Table)
		}
		base := float64(v.Table.NumRows())
		est := estimateScan(v, st, base)
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
		ti.est[v] = est
		ti.rowBytes[v] = rb
		return []int{li}, len(v.Table.Cols)
	case *Join:
		po, pw := ti.walk(v.Probe)
		bo, bw := ti.walk(v.Build)
		order = append(append(make([]int, 0, len(po)+len(bo)), po...), bo...)
		width = pw + bw
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
				la, ca := ti.locate(po, v.ProbeKey)
				lb, cb := ti.locate(bo, v.BuildKey)
				ti.edges = append(ti.edges, qedge{a: la, acol: ca, b: lb, bcol: cb})
				e = &ti.edges[len(ti.edges)-1]
			}
		}
		pEst, bEst := ti.est[v.Probe], ti.est[v.Build]
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
		ti.est[v] = est
		ti.rowBytes[v] = ti.rowBytes[v.Probe] + ti.rowBytes[v.Build]
		return order, width
	default:
		ti.block(fmt.Sprintf("unknown plan node %T", n))
		return nil, 0
	}
}

// block records the first reorder-blocking condition.
func (ti *treeInfo) block(reason string) {
	if ti.reason == "" {
		ti.reason = reason
	}
}

// locate maps a column of a subtree's concatenated schema back to the
// leaf it projects and the column index local to that leaf.
//
//hierdb:hotpath
func (ti *treeInfo) locate(order []int, col int) (leaf, local int) {
	for _, li := range order {
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
		if ns.RowsHint <= 0 {
			ns.RowsHint = roundEst(ti.est[v])
		}
		ti.est[&ns] = ti.est[v]
		ti.rowBytes[&ns] = ti.rowBytes[v]
		return &ns
	case *Join:
		nj := *v
		nj.Probe = ti.annotate(v.Probe)
		nj.Build = ti.annotate(v.Build)
		if nj.RowsHint <= 0 {
			nj.RowsHint = roundEst(ti.est[v])
		}
		ti.est[&nj] = ti.est[v]
		ti.rowBytes[&nj] = ti.rowBytes[v]
		return &nj
	default:
		return n
	}
}

// ---------------------------------------------------------------------
// Full reordering: DP search + exec-tree rebuild
// ---------------------------------------------------------------------

// reorder runs the DP over the extracted predicate graph and rebuilds
// the winning tree as an exec plan. ok = false (with reason set) when
// the graph fails optimizer validation.
func (ti *treeInfo) reorder() (Node, bool) {
	n := len(ti.leaves)
	rels := make([]*catalog.Relation, n)
	for i := range ti.leaves {
		l := &ti.leaves[i]
		tb := int64(l.rowBytes)
		if tb < 1 {
			tb = 1
		}
		rels[i] = &catalog.Relation{
			Name:        "r" + strconv.Itoa(i),
			Cardinality: roundEst(l.est),
			TupleBytes:  tb,
			Home:        []int{0},
		}
	}
	edges := make([]querygen.Edge, len(ti.edges))
	for i, e := range ti.edges {
		edges[i] = querygen.Edge{A: e.a, B: e.b, Selectivity: e.sel}
	}
	qq := &querygen.Query{Name: "bridge", Relations: rels, Edges: edges}
	if err := qq.Validate(); err != nil {
		ti.block(fmt.Sprintf("predicate graph rejected: %v", err))
		return nil, false
	}
	trees := (&optimizer.Optimizer{}).BestTrees(qq, 1)
	if len(trees) == 0 {
		ti.block("DP search produced no plan")
		return nil, false
	}
	relIdx := make(map[*catalog.Relation]int, n)
	for i, r := range rels {
		relIdx[r] = i
	}
	node, order, _, _ := ti.rebuild(trees[0], relIdx)
	root, isJoin := node.(*Join)
	if !isJoin {
		ti.block("DP search produced a leaf plan")
		return nil, false
	}
	if !slices.Equal(order, ti.order) {
		return ti.permuteRoot(root, order), true
	}
	return root, true
}

// rebuild turns one plan.JoinNode subtree into an exec subtree,
// returning the node, its leaf order, estimated cardinality, and leaf
// bitmask. Leaves reuse the literal scans (cloned, with hints); build
// sides follow plan.BuildAuto's smaller-input rule.
func (ti *treeInfo) rebuild(jn *plan.JoinNode, relIdx map[*catalog.Relation]int) (Node, []int, float64, uint32) {
	if jn.IsLeaf() {
		i := relIdx[jn.Rel]
		l := &ti.leaves[i]
		ns := *l.scan
		if ns.RowsHint <= 0 {
			ns.RowsHint = roundEst(l.est)
		}
		ti.est[&ns] = l.est
		ti.rowBytes[&ns] = l.rowBytes
		return &ns, []int{i}, l.est, 1 << uint(i)
	}
	ln, lorder, lcard, lmask := ti.rebuild(jn.Left, relIdx)
	rn, rorder, rcard, rmask := ti.rebuild(jn.Right, relIdx)
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
	probeN, probeOrder, probeMask := ln, lorder, lmask
	buildN, buildOrder := rn, rorder
	if lcard < rcard {
		probeN, probeOrder, probeMask = rn, rorder, rmask
		buildN, buildOrder = ln, lorder
	}
	out := e.sel * lcard * rcard
	if out < 1 {
		out = 1
	}
	pLeaf, pCol, bLeaf, bCol := e.a, e.acol, e.b, e.bcol
	if probeMask&(uint32(1)<<uint(e.a)) == 0 {
		pLeaf, pCol, bLeaf, bCol = e.b, e.bcol, e.a, e.acol
	}
	pk := ti.offsetOf(probeOrder, pLeaf) + pCol
	bk := ti.offsetOf(buildOrder, bLeaf) + bCol
	j := &Join{
		Build:    buildN,
		Probe:    probeN,
		BuildKey: bk,
		ProbeKey: pk,
		RowsHint: roundEst(out),
	}
	ti.est[j] = out
	ti.rowBytes[j] = ti.rowBytes[probeN] + ti.rowBytes[buildN]
	order := append(append(make([]int, 0, len(probeOrder)+len(buildOrder)), probeOrder...), buildOrder...)
	return j, order, out, lmask | rmask
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

// permuteRoot gives the reordered tree's root join the Out list that
// restores the literal builder's output column order, so callers (and
// any GroupBy key over column positions) observe identical rows.
func (ti *treeInfo) permuteRoot(root *Join, newOrder []int) Node {
	newOff := make([]int, len(ti.leaves))
	off := 0
	for _, li := range newOrder {
		newOff[li] = off
		off += ti.leaves[li].width
	}
	perm := make([]int, 0, off)
	for _, li := range ti.order {
		base := newOff[li]
		for c := 0; c < ti.leaves[li].width; c++ {
			perm = append(perm, base+c)
		}
	}
	j := *root
	j.Out = perm
	ti.est[&j] = ti.est[root]
	ti.rowBytes[&j] = ti.rowBytes[root]
	return &j
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
	if pc.info == nil {
		pc.info = analyzeTree(pc.Root, nil)
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
			EstRows:   roundEst(ti.est[s]),
			ActRows:   -1,
			OpID:      op.id,
			BuildOpID: -1,
		}
	case opProbe:
		bld := op.partner
		j := op.join
		strat := "hash"
		// What a node is charged for its share of the build (buildBytes).
		if perNode := ti.est[j.Build] * (ti.rowBytes[j.Build] + sealIndexRowBytes) / float64(nodes); budget > 0 && perNode > float64(budget) {
			strat = "hash, grace spill expected"
		}
		return &ExplainNode{
			Kind:      "join",
			EstRows:   roundEst(ti.est[j]),
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
