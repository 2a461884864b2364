// Package difftest is a querygen-driven differential test harness for
// the real-data engine: random multi-join queries (the §5.1.2 /
// [Shekita93] generation methodology already driving the simulation's
// workloads) are materialized as seeded synthetic tables, executed
// under every interesting engine configuration — single-node,
// multi-node, static (FP) scheduling, stealing disabled, and a tiny
// WithMemory budget that forces Grace-style spilling — and the row
// multisets of all legs are required to be identical.
//
// The generated query supplies the structure (a random acyclic
// connected predicate graph over relations of three size classes, with
// per-edge selectivities targeting 0.5-1.5x the larger operand);
// materialization scales the paper's 10K-2M cardinalities down by
// three orders of magnitude so a full differential run fits in a CI
// test, while preserving the class ratios and per-edge join
// selectivities.
package difftest

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"

	"hierdb"
	"hierdb/internal/querygen"
	"hierdb/internal/store"
	"hierdb/internal/xrand"
)

// Case is one materialized differential query: synthetic tables plus a
// plan builder over them.
type Case struct {
	// Name identifies the case (from the generated query).
	Name string
	// Tables are the materialized relations (column 0 is a row id, then
	// one int key column per incident join edge, then a string payload).
	Tables []*hierdb.Table
	// Joins is the number of join predicates.
	Joins int
	// Filter, when set, is a row-filter closure applied to every scan
	// through the builder's Filter step (and by Reference to every table)
	// — the path that reads each candidate row through the boxing Row
	// boundary.
	Filter func(hierdb.Row) bool
	// Preds, when set, holds each relation's scan predicates (indexed like
	// Tables): every scan of the relation carries them as Where predicates,
	// and Reference evaluates them with refPred, its own implementation of
	// the predicate semantics. DrawPreds fills it from querygen.
	Preds [][]hierdb.Pred
	// Group, when set, ends the plan in a group-by (DrawGroup fills it from
	// querygen); the legs then return group rows, and Reference evaluates
	// it over its flattened join with a plain map.
	Group *Group

	q *querygen.Query
	// keyCol[rel][edge] is the column index of rel's key for that edge.
	keyCol []map[int]int
	// order is the BFS join order; attachEdge[i] connects order[i] to the
	// already-joined prefix (unused for i == 0).
	order      []int
	attachEdge []int
}

// cardDivisor scales the paper's cardinalities (10K-2M) into CI range.
const cardDivisor = 1000

// Synthesize generates one differential case: a random nrel-relation
// query (structure from internal/querygen) with deterministically
// seeded synthetic tables. The same seed always yields the same case.
func Synthesize(seed uint64, name string, nrel int) *Case {
	r := xrand.New(seed)
	q := querygen.Generate(r, name, querygen.Params{Relations: nrel, Nodes: 1})
	c := &Case{Name: name, q: q, Joins: q.NumJoins()}

	// Scaled cardinalities and per-edge key domains. The edge's
	// selectivity encodes the paper's result-size draw: result =
	// ratio * max(|A|,|B|) with ratio = sel * |A| * |B| / max. A shared
	// key domain of size D = min/ratio over uniformly drawn keys
	// reproduces that expectation at the scaled cardinalities.
	cards := make([]int, nrel)
	for i, rel := range q.Relations {
		card := int(rel.Cardinality / cardDivisor)
		if card < 10 {
			card = 10
		}
		cards[i] = card
	}
	domains := make([]int, len(q.Edges))
	for ei, e := range q.Edges {
		a, b := float64(q.Relations[e.A].Cardinality), float64(q.Relations[e.B].Cardinality)
		max := a
		if b > max {
			max = b
		}
		ratio := e.Selectivity * a * b / max // the §5.1.2 [0.5,1.5] draw
		min, maxc := cards[e.A], cards[e.B]
		if maxc < min {
			min, maxc = maxc, min
		}
		d := int(float64(min) / ratio)
		// Bound the per-row join fan-out at 2 from either side, so
		// left-deep intermediates cannot compound past CI scale (the
		// paper gates its queries on response time for the same reason).
		if d < (maxc+1)/2 {
			d = (maxc + 1) / 2
		}
		if d < 1 {
			d = 1
		}
		domains[ei] = d
	}

	// Column layout and table materialization, seeded per relation.
	c.keyCol = make([]map[int]int, nrel)
	incident := make([][]int, nrel)
	for ei, e := range q.Edges {
		incident[e.A] = append(incident[e.A], ei)
		incident[e.B] = append(incident[e.B], ei)
	}
	for i := 0; i < nrel; i++ {
		c.keyCol[i] = make(map[int]int)
		cols := []string{"id"}
		for _, ei := range incident[i] {
			c.keyCol[i][ei] = len(cols)
			cols = append(cols, fmt.Sprintf("k%d", ei))
		}
		cols = append(cols, "payload")
		tr := r.Split(uint64(i) + 1)
		tb := &hierdb.Table{Name: fmt.Sprintf("%s_r%d", name, i), Cols: cols}
		for row := 0; row < cards[i]; row++ {
			vals := make(hierdb.Row, 0, len(cols))
			vals = append(vals, row)
			for _, ei := range incident[i] {
				vals = append(vals, tr.Intn(domains[ei]))
			}
			vals = append(vals, fmt.Sprintf("r%d-%d", i, row))
			tb.Rows = append(tb.Rows, vals)
		}
		c.Tables = append(c.Tables, tb)
	}

	// Left-deep join order: BFS over the predicate tree from relation 0.
	adj := make([][][2]int, nrel) // (neighbor, edge)
	for ei, e := range q.Edges {
		adj[e.A] = append(adj[e.A], [2]int{e.B, ei})
		adj[e.B] = append(adj[e.B], [2]int{e.A, ei})
	}
	seen := make([]bool, nrel)
	c.order = []int{0}
	c.attachEdge = []int{-1}
	seen[0] = true
	for qi := 0; qi < len(c.order); qi++ {
		v := c.order[qi]
		for _, ne := range adj[v] {
			if !seen[ne[0]] {
				seen[ne[0]] = true
				c.order = append(c.order, ne[0])
				c.attachEdge = append(c.attachEdge, ne[1])
			}
		}
	}
	return c
}

// DrawPreds gives every scan of the case the 0-2 column predicates
// querygen.ScanPreds draws for it — every operator, over the id, key
// and payload columns alike — with constants taken from the column's own
// values (spelled as int, int32 or int64 on the int columns) or, for a
// Foreign draw, from another type family altogether. The same seed
// always yields the same predicates.
func (c *Case) DrawPreds(seed uint64) {
	r := xrand.New(seed)
	c.Preds = make([][]hierdb.Pred, len(c.Tables))
	for i, tb := range c.Tables {
		for _, sp := range querygen.ScanPreds(r.Split(uint64(i)+1), len(tb.Cols)) {
			v := tb.Rows[int(sp.Pick*float64(len(tb.Rows)))][sp.Col]
			spelling := int(sp.Pick*3000) % 3
			switch x := v.(type) {
			case int:
				switch {
				case sp.Foreign:
					v = [...]any{float64(x), uint64(x), fmt.Sprint(x)}[spelling]
				case spelling == 1:
					v = int32(x)
				case spelling == 2:
					v = int64(x)
				}
			case string:
				if sp.Foreign {
					v = len(x)
				}
			}
			c.Preds[i] = append(c.Preds[i], hierdb.Pred{Col: sp.Col, Op: hierdb.CmpOp(sp.Op), Val: v})
		}
	}
}

// Group is a materialized group-by over a case's join output.
type Group struct {
	// Project, when non-nil, is the column projection the plan's last
	// join carries: positions in its probe ++ build concatenation. Key
	// and the aggregates' arguments count columns behind it.
	Project []int
	Key     int
	Aggs    []hierdb.Aggregation
	// KeyBuild records that the key is a column of the literal plan's
	// last build side.
	KeyBuild bool
}

// DrawGroup ends the case's plan in the group-by querygen.DrawGroupBy
// draws: the key any column of the last join's probe side (string
// payloads included) or an id or key column of its build side — the
// relation Ragged cuts the payload from — the arguments int columns,
// and, for a Project draw, a shuffled projection of the columns used
// plus up to two more. The same seed always yields the same group-by.
func (c *Case) DrawGroup(seed uint64) {
	d := querygen.DrawGroupBy(xrand.New(seed))
	var ints []int // the output's int columns: every relation's id and keys
	width, lw := 0, 0
	for _, rel := range c.order {
		lw = len(c.Tables[rel].Cols)
		for i := 0; i < lw-1; i++ {
			ints = append(ints, width+i)
		}
		width += lw
	}
	pw := width - lw
	key := int(d.KeyPick * float64(pw))
	if d.KeyBuild {
		key = pw + int(d.KeyPick*float64(lw-1))
	}
	args := make([]int, len(d.Aggs))
	used := []int{key}
	for i, a := range d.Aggs {
		args[i] = ints[int(a.Pick*float64(len(ints)))]
		used = append(used, args[i])
	}
	g := &Group{Key: key, KeyBuild: d.KeyBuild}
	at := func(col int) int { return col } // a source column's place in the output
	if d.Project {
		r := xrand.New(d.Shuffle)
		used = append(used, ints[r.Intn(len(ints))], ints[r.Intn(len(ints))])
		place := map[int]int{}
		for _, i := range r.Perm(len(used)) {
			if _, ok := place[used[i]]; !ok {
				place[used[i]] = len(g.Project)
				g.Project = append(g.Project, used[i])
			}
		}
		at = func(col int) int { return place[col] }
		g.Key = at(key)
	}
	funcs := [...]hierdb.Aggregation{{Func: hierdb.Count}, {Func: hierdb.Sum}, {Func: hierdb.Min}, {Func: hierdb.Max}}
	for i, a := range d.Aggs {
		agg := funcs[a.Func] // querygen's order is the engine's
		if col := at(args[i]); agg.Func != hierdb.Count {
			agg.Arg = func(r hierdb.Row) float64 { return float64(r[col].(int)) }
		}
		g.Aggs = append(g.Aggs, agg)
	}
	c.Group = g
}

// eval is Reference's own group-by: the projection applied row by row,
// one map entry per key, rows [key, agg...] with Count an int64 and the
// other aggregates float64, like the engine's.
func (g *Group) eval(rows []hierdb.Row) []hierdb.Row {
	groups := map[any]hierdb.Row{}
	var out []hierdb.Row
	for _, r := range rows {
		if g.Project != nil {
			p := make(hierdb.Row, len(g.Project))
			for i, c := range g.Project {
				p[i] = r[c]
			}
			r = p
		}
		gr := groups[r[g.Key]]
		if gr == nil {
			gr = hierdb.Row{r[g.Key]}
			for _, a := range g.Aggs {
				gr = append(gr, [...]any{hierdb.Count: int64(0), hierdb.Sum: 0.0, hierdb.Min: math.Inf(1), hierdb.Max: math.Inf(-1)}[a.Func])
			}
			groups[r[g.Key]] = gr
			out = append(out, gr)
		}
		for i, a := range g.Aggs {
			switch a.Func {
			case hierdb.Count:
				gr[1+i] = gr[1+i].(int64) + 1
			case hierdb.Sum:
				gr[1+i] = gr[1+i].(float64) + a.Arg(r)
			case hierdb.Min:
				gr[1+i] = math.Min(gr[1+i].(float64), a.Arg(r))
			case hierdb.Max:
				gr[1+i] = math.Max(gr[1+i].(float64), a.Arg(r))
			}
		}
	}
	return out
}

// refPred is Reference's own evaluation of one scan predicate over one
// row — written against the documented semantics of hierdb.Pred, sharing
// no code with the engine's kernels: a null satisfies only IsNull;
// int, int32 and int64 compare by value with each other, every other
// type only with itself, and a constant of another family matches
// nothing; bools know only Eq and Ne; a float NaN on either side counts
// as equal.
func refPred(r hierdb.Row, p hierdb.Pred) bool {
	if p.Col < 0 || p.Col >= len(r) {
		return false
	}
	v := r[p.Col]
	switch p.Op {
	case hierdb.IsNull:
		return v == nil
	case hierdb.NotNull:
		return v != nil
	}
	asInt := func(x any) (int64, bool) {
		switch t := x.(type) {
		case int:
			return int64(t), true
		case int32:
			return int64(t), true
		case int64:
			return t, true
		}
		return 0, false
	}
	var less, greater bool
	if a, ok := asInt(v); ok {
		b, ok := asInt(p.Val)
		if !ok {
			return false
		}
		less, greater = a < b, a > b
	} else {
		switch a := v.(type) {
		case uint64:
			b, ok := p.Val.(uint64)
			if !ok {
				return false
			}
			less, greater = a < b, a > b
		case float64:
			b, ok := p.Val.(float64)
			if !ok {
				return false
			}
			less, greater = a < b, a > b
		case string:
			b, ok := p.Val.(string)
			if !ok {
				return false
			}
			less, greater = a < b, a > b
		case bool:
			b, ok := p.Val.(bool)
			if !ok || (p.Op != hierdb.Eq && p.Op != hierdb.Ne) {
				return false
			}
			less = a != b
		default: // nil, or a type predicates do not compare
			return false
		}
	}
	switch p.Op {
	case hierdb.Eq:
		return !less && !greater
	case hierdb.Ne:
		return less || greater
	case hierdb.Lt:
		return less
	case hierdb.Le:
		return !greater
	case hierdb.Gt:
		return greater
	case hierdb.Ge:
		return !less
	}
	return false
}

// Build registers the case's tables on db and assembles the left-deep
// plan with the facade's query builder. The accumulated (probe) side
// streams against each newly attached relation's build table.
func (c *Case) Build(db *hierdb.DB) (*hierdb.Query, error) {
	if err := c.Register(db); err != nil {
		return nil, err
	}
	return c.Plan(db), nil
}

// Register registers the case's tables on db without building a plan.
// Call it once per DB; drivers that submit the same case repeatedly
// (cmd/hdbload) pair one Register with many Plan calls, since
// registering twice on the same handle is an error.
func (c *Case) Register(db *hierdb.DB) error {
	for _, tb := range c.Tables {
		if err := db.Register(tb.Name, hierdb.FromTable(tb)); err != nil {
			return err
		}
	}
	return nil
}

// Plan assembles the case's left-deep join chain over tables already
// registered on db (by Register or a prior Build).
func (c *Case) Plan(db *hierdb.DB) *hierdb.Query {
	return c.plan(db)
}

// BuildDisk writes every relation to a chunked columnar table file
// under dir (cleaned up by the caller; tests pass t.TempDir) and
// registers the files instead of the in-memory tables, then assembles
// the same left-deep plan. Queries over the resulting DB stream
// chunks from disk, so cross-checking a BuildDisk leg against a Build
// leg is the end-to-end proof that persistence is invisible to query
// semantics.
func (c *Case) BuildDisk(db *hierdb.DB, dir string, chunkRows int) (*hierdb.Query, error) {
	for _, tb := range c.Tables {
		path := filepath.Join(dir, tb.Name+".hdb")
		if err := store.WriteTable(path, tb.Cols, chunkRows, tb.Rows); err != nil {
			return nil, err
		}
		if err := db.Register(tb.Name, hierdb.FromFile(path)); err != nil {
			return nil, err
		}
	}
	return c.plan(db), nil
}

// BuildBad registers the case's tables and assembles a deliberately
// poor left-deep plan: greedy largest-cardinality-first over the
// predicate tree — the adversarial input for the optimizer's
// intermediate-rows acceptance test.
func (c *Case) BuildBad(db *hierdb.DB) (*hierdb.Query, error) {
	if err := c.Register(db); err != nil {
		return nil, err
	}
	order, attach := c.badOrder()
	return c.planOrder(db, order, attach), nil
}

// badOrder computes the greedy largest-first left-deep order (each step
// still attaches along a predicate edge, so the plan has no cross
// products — just bad intermediates).
func (c *Case) badOrder() (order, attach []int) {
	nrel := len(c.Tables)
	adj := make([][][2]int, nrel) // (neighbor, edge)
	for ei, e := range c.q.Edges {
		adj[e.A] = append(adj[e.A], [2]int{e.B, ei})
		adj[e.B] = append(adj[e.B], [2]int{e.A, ei})
	}
	start := 0
	for i := 1; i < nrel; i++ {
		if len(c.Tables[i].Rows) > len(c.Tables[start].Rows) {
			start = i
		}
	}
	seen := make([]bool, nrel)
	seen[start] = true
	order, attach = []int{start}, []int{-1}
	for len(order) < nrel {
		best, bestEdge := -1, -1
		for _, v := range order {
			for _, ne := range adj[v] {
				if !seen[ne[0]] && (best < 0 || len(c.Tables[ne[0]].Rows) > len(c.Tables[best].Rows)) {
					best, bestEdge = ne[0], ne[1]
				}
			}
		}
		seen[best] = true
		order = append(order, best)
		attach = append(attach, bestEdge)
	}
	return order, attach
}

// AnalyzeAll runs Analyze over every one of the case's registered
// tables, so optimizer legs plan from real statistics.
func (c *Case) AnalyzeAll(db *hierdb.DB) error {
	for _, tb := range c.Tables {
		if _, err := db.Analyze(tb.Name); err != nil {
			return err
		}
	}
	return nil
}

// plan assembles the case's left-deep join chain, assuming every
// relation is already registered under its table name.
func (c *Case) plan(db *hierdb.DB) *hierdb.Query {
	return c.planOrder(db, c.order, c.attachEdge)
}

// planOrder assembles a left-deep join chain following the given join
// order and attach edges.
func (c *Case) planOrder(db *hierdb.DB, order, attach []int) *hierdb.Query {
	scan := func(rel int) *hierdb.Query {
		q := db.Scan(c.Tables[rel].Name)
		if c.Filter != nil {
			q = q.Filter(c.Filter)
		}
		if c.Preds != nil {
			q = q.Where(c.Preds[rel]...)
		}
		return q
	}
	offsets := make([]int, len(c.Tables)) // column offset of each relation in the accumulated row
	acc := scan(order[0])
	width := len(c.Tables[order[0]].Cols)
	for i := 1; i < len(order); i++ {
		rel := order[i]
		ei := attach[i]
		e := c.q.Edges[ei]
		prev := e.A
		if prev == rel {
			prev = e.B
		}
		probeCol := offsets[prev] + c.keyCol[prev][ei]
		buildCol := c.keyCol[rel][ei]
		acc = acc.Join(scan(rel), hierdb.KeyCol(probeCol), hierdb.KeyCol(buildCol))
		offsets[rel] = width
		width += len(c.Tables[rel].Cols)
	}
	if g := c.Group; g != nil {
		if g.Project != nil {
			acc = acc.Project(g.Project...)
		}
		acc = acc.GroupBy(hierdb.KeyCol(g.Key), g.Aggs...)
	}
	return acc
}

// Ragged returns a copy of the case whose last-attached relation — the
// build side of the chain's last join — has short rows: all but the
// first eight of its rows (id first, payload last) lose their payload
// column. A short row is null in the column it lacks, so the registered
// table carries nulls in its last column through whatever the leg does
// to it — join, redistribution, spill, a reordering optimizer — and
// every result row must come back with a nil there, as Reference pads
// it.
func (c *Case) Ragged() *Case {
	rc := *c
	rc.Tables = append([]*hierdb.Table(nil), c.Tables...)
	last := c.order[len(c.order)-1]
	tb := &hierdb.Table{Name: c.Tables[last].Name, Cols: c.Tables[last].Cols}
	for _, r := range c.Tables[last].Rows {
		if r[0].(int) >= 8 {
			r = r[:len(r)-1]
		}
		tb.Rows = append(tb.Rows, r)
	}
	rc.Tables[last] = tb
	return &rc
}

// FloatKeys returns a copy of the case whose last join compares float64
// keys, on both sides: key 0 becomes +0.0 or -0.0 by the row id's parity
// — one key under ==, so the two must route, spill and index alike —
// key 1 becomes NaN, which equals nothing, every other key k float64(k).
func (c *Case) FloatKeys() *Case {
	rc := *c
	rc.Tables = append([]*hierdb.Table(nil), c.Tables...)
	last := len(c.order) - 1
	rel, ei := c.order[last], c.attachEdge[last]
	prev := c.q.Edges[ei].A
	if prev == rel {
		prev = c.q.Edges[ei].B
	}
	for _, r := range []int{rel, prev} {
		col := c.keyCol[r][ei]
		tb := &hierdb.Table{Name: c.Tables[r].Name, Cols: c.Tables[r].Cols}
		for _, row := range c.Tables[r].Rows {
			row = append(hierdb.Row(nil), row...)
			switch k := row[col].(int); k {
			case 0:
				row[col] = math.Copysign(0, float64(1-2*(row[0].(int)%2)))
			case 1:
				row[col] = math.NaN()
			default:
				row[col] = float64(k)
			}
			tb.Rows = append(tb.Rows, row)
		}
		rc.Tables[r] = tb
	}
	return &rc
}

// NullPayload returns a copy of the case whose last relation — the last
// join's build side — has a null payload in every row but each 64th: the
// column is a string column, yet most batches a governed leg spills of
// it hold no value at all, which the spill codec writes and reads back
// untyped. The partition store must take them in as nulls.
func (c *Case) NullPayload() *Case {
	rc := *c
	rc.Tables = append([]*hierdb.Table(nil), c.Tables...)
	last := c.order[len(c.order)-1]
	tb := &hierdb.Table{Name: c.Tables[last].Name, Cols: c.Tables[last].Cols}
	for _, r := range c.Tables[last].Rows {
		if r[0].(int)%64 != 0 {
			r = append(hierdb.Row(nil), r...)
			r[len(r)-1] = nil
		}
		tb.Rows = append(tb.Rows, r)
	}
	rc.Tables[last] = tb
	return &rc
}

// Reference evaluates the case with a naive row-at-a-time interpreter —
// no batches, no selection vectors, no arenas — and returns the result
// multiset. It is the semantic anchor the columnar engine legs are
// cross-checked against: a left-deep chain of map-backed hash joins over
// the raw table rows, with the engine's output convention (probe columns
// then build columns) and its key semantics (keys compare as boxed
// interface values, so nil==nil matches and cross-type keys do not).
func (c *Case) Reference() map[string]int {
	scan := func(rel int) []hierdb.Row {
		var out []hierdb.Row
		w := len(c.Tables[rel].Cols)
	rows:
		for _, r := range c.Tables[rel].Rows {
			if len(r) < w { // a short row is null in the columns it lacks
				r = append(r[:len(r):len(r)], make(hierdb.Row, w-len(r))...)
			}
			if c.Preds != nil {
				for _, p := range c.Preds[rel] {
					if !refPred(r, p) {
						continue rows
					}
				}
			}
			if c.Filter == nil || c.Filter(r) {
				out = append(out, r)
			}
		}
		return out
	}
	acc := scan(c.order[0])
	offsets := make([]int, len(c.Tables))
	width := len(c.Tables[c.order[0]].Cols)
	for i := 1; i < len(c.order); i++ {
		rel := c.order[i]
		ei := c.attachEdge[i]
		e := c.q.Edges[ei]
		prev := e.A
		if prev == rel {
			prev = e.B
		}
		probeCol := offsets[prev] + c.keyCol[prev][ei]
		buildCol := c.keyCol[rel][ei]
		ht := make(map[any][]hierdb.Row)
		for _, br := range scan(rel) {
			ht[br[buildCol]] = append(ht[br[buildCol]], br)
		}
		var next []hierdb.Row
		for _, pr := range acc {
			for _, br := range ht[pr[probeCol]] {
				row := make(hierdb.Row, 0, len(pr)+len(br))
				row = append(append(row, pr...), br...)
				next = append(next, row)
			}
		}
		acc = next
		offsets[rel] = width
		width += len(c.Tables[rel].Cols)
	}
	if c.Group != nil {
		acc = c.Group.eval(acc)
	}
	return Multiset(acc)
}

// RunLeg executes the case on a fresh DB opened with the given options
// and returns the result multiset (formatted row -> count) plus stats.
func (c *Case) RunLeg(ctx context.Context, opts ...hierdb.Option) (map[string]int, *hierdb.EngineStats, error) {
	db := hierdb.Open(opts...)
	defer db.Close()
	q, err := c.Build(db)
	if err != nil {
		return nil, nil, err
	}
	rows, st, err := q.Collect(ctx)
	if err != nil {
		return nil, nil, err
	}
	return Multiset(rows), st, nil
}

// RunAnalyzedLeg is RunLeg with an Analyze pass over every table before
// execution — the configuration the optimizer legs run under.
func (c *Case) RunAnalyzedLeg(ctx context.Context, opts ...hierdb.Option) (map[string]int, *hierdb.EngineStats, error) {
	db := hierdb.Open(opts...)
	defer db.Close()
	q, err := c.Build(db)
	if err != nil {
		return nil, nil, err
	}
	if err := c.AnalyzeAll(db); err != nil {
		return nil, nil, err
	}
	rows, st, err := q.Collect(ctx)
	if err != nil {
		return nil, nil, err
	}
	return Multiset(rows), st, nil
}

// RunDiskLeg is RunLeg with the case's tables streamed from chunked
// table files written under dir instead of resident rows.
func (c *Case) RunDiskLeg(ctx context.Context, dir string, chunkRows int, opts ...hierdb.Option) (map[string]int, *hierdb.EngineStats, error) {
	db := hierdb.Open(opts...)
	defer db.Close()
	q, err := c.BuildDisk(db, dir, chunkRows)
	if err != nil {
		return nil, nil, err
	}
	rows, st, err := q.Collect(ctx)
	if err != nil {
		return nil, nil, err
	}
	return Multiset(rows), st, nil
}

// Multiset formats rows into a multiset map for order-insensitive
// comparison.
func Multiset(rows []hierdb.Row) map[string]int {
	m := make(map[string]int, len(rows))
	for _, r := range rows {
		m[fmt.Sprint([]any(r))]++
	}
	return m
}

// DiffMultisets returns a descriptive error if two row multisets
// differ (nil when identical).
func DiffMultisets(name, refName string, got, want map[string]int) error {
	if len(got) == len(want) {
		same := true
		for k, n := range want {
			if got[k] != n {
				same = false
				break
			}
		}
		if same {
			return nil
		}
	}
	// Build a compact sample of differences.
	var diffs []string
	for k, n := range want {
		if got[k] != n {
			diffs = append(diffs, fmt.Sprintf("%s: %d in %s vs %d in %s", k, n, refName, got[k], name))
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: %d only in %s", k, n, name))
		}
	}
	sort.Strings(diffs)
	if len(diffs) > 5 {
		diffs = append(diffs[:5], fmt.Sprintf("... and %d more", len(diffs)-5))
	}
	return fmt.Errorf("leg %s diverges from %s:\n  %s", name, refName, strings.Join(diffs, "\n  "))
}
