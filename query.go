package hierdb

// Fluent query building over a DB's catalog. A Query is a logical plan
// under construction; building never panics — malformed steps (unknown
// table, GroupBy in the middle) record an error that Run returns, and a
// key or Project column its input does not have fails Run when the plan
// is compiled, before anything executes. Build methods return new Query values, so intermediates are
// freely reusable as inputs to several queries.

import (
	"context"
	"fmt"

	"hierdb/internal/exec"
)

// Query is a logical plan under construction, bound to a DB. Execute it
// with Run (streaming) or Collect (materialized).
type Query struct {
	db     *DB
	node   exec.Node
	top    *exec.Join // join introduced by this builder step, for Project/Hint
	gb     *exec.GroupBy
	tenant string // admission-fairness label, set by WithTenant
	err    error
}

// Scan starts a query reading a registered table; narrow it with Where
// and Filter.
func (db *DB) Scan(table string) *Query {
	q := &Query{db: db}
	if db.err != nil {
		q.err = db.err
		return q
	}
	db.mu.RLock()
	t, ok := db.tables[table]
	closed := db.closed
	db.mu.RUnlock()
	if closed {
		q.err = fmt.Errorf("hierdb: database closed")
		return q
	}
	if !ok {
		q.err = fmt.Errorf("hierdb: table %q not registered", table)
		return q
	}
	q.node = &exec.Scan{Table: t}
	return q
}

// Where narrows the scan started by the preceding Scan step with
// single-column predicates, ANDed together (and with any row Filter
// closure, which runs after them). Predicates execute inside the
// columnar scan kernel as per-column loops that only shrink the
// selection vector — prefer them over a Filter closure when the
// condition is column-vs-constant. The scan node is cloned, so the
// receiver — and any query already running over it — is unaffected.
func (q *Query) Where(preds ...Pred) *Query {
	return q.withScan(func(s *exec.Scan) error {
		s.Preds = append(append([]Pred(nil), s.Preds...), preds...)
		return nil
	}, "Where")
}

// Filter narrows the scan started by the preceding Scan step with a row
// closure, run on each row the Where predicates kept. Prefer Where when
// the condition is column-vs-constant: predicates run inside the
// columnar scan kernel (and, over a table file, inside the chunk
// decoder) and the planner can estimate them; a closure is opaque to
// both, and every candidate row is boxed for it. A scan takes one
// Filter. Like Where, the step clones the scan node.
func (q *Query) Filter(fn func(Row) bool) *Query {
	return q.withScan(func(s *exec.Scan) error {
		if s.Filter != nil {
			return fmt.Errorf("hierdb: Filter applied twice to one Scan")
		}
		s.Filter = fn
		return nil
	}, "Filter")
}

// withScan applies set to a clone of the scan node the query consists of
// so far (the Where and Filter steps).
func (q *Query) withScan(set func(*exec.Scan) error, step string) *Query {
	out := &Query{db: q.db, tenant: q.tenant, err: q.err}
	if out.err != nil {
		return out
	}
	s, ok := q.node.(*exec.Scan)
	if !ok || q.gb != nil {
		out.err = fmt.Errorf("hierdb: %s must follow Scan, Where or Filter", step)
		return out
	}
	ns := *s
	out.err = set(&ns)
	out.node = &ns
	return out
}

// Join hash-joins the receiver (probe side, streamed) with build
// (materialized into a striped hash table) on probeKey = buildKey: a
// column of the receiver's output and a column of build's. Output rows
// are probe columns then build columns unless a Project step follows.
func (q *Query) Join(build *Query, probeKey, buildKey Key) *Query {
	out := &Query{db: q.db, tenant: q.tenant}
	switch {
	case q.err != nil:
		out.err = q.err
	case build == nil:
		out.err = fmt.Errorf("hierdb: Join with nil build query")
	case build.err != nil:
		out.err = build.err
	case build.db != q.db:
		out.err = fmt.Errorf("hierdb: Join across different DB handles")
	case q.gb != nil || build.gb != nil:
		out.err = fmt.Errorf("hierdb: GroupBy must be the final step of a query")
	default:
		j := &exec.Join{Build: build.node, Probe: q.node, BuildKey: buildKey.col, ProbeKey: probeKey.col}
		out.node, out.top = j, j
	}
	return out
}

// Project sets the output columns of the join introduced by the
// preceding Join step: positions in the concatenation probe columns ++
// build columns, in output order — a column may repeat, and one not
// listed is dropped. Later steps (a Join or GroupBy key) count columns in
// the projected row. Projection picks column headers and costs nothing
// per row. (A ragged table's rows come back short only while the columns
// they lack stay at the end of the row.) The join node is cloned, so the
// receiver — and any query already running over it — is unaffected.
func (q *Query) Project(cols ...int) *Query {
	if q.err == nil && len(cols) == 0 {
		return &Query{db: q.db, tenant: q.tenant, err: fmt.Errorf("hierdb: Project without columns")}
	}
	return q.withTop(func(j *exec.Join) { j.Out = append([]int(nil), cols...) }, "Project")
}

// Hint attaches planner knowledge to the current builder step.
// Following a Join (or Project) step it applies to that join; following
// Scan, Where or Filter it applies to the scan. Zero-valued fields are
// left unset; the step's node is cloned, so the receiver is unaffected.
type Hint struct {
	// Selectivity is the join's output rows per probe-input row, for
	// scheduling estimates (joins only).
	Selectivity float64
	// Rows pins the step's estimated output rows, taking precedence over
	// Selectivity and over statistics-derived estimates.
	Rows int64
	// NoReorder pins the builder's literal join order: a full optimizer
	// leaves any plan containing such a join untouched (joins only).
	NoReorder bool
}

// Hint applies h to the current builder step; see the Hint type.
// Negative fields, scan-inapplicable fields on a scan step, and steps
// that take no hints (GroupBy) record an error returned by Run.
func (q *Query) Hint(h Hint) *Query {
	if q.err == nil && (h.Selectivity < 0 || h.Rows < 0) {
		out := &Query{db: q.db, tenant: q.tenant, err: fmt.Errorf("hierdb: negative Hint field")}
		return out
	}
	if q.top != nil {
		return q.withTop(func(j *exec.Join) {
			if h.Selectivity > 0 {
				j.Selectivity = h.Selectivity
			}
			if h.Rows > 0 {
				j.RowsHint = h.Rows
			}
			if h.NoReorder {
				j.NoReorder = true
			}
		}, "Hint")
	}
	out := &Query{db: q.db, tenant: q.tenant, err: q.err}
	if out.err != nil {
		return out
	}
	s, ok := q.node.(*exec.Scan)
	if !ok || q.gb != nil {
		out.err = fmt.Errorf("hierdb: Hint must follow Scan, Where, Filter, Join, or Project")
		return out
	}
	if h.Selectivity > 0 || h.NoReorder {
		out.err = fmt.Errorf("hierdb: Selectivity and NoReorder hints apply to join steps")
		return out
	}
	ns := *s
	if h.Rows > 0 {
		ns.RowsHint = h.Rows
	}
	out.node = &ns
	return out
}

// withTop applies set to a clone of the join introduced by the
// immediately preceding Join step (the Project and Hint steps), so the
// receiver — and any query already running over it — is unaffected.
func (q *Query) withTop(set func(*exec.Join), step string) *Query {
	out := &Query{db: q.db, tenant: q.tenant, err: q.err}
	if out.err != nil {
		return out
	}
	if q.top == nil {
		out.err = fmt.Errorf("hierdb: %s without a preceding Join", step)
		return out
	}
	j := *q.top
	set(&j)
	out.node, out.top = &j, &j
	return out
}

// GroupBy folds the query's output through a grouped aggregation keyed
// on one of its columns; output rows are [key, agg0, agg1, ...] ordered
// deterministically by formatted key. It must be the final builder step.
func (q *Query) GroupBy(key Key, aggs ...Aggregation) *Query {
	out := &Query{db: q.db, node: q.node, tenant: q.tenant}
	switch {
	case q.err != nil:
		out.err = q.err
	case q.gb != nil:
		out.err = fmt.Errorf("hierdb: GroupBy applied twice")
	default:
		out.gb = &exec.GroupBy{Key: key.col, Aggs: aggs}
	}
	return out
}

// WithTenant labels the query for admission fairness on a DB opened
// with WithMaxConcurrentQueries: queries parked in the admission queue
// are dequeued round-robin across tenant labels (FIFO within one), so
// one tenant's backlog cannot starve another's. The label survives
// later builder steps; without it the query belongs to the default
// (empty) tenant. No effect on an unbounded DB.
func (q *Query) WithTenant(id string) *Query {
	out := &Query{db: q.db, node: q.node, top: q.top, gb: q.gb, tenant: id, err: q.err}
	return out
}

// Run submits the query to the DB's resident pool and returns a
// streaming Rows. The query executes concurrently with any other
// in-flight queries on the handle; result batches wait in a bounded
// queue, and while it is full the query's production pauses — no worker
// waits on the consumer. Iterate or Close: a paused query keeps its
// admission slot and memory lease until then. On a DB
// opened with WithMaxConcurrentQueries, Run may park in the admission
// queue until a slot frees — failing promptly with ErrClosed if the DB
// closes, with ErrAdmissionQueueFull if the queue is at capacity, or
// with ctx.Err() if the context fires first; EngineStats.AdmissionWait
// reports the time parked.
func (q *Query) Run(ctx context.Context) (*Rows, error) {
	if q.err != nil {
		return nil, q.err
	}
	if q.db == nil {
		return nil, fmt.Errorf("hierdb: query without a DB")
	}
	if q.db.err != nil {
		return nil, q.db.err
	}
	q.db.mu.RLock()
	closed := q.db.closed
	q.db.mu.RUnlock()
	if closed {
		return nil, fmt.Errorf("hierdb: database closed")
	}
	if q.node == nil {
		return nil, fmt.Errorf("hierdb: empty query")
	}
	node := q.node
	if q.db.mode != OptimizerOff {
		// The cost-based planning bridge: clone the literal plan with
		// statistics-derived estimates and, in full mode, the DP-chosen
		// join order. Results are identical in every mode.
		node = exec.Optimize(node, q.db.mode, q.db.statsFor).Root
	}
	h, err := q.db.eng.Submit(ctx, node, q.gb, q.tenant)
	if err != nil {
		return nil, err
	}
	return &Rows{h: h}, nil
}

// Collect runs the query and materializes every result row — a
// convenience for small results; prefer Run for large ones.
func (q *Query) Collect(ctx context.Context) ([]Row, *EngineStats, error) {
	rows, err := q.Run(ctx)
	if err != nil {
		return nil, nil, err
	}
	out, err := rows.Collect()
	if err != nil {
		return nil, nil, err
	}
	return out, rows.Stats(), nil
}
