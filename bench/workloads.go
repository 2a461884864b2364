package main

// The six workloads. Each set-up generates its tables from the seed,
// computes the reference result, opens a DB through the stable facade
// surface and returns an instance that executes one operation at a
// time; the measuring loop in measure.go is shared.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hierdb"
	"hierdb/internal/store"
)

// env is what a set-up may depend on.
type env struct {
	seed  uint64
	scale float64 // 1 at default size, 1/20 under -quick
	nproc int
	dir   string // scratch directory for table files and spill partitions
}

// workload is one row of the README's workload table.
type workload struct {
	name    string
	why     string
	queries int // the ISSUE's nominal count; -quick runs 1/20 of it
	clients int // 0 means one per processor
	setup   func(e env) (instance, error)
}

var workloads = []workload{
	{"join_stream", "In-memory headline path: exec pool scheduling, vec filter/hash/gather and facade row boxing do the work, store and spill none; a disk or spill optimisation must not move it.", 400, 1, setupJoinStream},
	{"group_multinode", "The paper's case: every join key owned by one of two nodes, so global activation stealing, bucket shipping and the three-level group-by merge are measured and the sink is nearly idle.", 600, 1, setupGroupMultinode},
	{"scan_disk", "Table-file chunk read and decode dominate, half the chunks zone-pruned, nothing cached by the engine; the workload on which closing the disk gap shows.", 300, 1, setupScanDisk},
	{"join_spill", "Memory-governed join running the full Grace cycle every query: spill column encode/decode and partition replay dominate; same join operator as join_stream through its governed path.", 400, 1, setupJoinSpill},
	{"point_concurrent", "Opposite use of the same engine: per-query fixed cost (admission queue, optimizer, compile, pool wake-up, retirement) is the whole latency; half the clients always wait in the fair queue.", 20000, 0, setupPointConcurrent},
	{"sim_hier", "The simulation half (core, simtime, simnet, simdisk, optimizer, plan) shares no hot code with the engine: it must stay flat under engine changes and its virtual times are bit-exact.", 300, 1, setupSimHier},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// mode selects how one operation is executed and checked.
type mode struct {
	full     bool    // checksum every row (off-window checks), not just the count
	nextOnly bool    // streamed workloads: iterate with Next alone, never Row
	alt      bool    // run on the ratio leg's alternative DB
	tr       *tracer // non-nil: record spans, time the checker
}

// op is the outcome of one operation: a query, or one simulated
// execution on sim_hier.
type op struct {
	lat      time.Duration
	rows     int64 // result rows; simulated result tuples on sim_hier
	err      error // execution error or wrong result
	rejected bool  // ErrAdmissionQueueFull
	stats    *hierdb.EngineStats
	// traced runs only
	runCall, firstRow time.Duration
	check             time.Duration
}

// failedLatency is what a failed operation counts as: slower than any
// measured latency.
const failedLatency = time.Duration(math.MaxInt64)

// instance is one set-up workload.
type instance interface {
	do(ctx context.Context, client, i int, m mode) op
	// cycle is the number of consecutive operations that make one unit
	// of the fixed mix; a leg runs whole cycles only.
	cycle() int
	info() *setupInfo
	close() error
}

// setupInfo carries what set-up measured about itself and what the
// layer replays need.
type setupInfo struct {
	register, analyze time.Duration // inside Register / Analyze
	mainTable         string        // analysed again, timed, in the traced run
	ratio             string        // layer metric of the workload's in-run ratio leg, "" if it has none
	ratioOfP50        bool          // the ratio is of median latencies (main/alt), not of throughputs
	streamed          bool
	// scan_disk
	filePath      string
	fileWrite     time.Duration
	fileUserBytes int64
	// replays
	fact       *hierdb.Table // vec replay input
	preds      []hierdb.Pred // the workload's scan predicates
	spillSrc   []*hierdb.Table
	inputBytes int64 // build+probe user bytes per query (spill write amplification)
	// sim_hier
	simRef   []*hierdb.Run
	simPlans time.Duration // GenerateWorkload per plan
}

// engineInst runs queries on a resident DB.
type engineInst struct {
	db, altDB *hierdb.DB
	openAlt   func() (*hierdb.DB, error)
	build     func(db *hierdb.DB, client, i int) *hierdb.Query
	want      func(client, i int) expected
	collect   bool
	si        setupInfo
}

func (in *engineInst) cycle() int       { return 1 }
func (in *engineInst) info() *setupInfo { return &in.si }

func (in *engineInst) close() error {
	err := in.db.Close()
	if in.altDB != nil {
		if aerr := in.altDB.Close(); err == nil {
			err = aerr
		}
	}
	return err
}

// ensureAlt opens the ratio leg's DB on first use.
func (in *engineInst) ensureAlt() error {
	if in.altDB != nil || in.openAlt == nil {
		return nil
	}
	db, err := in.openAlt()
	if err != nil {
		return err
	}
	in.altDB = db
	return nil
}

func (in *engineInst) do(ctx context.Context, client, i int, m mode) op {
	db := in.db
	if m.alt {
		db = in.altDB
	}
	q := in.build(db, client, i)
	want := in.want(client, i)
	var (
		o   op
		got expected
	)
	fail := func(err error) op {
		o.lat, o.err = failedLatency, err
		o.rejected = errors.Is(err, hierdb.ErrAdmissionQueueFull)
		return o
	}
	t0 := time.Now()
	if in.collect && m.tr == nil {
		rows, st, err := q.Collect(ctx)
		o.lat = time.Since(t0)
		if err != nil {
			return fail(err)
		}
		o.stats = st
		if m.full {
			got = checksumOf(rows)
		} else {
			got.rows = int64(len(rows))
		}
	} else {
		rows, err := q.Run(ctx)
		t1 := time.Now()
		if err != nil {
			return fail(err)
		}
		defer rows.Close()
		more := rows.Next()
		t2 := time.Now()
		switch {
		case in.collect:
			// Traced form of Collect: the first row is taken with Next so
			// the first-row boundary is visible, the rest through Collect.
			if more {
				got.add(rows.Row())
				rest, cerr := rows.Collect()
				if cerr != nil {
					return fail(cerr)
				}
				for _, r := range rest {
					got.add(r)
				}
			}
		case m.full:
			for ; more; more = rows.Next() {
				got.add(rows.Row())
			}
		case m.nextOnly:
			for ; more; more = rows.Next() {
				got.rows++
			}
		default:
			for ; more; more = rows.Next() {
				runtime.KeepAlive(rows.Row()) // materialize the row as a caller would
				got.rows++
			}
		}
		t3 := time.Now()
		o.lat, o.runCall, o.firstRow = t3.Sub(t0), t1.Sub(t0), t2.Sub(t1)
		if err := rows.Err(); err != nil {
			return fail(err)
		}
		rows.Close()
		o.stats = rows.Stats()
		if m.tr != nil {
			m.tr.query(client, t0, t1, t2, t3)
		}
	}
	var c0 time.Time
	if m.tr != nil {
		c0 = time.Now()
	}
	o.rows = got.rows
	full := m.full || (in.collect && m.tr != nil)
	if got.rows != want.rows || (full && got.sum != want.sum) {
		o.lat = failedLatency
		o.err = fmt.Errorf("wrong result: %d rows sum %016x, want %d rows sum %016x", got.rows, got.sum, want.rows, want.sum)
	}
	if m.tr != nil {
		o.check = time.Since(c0)
	}
	return o
}

// registration adds tables to a freshly opened DB and accounts the
// time inside Register and Analyze.
type registration struct {
	db *hierdb.DB
	si *setupInfo
}

func (r registration) table(t *hierdb.Table) error {
	return r.source(t.Name, hierdb.FromTable(t))
}

func (r registration) source(name string, src hierdb.TableSource) error {
	t0 := time.Now()
	err := r.db.Register(name, src)
	r.si.register += time.Since(t0)
	return err
}

// analyzed registers a table and analyses it: Register's WithStats()
// option taken apart, so that each half can be timed.
func (r registration) analyzed(t *hierdb.Table) error {
	if err := r.table(t); err != nil {
		return err
	}
	t0 := time.Now()
	_, err := r.db.Analyze(t.Name)
	r.si.analyze += time.Since(t0)
	return err
}

// openWith opens a DB and registers tables on it, closing it again if a
// registration fails.
func openWith(si *setupInfo, opts []hierdb.Option, reg func(r registration) error) (*hierdb.DB, error) {
	db := hierdb.Open(opts...)
	if err := reg(registration{db, si}); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// fixed caches the one query a single-client workload runs, per DB.
func fixed(mk func(db *hierdb.DB) *hierdb.Query) func(*hierdb.DB, int, int) *hierdb.Query {
	cache := make(map[*hierdb.DB]*hierdb.Query, 2)
	return func(db *hierdb.DB, _, _ int) *hierdb.Query {
		q := cache[db]
		if q == nil {
			q = mk(db)
			cache[db] = q
		}
		return q
	}
}

func always(x expected) func(int, int) expected {
	return func(int, int) expected { return x }
}

// streamTables generates the fact and dimensions join_stream and
// scan_disk share.
func streamTables(e env) (fact, d1, d2 *hierdb.Table) {
	nd1, nd2 := scaled(d1Rows, e.scale, 50), scaled(d2Rows, e.scale, 20)
	// Whole vRange blocks keep v's selectivity exact at every scale.
	n := scaled(factRows, e.scale, 2*vRange) / vRange * vRange
	return genFact(e.seed, n, nd1, nd2), genDim(e.seed, 2, "d1", nd1), genDim(e.seed, 3, "d2", nd2)
}

func setupJoinStream(e env) (instance, error) {
	fact, d1, d2 := streamTables(e)
	preds := []hierdb.Pred{{Col: factV, Op: hierdb.Lt, Val: vRange / 2}}
	ref := refQuery{scan: fact.Rows, preds: preds, joins: []refJoin{
		{build: d1.Rows, probeCol: factK1, buildCol: 0},
		{build: d2.Rows, probeCol: factK2, buildCol: 0},
	}}
	in := &engineInst{want: always(checksumOf(ref.eval()))}
	in.si = setupInfo{mainTable: "fact", ratio: "exec.speedup_workers", streamed: true, fact: fact, preds: preds}
	open := func(si *setupInfo, workers int) (*hierdb.DB, error) {
		return openWith(si, []hierdb.Option{hierdb.WithWorkers(workers)}, func(r registration) error {
			for _, t := range []*hierdb.Table{fact, d1, d2} {
				if err := r.table(t); err != nil {
					return err
				}
			}
			return nil
		})
	}
	var err error
	if in.db, err = open(&in.si, e.nproc); err != nil {
		return nil, err
	}
	// Ratio leg exec.speedup_workers: the same query on one worker.
	in.openAlt = func() (*hierdb.DB, error) { return open(new(setupInfo), 1) }
	in.build = fixed(func(db *hierdb.DB) *hierdb.Query {
		return db.Scan("fact").Where(preds...).
			Join(db.Scan("d1"), hierdb.KeyCol(factK1), hierdb.KeyCol(0)).
			Join(db.Scan("d2"), hierdb.KeyCol(factK2), hierdb.KeyCol(0))
	})
	return in, nil
}

func setupGroupMultinode(e env) (instance, error) {
	fact, dim := genSkewed(e.seed, scaled(groupFact, e.scale, 2000), scaled(groupKeys, e.scale, 16), groupCount)
	// Joined row: fact (k, v, tag) then dim (k, g, name).
	const vCol, gCol = 1, 4
	ref := refQuery{scan: fact.Rows, joins: []refJoin{{build: dim.Rows, probeCol: 0, buildCol: 0}},
		group: true, groupCol: gCol, sumCol: vCol}
	in := &engineInst{want: always(checksumOf(ref.eval())), collect: true}
	in.si = setupInfo{mainTable: "fact", ratio: "exec.steal_gain"}
	open := func(si *setupInfo, stealing bool) (*hierdb.DB, error) {
		opts := []hierdb.Option{hierdb.WithNodes(groupNodes), hierdb.WithWorkers(max(1, e.nproc/2)),
			hierdb.WithStripes(groupStripes), hierdb.WithStealing(stealing)}
		return openWith(si, opts, func(r registration) error {
			if err := r.table(fact); err != nil {
				return err
			}
			return r.table(dim)
		})
	}
	var err error
	if in.db, err = open(&in.si, true); err != nil {
		return nil, err
	}
	// Ratio leg exec.steal_gain: the same query with stealing off.
	in.openAlt = func() (*hierdb.DB, error) { return open(new(setupInfo), false) }
	in.build = fixed(func(db *hierdb.DB) *hierdb.Query {
		return db.Scan("fact").Join(db.Scan("dim"), hierdb.KeyCol(0), hierdb.KeyCol(0)).
			GroupBy(hierdb.KeyCol(gCol),
				hierdb.Aggregation{Func: hierdb.Count},
				hierdb.Aggregation{Func: hierdb.Sum, Arg: func(r hierdb.Row) float64 { return float64(r[vCol].(int)) }})
	})
	return in, nil
}

// diskChunkRows is the table-file row-group size of scan_disk.
const diskChunkRows = 4096

func setupScanDisk(e env) (instance, error) {
	fact, d1, _ := streamTables(e)
	half := len(fact.Rows) / 2
	// id >= half is zone-prunable (id is sequential): the lower half of
	// the chunks is skipped without I/O. v < vRange/5 is not.
	preds := []hierdb.Pred{{Col: factID, Op: hierdb.Ge, Val: half}, {Col: factV, Op: hierdb.Lt, Val: vRange / 5}}
	ref := refQuery{scan: fact.Rows, preds: preds, joins: []refJoin{{build: d1.Rows, probeCol: factK1, buildCol: 0}}}
	in := &engineInst{want: always(checksumOf(ref.eval()))}
	in.si = setupInfo{mainTable: "fact", ratio: "exec.disk_over_resident", ratioOfP50: true, streamed: true, fact: fact, preds: preds}

	path := filepath.Join(e.dir, "fact.hdb")
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	t0 := time.Now()
	if err := store.WriteTable(path, fact.Cols, diskChunkRows, fact.Rows); err != nil {
		return nil, err
	}
	in.si.fileWrite, in.si.filePath = time.Since(t0), path
	for _, r := range fact.Rows {
		in.si.fileUserBytes += int64(4*8 + len(r[factPayload].(string)))
	}

	var err error
	in.db, err = openWith(&in.si, []hierdb.Option{hierdb.WithWorkers(e.nproc)}, func(r registration) error {
		if err := r.source("fact", hierdb.FromFile(path)); err != nil {
			return err
		}
		return r.table(d1)
	})
	if err != nil {
		return nil, err
	}
	// Ratio leg exec.disk_over_resident: the same query on the resident table.
	in.openAlt = func() (*hierdb.DB, error) {
		return openWith(new(setupInfo), []hierdb.Option{hierdb.WithWorkers(e.nproc)}, func(r registration) error {
			if err := r.table(fact); err != nil {
				return err
			}
			return r.table(d1)
		})
	}
	in.build = fixed(func(db *hierdb.DB) *hierdb.Query {
		return db.Scan("fact").Where(preds...).Join(db.Scan("d1"), hierdb.KeyCol(factK1), hierdb.KeyCol(0))
	})
	return in, nil
}

// spillBudget is join_spill's WithMemory budget: far below the build
// side, so every query partitions build and probe to disk.
const spillBudget = 128 << 10

func setupJoinSpill(e env) (instance, error) {
	probe, build := genSpill(e.seed, scaled(spillProbe, e.scale, 2000), scaled(spillBuild, e.scale, 500))
	ref := refQuery{scan: probe.Rows, joins: []refJoin{{build: build.Rows, probeCol: 0, buildCol: 0}}}
	in := &engineInst{want: always(checksumOf(ref.eval()))}
	in.si = setupInfo{mainTable: "probe", ratio: "exec.spill_over_inmem", ratioOfP50: true, streamed: true,
		spillSrc: []*hierdb.Table{build, probe}, inputBytes: int64(16 * len(probe.Rows))}
	for _, r := range build.Rows {
		in.si.inputBytes += int64(8 + len(r[1].(string)))
	}
	spillDir := filepath.Join(e.dir, "spill")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, err
	}
	open := func(si *setupInfo, opts ...hierdb.Option) (*hierdb.DB, error) {
		return openWith(si, append(opts, hierdb.WithWorkers(e.nproc)), func(r registration) error {
			if err := r.table(probe); err != nil {
				return err
			}
			return r.table(build)
		})
	}
	var err error
	// At -quick scale the budget shrinks with the tables so the join still spills.
	budget := int64(float64(spillBudget) * e.scale)
	if in.db, err = open(&in.si, hierdb.WithMemory(budget), hierdb.WithSpillDir(spillDir)); err != nil {
		return nil, err
	}
	// Ratio leg exec.spill_over_inmem: the same join ungoverned.
	in.openAlt = func() (*hierdb.DB, error) { return open(new(setupInfo)) }
	in.build = fixed(func(db *hierdb.DB) *hierdb.Query {
		return db.Scan("probe").Join(db.Scan("build"), hierdb.KeyCol(0), hierdb.KeyCol(0))
	})
	return in, nil
}

func setupPointConcurrent(e env) (instance, error) {
	clients := e.nproc
	nacct := scaled(acctRows, e.scale, 256)
	// Enough pre-drawn ids that a client never wraps within one run at
	// the rates this engine reaches; wrapping is harmless (same mix).
	acct, region, ids := genAccounts(e.seed, nacct, regionRows, clients, 1<<16)
	// One unfiltered reference join, indexed by id: the expected row of
	// every possible lookup.
	full := refQuery{scan: acct.Rows, joins: []refJoin{{build: region.Rows, probeCol: 1, buildCol: 0}}}
	byID := make([]expected, nacct)
	for _, r := range full.eval() {
		byID[r[0].(int)].add(r)
	}
	in := &engineInst{collect: true}
	in.si = setupInfo{mainTable: "acct"}
	in.want = func(client, i int) expected { return byID[ids[client][i%len(ids[client])]] }
	opts := []hierdb.Option{hierdb.WithWorkers(e.nproc), hierdb.WithMaxConcurrentQueries(max(1, e.nproc/2)),
		hierdb.WithOptimizer(hierdb.OptimizerFull)}
	var err error
	in.db, err = openWith(&in.si, opts, func(r registration) error {
		if err := r.analyzed(acct); err != nil {
			return err
		}
		return r.analyzed(region)
	})
	if err != nil {
		return nil, err
	}
	tenants := []string{"even", "odd"}
	in.build = func(db *hierdb.DB, client, i int) *hierdb.Query {
		id := ids[client][i%len(ids[client])]
		return db.Scan("acct").Where(hierdb.Pred{Col: 0, Op: hierdb.Eq, Val: id}).
			Join(db.Scan("region"), hierdb.KeyCol(1), hierdb.KeyCol(0)).
			WithTenant(tenants[client%len(tenants)])
	}
	return in, nil
}

// simInst runs simulated executions: a fixed cycle of (plan, strategy)
// pairs, each checked bit for bit against its first run.
type simInst struct {
	plans []*hierdb.Plan
	cfg   hierdb.Config
	seed  uint64
	si    setupInfo
}

const simSkew = 0.8

func (s *simInst) cycle() int       { return 2 * len(s.plans) }
func (s *simInst) info() *setupInfo { return &s.si }
func (s *simInst) close() error     { return nil }

func (s *simInst) exec(combo int) (*hierdb.Run, error) {
	skew := func(o *hierdb.SimOptions) { o.RedistributionSkew = simSkew }
	if combo%2 == 0 {
		return hierdb.ExecuteDP(s.plans[combo/2], s.cfg, skew)
	}
	return hierdb.ExecuteFP(s.plans[combo/2], s.cfg, 0, s.seed, skew)
}

func (s *simInst) do(_ context.Context, client, i int, m mode) op {
	combo := i % s.cycle()
	t0 := time.Now()
	run, err := s.exec(combo)
	t1 := time.Now()
	o := op{lat: t1.Sub(t0)}
	if err != nil {
		o.lat, o.err = failedLatency, err
		return o
	}
	if m.tr != nil {
		m.tr.query(client, t0, t0, t0, t1)
	}
	o.rows = run.ResultTuples
	if ref := s.si.simRef[combo]; run.ResponseTime != ref.ResponseTime || run.ResultTuples != ref.ResultTuples {
		o.lat = failedLatency
		o.err = fmt.Errorf("simulation not deterministic: %s %s rt=%v tuples=%d, first run rt=%v tuples=%d",
			run.Strategy, run.Plan, run.ResponseTime, run.ResultTuples, ref.ResponseTime, ref.ResultTuples)
	}
	return o
}

func setupSimHier(e env) (instance, error) {
	const nodes, procs = 4, 2
	t0 := time.Now()
	gen := hierdb.GenerateWorkload(hierdb.BenchScale(), nodes)
	s := &simInst{cfg: hierdb.DefaultConfig(nodes, procs), seed: e.seed}
	s.si.simPlans = time.Since(t0) / time.Duration(len(gen.Plans))
	// The plans are fixed by the paper's parameters, not by -seed: the
	// seed only feeds FP's distortion stream, which an error rate of 0
	// never consults, so every seed measures the same virtual executions.
	s.plans = []*hierdb.Plan{hierdb.ChainPlan(5, nodes, 10), gen.Plans[0], gen.Plans[1]}
	for combo := 0; combo < s.cycle(); combo++ {
		run, err := s.exec(combo)
		if err != nil {
			return nil, err
		}
		s.si.simRef = append(s.si.simRef, run)
	}
	return s, nil
}
