package exec

// Physical compilation and per-fragment runtime state. A query runs as
// one fragment (query) per node under its coordinator (mquery, nodes.go):
// the fragment holds what is local to a node — operator queues, hash-table
// stripes, per-worker scratch, memory account — and contributes its
// queues to that node's scheduler (pool.go); everything global to the
// query (pending counts, chain barrier, result queue, error, stats)
// lives on the coordinator, reached through query.mq. A root
// activation's result batch goes back to the worker loop, whose epilogue
// queues it on the coordinator.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hierdb/internal/spill"
	"hierdb/internal/vec"
)

type opKind int

const (
	opScan opKind = iota
	opBuild
	opProbe
)

// pop is a physical operator.
type pop struct {
	id       int
	kind     opKind
	scan     *Scan
	join     *Join
	partner  *pop
	consumer *pop
	chain    int
	est      float64

	// Columnar schema, fixed at compile: the operator's output column
	// kinds and a build's or probe's key column in its input's schema.
	outKinds []vec.Kind
	keyCol   int
}

type physical struct {
	ops    []*pop
	chains [][]*pop
	root   *pop
}

// compile macro-expands the logical tree into scan/build/probe operators
// and pipeline chains in dependency order (§2.2), deriving every
// operator's schema on the way up and rejecting a key or output column
// its input does not have.
func compile(root Node) (*physical, error) {
	p := &physical{}
	out, err := p.expand(root)
	if err != nil {
		return nil, err
	}
	p.root = out
	p.buildChains()
	return p, nil
}

func (p *physical) newOp(kind opKind) *pop {
	op := &pop{id: len(p.ops), kind: kind, chain: -1}
	p.ops = append(p.ops, op)
	return op
}

func (p *physical) expand(n Node) (*pop, error) {
	switch v := n.(type) {
	case *Scan:
		if v.Table == nil {
			return nil, fmt.Errorf("exec: scan without table")
		}
		op := p.newOp(opScan)
		op.scan = v
		op.est = v.estimate()
		op.outKinds = scanKinds(v.Table)
		return op, nil
	case *Join:
		b, err := p.expand(v.Build)
		if err != nil {
			return nil, err
		}
		pr, err := p.expand(v.Probe)
		if err != nil {
			return nil, err
		}
		bw, pw := len(b.outKinds), len(pr.outKinds)
		if v.BuildKey < 0 || v.BuildKey >= bw {
			return nil, fmt.Errorf("exec: join BuildKey column %d out of range (build input has %d columns)", v.BuildKey, bw)
		}
		if v.ProbeKey < 0 || v.ProbeKey >= pw {
			return nil, fmt.Errorf("exec: join ProbeKey column %d out of range (probe input has %d columns)", v.ProbeKey, pw)
		}
		for _, c := range v.Out {
			if c < 0 || c >= pw+bw {
				return nil, fmt.Errorf("exec: join Out column %d out of range (probe ++ build has %d columns)", c, pw+bw)
			}
		}
		bld := p.newOp(opBuild)
		prb := p.newOp(opProbe)
		bld.join, prb.join = v, v
		bld.partner, prb.partner = prb, bld
		b.consumer = bld
		pr.consumer = prb
		bld.est = v.Build.estimate()
		prb.est = v.estimate()
		bld.keyCol, prb.keyCol = v.BuildKey, v.ProbeKey
		bld.outKinds, prb.outKinds = b.outKinds, joinKinds(pr.outKinds, bw, v.Out)
		return prb, nil
	case nil:
		return nil, fmt.Errorf("exec: nil plan node (missing join input?)")
	default:
		return nil, fmt.Errorf("exec: unknown node type %T", n)
	}
}

func (p *physical) buildChains() {
	for _, op := range p.ops {
		if op.kind != opScan {
			continue
		}
		chain := []*pop{op}
		cur := op
		for cur.consumer != nil {
			chain = append(chain, cur.consumer)
			if cur.consumer.kind == opBuild {
				break
			}
			cur = cur.consumer
		}
		id := len(p.chains)
		for _, c := range chain {
			c.chain = id
		}
		p.chains = append(p.chains, chain)
	}
	// Topological order: the chain building a hash table precedes the
	// chain probing it.
	n := len(p.chains)
	succ := make([][]int, n)
	indeg := make([]int, n)
	for _, op := range p.ops {
		if op.kind != opBuild {
			continue
		}
		succ[op.chain] = append(succ[op.chain], op.partner.chain)
		indeg[op.partner.chain]++
	}
	var order []int
	ready := []int{}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		best := 0
		for i := 1; i < len(ready); i++ {
			if ready[i] < ready[best] {
				best = i
			}
		}
		c := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		order = append(order, c)
		for _, s := range succ[c] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	reordered := make([][]*pop, n)
	for newID, oldID := range order {
		reordered[newID] = p.chains[oldID]
		for _, op := range reordered[newID] {
			op.chain = newID
		}
	}
	p.chains = reordered
}

// activation is a self-contained unit of work: a scan morsel, a batch
// of pipelined columns, or a spill-phase step of a memory-governed
// join.
type activation struct {
	op *pop
	// b, for a batch of pipelined columns, is the batch its producer
	// built (or scanned); the activation is rows [lo,hi) of it, which its
	// kernel views on worker scratch (input). nil for a scan morsel,
	// whose lo and hi bound rows of the table's columnization; for a scan
	// over a file-backed table the activation is one chunk: lo is the
	// chunk index and hi = lo+1.
	b      *vec.Batch
	lo, hi int
	// dest is the node a routed batch is bound for (scan morsels, seeded
	// on their own node, leave it 0).
	dest int
	// spill carries the payload of a spill-phase activation (load a
	// partition / probe a spilled batch); nil for ordinary activations.
	spill *spillAct
	// res is the refcounted memory charge of the decoded chunk this
	// activation's batch shares storage with (governed file scans only;
	// the worker loop propagates it downstream and releases it).
	res *chunkRes
}

// opRun is the runtime state of one operator.
type opRun struct {
	op     *pop
	queues [][]*activation // one per worker (primary-queue affinity)
	rr     int             // enqueue round-robin cursor
	queued int             // activations across all queues (pick fast path)

	// Build side (build operators; the probe reaches it via partner).
	// While the build chain runs: one append-only columnar stripe per
	// lock, nil until its first row and presized for stripeHint rows then.
	stripes    []*vec.Appender
	locks      []sync.Mutex //hierdb:lock stripe
	stripeHint int
	// sealOnce single-flights the seal of the build side (opRun.seal)
	// that the first probe or thief triggers after the build barrier and
	// that turns the stripes into side. The seal takes no tracked lock and
	// is never entered with a pool, mq, jspill or stripe lock held: a
	// waiter on the Once would stall a scheduler for the length of a copy.
	sealOnce sync.Once
	side     *buildSide
	sealErr  error
	// stripeRows counts tuples per stripe (guarded by the stripe lock);
	// the steal protocol prices bucket shipping with it.
	stripeRows []int

	// Memory governance (build operators of governed queries only).
	// spill is the join's partitioned-execution state; stripeSpilled
	// marks stripes drained by the spill transition (guarded by the
	// stripe lock), diverting racing inserts to the spill partitions.
	spill         *joinSpill
	stripeSpilled []bool

	// cache holds hash-table buckets acquired from other nodes by the
	// steal protocol, keyed by global bucket id (probe operators only,
	// nil until a steal). Copy-on-write: rounds are single-flight
	// per node, so the only writer swaps the whole map.
	cache atomic.Pointer[bucketCache]
}

// bucketCache maps the global bucket ids acquired from their owner node
// to that owner's sealed build side — non-nil for an empty bucket too,
// so a bucket is acquired once. The side is sealed before it is cached
// and immutable from then on, so acquisition shares it and accounts the
// bucket's shipped bytes.
type bucketCache = map[int]*buildSide

// query is one node's fragment of an in-flight query: the compiled
// plan's operator queues on that node's pool, the node-local scheduling
// state, and per-fragment accounting. The plan, result queue and every
// query-global decision belong to the coordinator q.mq; the engine's
// configuration to q.mq.nodes. All fields below the sync markers are
// guarded by the pool mutex unless noted.
type query struct {
	mq   *mquery
	node int // this fragment's node index on the engine
	pool *pool

	ops      []*opRun
	chain    int  // current pipeline chain (set by the coordinator)
	inflight int  // activations being processed by workers right now
	anchored int  // workers whose affinity anchor is this query
	done     bool // all chains completed (set by the coordinator)
	aborted  bool // cancelled or failed; queues cleared
	retired  bool // removed from the pool; finalize pending or done

	// Group-by delivery: once all chains are done, a worker claims the
	// merge job (merging), folds the node's partials, and the last node
	// queues the final batches on the coordinator. mergeDone gates
	// retirement.
	merging   bool
	mergeDone bool
	// stealBusy marks a steal round in flight for this fragment (claimed
	// like merging); stealIdle holds off further rounds after a failed one
	// until a producer refills a peer queue past the wake threshold. Both
	// are guarded by the pool mutex, and sit here to share the flags' word.
	stealBusy bool
	stealIdle bool

	// static (FP) assignment: allowed[w] is the operator set of worker w
	// for the current chain; nil in dynamic mode.
	allowed []map[*pop]bool

	// Per-fragment traffic and steal counters, accessed atomically (a
	// steal round can race retirement).
	shipIn, shipOut                                                  int64
	stealRounds, steals, stolenActs, stolenBuckets, stolenBucketByte int64

	// varenas holds one columnar arena per worker: selection vectors,
	// gather targets and materialized rows are carved from large chunks
	// instead of allocated per batch; vscratch the matching reusable
	// kernel state (hash vectors, match triples, routing lists).
	varenas  []vec.Arena
	vscratch []vecScratch
	// partials holds per-worker aggregation state of a group-by query;
	// worker w touches only partials[w].
	partials []groupFold

	// Memory governance (all zero/nil when the engine has no
	// MemoryPerNode budget — the governed state simply does not exist on
	// the default hot path). broker is the node's memory account; memUsed
	// the fragment's current charge (hash-table entries, loaded spill
	// partitions, group-by partials, in-flight chunks, stolen bucket
	// caches), which lease must cover, topped up from (and trimmed back
	// to) the broker.
	broker  *memBroker
	memUsed atomic.Int64
	lease   memLease
	// spillMu guards the fragment's spill file and partition registry
	// (innermost after joinSpill.mu; never held while taking scheduler
	// locks).
	spillMu    sync.Mutex //hierdb:lock spillmu
	spillDisk  *spill.Disk
	spillFiles []*spill.File
	// Per-worker group-by spill state: worker w touches only index w.
	gbFiles   []*spill.File
	gbCharged []int64
	gbGroups  []int
	// Spill counters (sealed into Stats at retirement).
	spilledParts atomic.Int64
	spilledBytes atomic.Int64
	spillPhases  atomic.Int64
	// Disk-scan counters (file-backed tables; sealed like the spill
	// counters).
	disk diskCounters

	// Activation and row counters, sealed into the coordinator's Stats at
	// retirement: acts under the pool mutex; resultRows (rows this node
	// queued) under the coordinator's; perWorker (this node's window of
	// the coordinator's engine-wide slice) and opRows (rows produced per
	// operator id) by atomic adds from the worker loop.
	acts       int64
	resultRows int64
	perWorker  []int64
	opRows     []int64
}

// newFragment builds the fragment of mq that runs on node. A build
// operator gets its per-stripe arrays and no stripe: a stripe costs
// nothing until a row is routed to it. Key routing spreads a build table
// across the engine's nodes, so stripe presizing divides by the node
// count; a governed build drains its stripes at the budget, long before
// the estimate, so leaves them unsized.
func newFragment(mq *mquery, node int) *query {
	phys, gb, cfg := mq.phys, mq.gb, &mq.nodes.cfg
	p := mq.nodes.pools[node]
	q := &query{mq: mq, node: node, pool: p, broker: p.broker}
	workers := cfg.Workers
	for _, op := range phys.ops {
		or := &opRun{op: op, queues: make([][]*activation, workers)}
		if op.kind == opBuild {
			or.stripes = make([]*vec.Appender, cfg.Stripes)
			or.locks = make([]sync.Mutex, cfg.Stripes)
			or.stripeRows = make([]int, cfg.Stripes)
			if q.broker != nil {
				or.spill = &joinSpill{}
				or.stripeSpilled = make([]bool, cfg.Stripes)
			} else {
				or.stripeHint = int(op.est)/(cfg.Stripes*mq.n) + 1
			}
		}
		q.ops = append(q.ops, or)
	}
	q.varenas = make([]vec.Arena, workers)
	q.vscratch = make([]vecScratch, workers)
	lo := node * workers
	q.perWorker = mq.stats.PerWorker[lo : lo+workers : lo+workers]
	q.opRows = make([]int64, len(phys.ops))
	if cfg.Static {
		q.allowed = make([]map[*pop]bool, workers)
	}
	if gb != nil {
		q.partials = make([]groupFold, workers)
		for w := range q.partials {
			q.partials[w].m = make(map[any]*groupState)
		}
		if q.broker != nil {
			q.gbFiles = make([]*spill.File, workers)
			q.gbCharged = make([]int64, workers)
			q.gbGroups = make([]int, workers)
		}
	}
	return q
}

// terminalLocked reports whether the query no longer accepts scheduling.
func (q *query) terminalLocked() bool { return q.done || q.aborted }

// failLocked is the fragment's share of mquery.fail: queued activations
// are dropped so no worker picks from it again. A done fragment that has
// not yet retired (its merge still to run) can still be failed — only
// retirement makes the outcome final. Callers hold the pool mutex.
func (q *query) failLocked() {
	if q.aborted || q.retired {
		return
	}
	q.aborted = true
	for _, or := range q.ops {
		for i := range or.queues {
			or.queues[i] = nil
		}
		or.queued = 0
	}
}

// assignStatic distributes workers over the chain's operators
// proportionally to estimated cost — the FP baseline. Callers hold the
// pool mutex.
func (q *query) assignStatic(chain []*pop) {
	w := len(q.allowed)
	for i := range q.allowed {
		q.allowed[i] = make(map[*pop]bool)
	}
	if len(chain) <= w {
		counts := make([]int, len(chain))
		for i := range chain {
			counts[i] = 1
		}
		assigned := len(chain)
		for assigned < w {
			best, bestRatio := 0, -1.0
			for i, op := range chain {
				r := op.est / float64(counts[i])
				if r > bestRatio {
					bestRatio, best = r, i
				}
			}
			counts[best]++
			assigned++
		}
		wi := 0
		for i, op := range chain {
			for j := 0; j < counts[i]; j++ {
				q.allowed[wi][op] = true
				wi++
			}
		}
		return
	}
	loads := make([]float64, w)
	order := make([]int, len(chain))
	for i := range order {
		order[i] = i
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if chain[order[j]].est > chain[order[i]].est {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for _, oi := range order {
		best := 0
		for wi := 1; wi < w; wi++ {
			if loads[wi] < loads[best] {
				best = wi
			}
		}
		loads[best] += chain[oi].est
		q.allowed[best][chain[oi]] = true
	}
}

// enqueueLocked adds an activation to the operator's next queue
// round-robin (the coordinator has already counted it pending). Callers
// hold the pool mutex.
//
//hierdb:hotpath
func (q *query) enqueueLocked(or *opRun, a *activation) {
	or.queues[or.rr] = append(or.queues[or.rr], a)
	or.rr = (or.rr + 1) % len(or.queues)
	or.queued++
}

// pickLocked selects the next activation of this query for worker w:
// downstream operators of the current chain first (draining pipelines
// bounds memory, playing the role of the paper's flow control), the
// worker's primary queue before other queues of the same operator.
// Callers hold the pool mutex.
//
//hierdb:hotpath
func (q *query) pickLocked(w int) *activation {
	chain := q.mq.phys.chains[q.chain]
	for i := len(chain) - 1; i >= 0; i-- {
		op := chain[i]
		if q.allowed != nil && !q.allowed[w][op] {
			continue
		}
		or := q.ops[op.id]
		if a := q.popQueue(or, w); a != nil {
			return a
		}
	}
	return nil
}

//hierdb:hotpath
func (q *query) popQueue(or *opRun, w int) *activation {
	if or.queued == 0 {
		return nil
	}
	if qq := or.queues[w]; len(qq) > 0 {
		a := qq[len(qq)-1]
		or.queues[w] = qq[:len(qq)-1]
		or.queued--
		return a
	}
	for i := range or.queues {
		if qq := or.queues[i]; len(qq) > 0 {
			a := qq[len(qq)-1]
			or.queues[i] = qq[:len(qq)-1]
			or.queued--
			return a
		}
	}
	return nil
}

// finalize completes the fragment's retirement: the spill file and the
// memory lease are released, and the coordinator — which seals stats and
// wakes the consumer when the last fragment retires — is told. All
// output, including merged group-by batches, has already been queued (or
// dropped by an abort) before retirement, so finalize never blocks.
// Called exactly once, by whoever retired the fragment, without the pool
// mutex.
func (q *query) finalize() {
	q.releaseSpill()
	if q.broker != nil {
		q.broker.releaseAll(&q.lease)
	}
	q.mq.fragRetired()
}

// scanSrc is the columnar source of a resident-table scan operator:
// this node's partition of the table.
func (q *query) scanSrc(op *pop) *vec.Batch {
	return q.mq.ops[op.id].parts[q.node]
}

// countOpRows attributes one processed activation's produced rows to
// its operator: batches addressed to the operator's consumer, plus the
// root operator's result batch (a root under a group-by has none: it
// hands addOpRows what it folded). Spill-phase fan-out (activations a
// partition load addresses to the producing operator itself) replays
// input that was already counted at production, so it is excluded.
//
//hierdb:hotpath
func (q *query) countOpRows(a *activation, outs []*activation, results *vec.Batch) {
	n := 0
	if results != nil {
		n = results.N
	}
	for _, out := range outs {
		if out.op == a.op.consumer {
			n += out.hi - out.lo
		}
	}
	q.addOpRows(a.op, n)
}

// addOpRows is the one counter of the rows an operator produced.
func (q *query) addOpRows(op *pop, n int) {
	if n != 0 {
		atomic.AddInt64(&q.opRows[op.id], int64(n))
	}
}

// process executes one activation outside the scheduler lock. It returns
// downstream batches and, for the root operator, a result batch.
//
//hierdb:hotpath
func (q *query) process(a *activation, w int) (outs []*activation, results *vec.Batch) {
	if a.spill != nil {
		switch a.spill.kind {
		case spillLoad:
			return q.processSpillLoad(a, w), nil
		case spillProbe:
			return q.processSpillProbe(a, w)
		}
	}
	switch a.op.kind {
	case opScan:
		if a.op.scan.Table.File != nil {
			return q.processScanFile(a, w)
		}
		return q.processScanVec(a, w)
	case opBuild:
		or := q.ops[a.op.id]
		if q.broker != nil {
			if err := q.buildGoverned(or, a.input(&q.vscratch[w]), w); err != nil {
				q.mq.fail(err)
			}
			break
		}
		q.processBuildVec(a, w)
	case opProbe:
		bo := q.ops[a.op.partner.id]
		if sp := bo.spill; sp != nil && sp.active.Load() {
			// The build side spilled: probe input is partitioned to the
			// join's probe spill files and joined partition-wise once the
			// probe input is exhausted (spillNextLocked).
			if err := q.spillBatch(sp.probe, a.op.keyCol, 0, a.input(&q.vscratch[w]), &q.vscratch[w]); err != nil {
				q.mq.fail(err)
			}
			break
		}
		return q.processProbeVec(a, w)
	}
	return outs, results
}
