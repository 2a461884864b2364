package exec

// Multi-node execution: the paper's hierarchical architecture brought to
// the real-data engine. A Nodes engine owns N node-local worker Pools —
// each the shared-memory DP scheduler of pool.go — and hash-partitions
// every table across them. A query fans out as one plan fragment per
// node: scans read the node's partition, build/probe input batches are
// routed to the node owning their join key (global bucket
// g = hash(key) mod nodes*Stripes, owner g mod nodes), and each node
// schedules its fragment DP-style exactly as a single-node query. The
// inter-node layer — starving nodes acquiring remote probe queues with
// their hash-table buckets — lives in globallb.go.
//
// Locking: an mquery coordinator carries the query-global operator
// accounting (pending counts, chain barrier) under its own mutex.
// Coordinator work may take pool mutexes (mq.mu -> pool.mu), never the
// reverse; at most one pool mutex is held at a time.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hierdb/internal/vec"
)

// Nodes is a multi-node engine: n node-local worker pools behind one
// Submit surface. With n == 1 it is exactly a single Pool (every call
// delegates), so the multi-node machinery costs nothing until a second
// node exists.
type Nodes struct {
	n       int
	workers int // per node
	pools   []*Pool
	// admit is the engine-wide admission controller (nil = unlimited).
	// With n == 1 it lives on the single pool instead, so the delegated
	// Submit path owns admission end to end.
	admit *admitter

	mu     sync.Mutex
	parts  map[*Table][]*vec.Batch
	live   map[*mquery]struct{}
	nextID int64
	closed bool
}

// EngineConfig configures a Nodes engine at creation — the explicit
// form of the NewNodes positional arguments, plus the admission and
// memory-broker knobs.
type EngineConfig struct {
	// Nodes is the SM-node count (0 = 1); Workers the per-node worker
	// count (0 = 4).
	Nodes   int
	Workers int
	// MaxConcurrentQueries bounds in-flight queries across the engine
	// (0 = unlimited). Excess Submits park in a bounded FIFO admission
	// queue, dequeued round-robin across Options.Tenant labels.
	MaxConcurrentQueries int
	// AdmissionQueue caps how many Submits may park waiting for a slot
	// (0 = 8 per slot); one more is rejected with ErrAdmissionQueueFull.
	// Only meaningful with MaxConcurrentQueries > 0.
	AdmissionQueue int
	// BrokerMemory, when > 0, puts each node's memory governance behind
	// a shared broker of this many bytes: in-flight fragments lease
	// bytes from the node's pool instead of owning a fixed
	// Options.MemoryPerNode split, and a fragment denied a top-up
	// spills exactly as a fixed-split fragment would. Queries submitted
	// with MemoryPerNode == 0 stay ungoverned either way.
	BrokerMemory int64
}

// NewNodes starts a multi-node engine: nodes pools of workers goroutines
// each (both 0 means the default: 1 node, 4 workers). maxConcurrent
// bounds in-flight queries across the engine (0 = unlimited).
func NewNodes(nodes, workers, maxConcurrent int) (*Nodes, error) {
	return NewNodesConfig(EngineConfig{Nodes: nodes, Workers: workers, MaxConcurrentQueries: maxConcurrent})
}

// NewNodesConfig starts an engine from an explicit configuration; see
// EngineConfig.
func NewNodesConfig(cfg EngineConfig) (*Nodes, error) {
	nodes := cfg.Nodes
	if nodes < 0 {
		return nil, fmt.Errorf("exec: negative Nodes (%d)", nodes)
	}
	if nodes == 0 {
		nodes = 1
	}
	if cfg.MaxConcurrentQueries < 0 {
		return nil, fmt.Errorf("exec: negative MaxConcurrentQueries (%d)", cfg.MaxConcurrentQueries)
	}
	if cfg.AdmissionQueue < 0 {
		return nil, fmt.Errorf("exec: negative AdmissionQueue (%d)", cfg.AdmissionQueue)
	}
	if cfg.BrokerMemory < 0 {
		return nil, fmt.Errorf("exec: negative BrokerMemory (%d)", cfg.BrokerMemory)
	}
	var admit *admitter
	if cfg.MaxConcurrentQueries > 0 {
		admit = newAdmitter(cfg.MaxConcurrentQueries, cfg.AdmissionQueue)
	}
	broker := func() *memBroker {
		if cfg.BrokerMemory > 0 {
			return &memBroker{budget: cfg.BrokerMemory}
		}
		return nil
	}
	ns := &Nodes{n: nodes}
	if nodes == 1 {
		p, err := newPool(cfg.Workers, admit, broker())
		if err != nil {
			return nil, err
		}
		ns.pools = []*Pool{p}
		ns.workers = p.Workers()
		return ns, nil
	}
	workers := cfg.Workers
	if workers < 0 {
		return nil, fmt.Errorf("exec: negative Workers (%d)", workers)
	}
	if workers == 0 {
		workers = 4
	}
	ns.workers = workers
	ns.parts = make(map[*Table][]*vec.Batch)
	ns.live = make(map[*mquery]struct{})
	ns.admit = admit
	for i := 0; i < nodes; i++ {
		p, err := newPool(workers, nil, broker())
		if err != nil {
			for _, q := range ns.pools {
				q.Close()
			}
			return nil, err
		}
		ns.pools = append(ns.pools, p)
	}
	return ns, nil
}

// NodeCount returns the number of SM-nodes.
func (ns *Nodes) NodeCount() int { return ns.n }

// Workers returns the per-node worker count.
func (ns *Nodes) Workers() int { return ns.workers }

// Partition returns (computing and caching on first use) the engine's
// hash partition of a table: n columnar views over the table's shared
// columnization, row i assigned by a hash of its position, so
// partitions are balanced regardless of key distribution. The table's
// rows must not be mutated once partitioned. The cache lives for the
// engine's lifetime — only registration-time tables (the DB catalog)
// should go through Partition; query-time partitioning of other tables
// uses partitionFor, which does not cache.
func (ns *Nodes) Partition(t *Table) []*vec.Batch {
	if t.File != nil {
		// File-backed tables are never resident-partitioned: chunks are
		// assigned to node fragments positionally at chain start.
		return nil
	}
	if ns.n == 1 {
		return []*vec.Batch{columnize(t)}
	}
	ns.mu.Lock()
	if p, ok := ns.parts[t]; ok {
		ns.mu.Unlock()
		return p
	}
	ns.mu.Unlock()
	// Partition outside the engine mutex — a large table must not stall
	// concurrent submits. Two racers compute twice; first store wins.
	p := hashPartition(t, ns.n)
	ns.mu.Lock()
	if prev, ok := ns.parts[t]; ok {
		p = prev
	} else {
		ns.parts[t] = p
	}
	ns.mu.Unlock()
	return p
}

// partitionFor is the query-time lookup: registered tables hit the
// cache, transient ones are partitioned per query without caching (an
// engine-lifetime cache keyed by *Table would otherwise grow without
// bound for callers submitting plans over throwaway tables).
func (ns *Nodes) partitionFor(t *Table) []*vec.Batch {
	ns.mu.Lock()
	if p, ok := ns.parts[t]; ok {
		ns.mu.Unlock()
		return p
	}
	ns.mu.Unlock()
	return hashPartition(t, ns.n)
}

// hashPartition builds n index views over the table's columnization —
// no row is copied, each partition shares the table's column storage.
func hashPartition(t *Table, n int) []*vec.Batch {
	b := columnize(t)
	idx := make([][]int32, n)
	per := b.N/n + 1
	for d := range idx {
		idx[d] = make([]int32, 0, per)
	}
	for i := 0; i < b.N; i++ {
		d := int(mix64(uint64(i)) % uint64(n))
		idx[d] = append(idx[d], int32(i))
	}
	var a vec.Arena
	p := make([]*vec.Batch, n)
	for d := range p {
		p[d] = vec.Select(b, idx[d], &a)
	}
	return p
}

// Submit compiles and starts a query on the engine; see Pool.Submit.
// With more than one node the query executes as per-node fragments with
// key-routed redistribution between operators; results are identical to
// single-node execution (stream order aside).
func (ns *Nodes) Submit(ctx context.Context, root Node, opt Options) (*Handle, error) {
	return ns.submit(ctx, root, nil, opt)
}

// SubmitGroupBy is Submit with a grouped aggregation folded over the
// plan's output; see Pool.SubmitGroupBy. On a multi-node engine workers
// fold node-local partials, each node merges its workers' partials when
// the plan completes, and the per-node results merge at retirement.
func (ns *Nodes) SubmitGroupBy(ctx context.Context, root Node, gb *GroupBy, opt Options) (*Handle, error) {
	if err := validateGroupBy(gb); err != nil {
		return nil, err
	}
	return ns.submit(ctx, root, gb, opt)
}

func (ns *Nodes) submit(ctx context.Context, root Node, gb *GroupBy, opt Options) (*Handle, error) {
	if ns.n == 1 {
		return ns.pools[0].submit(ctx, root, gb, opt)
	}
	opt, err := opt.validateFor(ns.workers)
	if err != nil {
		return nil, err
	}
	if root == nil {
		return nil, fmt.Errorf("exec: nil plan")
	}
	// Admission precedes compilation — see Pool.submit.
	var wait time.Duration
	if ns.admit != nil {
		if wait, err = ns.admit.acquire(ctx, opt.Tenant); err != nil {
			return nil, err
		}
	}
	phys, err := compile(root)
	if err != nil {
		if ns.admit != nil {
			ns.admit.release()
		}
		return nil, err
	}
	annotateVec(phys)
	qctx, qcancel := context.WithCancel(ctx)
	mq := &mquery{
		nodes:     ns,
		phys:      phys,
		gb:        gb,
		opt:       opt,
		n:         ns.n,
		buckets:   ns.n * opt.Stripes,
		ctx:       qctx,
		cancel:    qcancel,
		sink:      make(chan *vec.Batch, 2*opt.Workers*ns.n),
		finished:  make(chan struct{}),
		scanParts: make(map[int][]*vec.Batch),
		ops:       make([]mop, len(phys.ops)),
	}
	for _, op := range phys.ops {
		if op.kind == opScan && op.scan.Table.File == nil {
			mq.scanParts[op.id] = ns.partitionFor(op.scan.Table)
		}
	}
	if gb != nil {
		mq.nodeParts = make([]map[any]*groupState, ns.n)
	}
	mq.remaining.Store(int64(ns.n))
	// Fragments are fully built before the query becomes visible in
	// live: a concurrent Close walks mq.frags without a lock.
	for i := 0; i < ns.n; i++ {
		fq := newQuery(ns.pools[i], phys, gb, opt, qctx, qcancel, ns.n, mq.sink)
		fq.mq = mq
		fq.node = i
		mq.frags = append(mq.frags, fq)
	}

	mq.stats.AdmissionWait = wait
	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		qcancel()
		if ns.admit != nil {
			ns.admit.release()
		}
		return nil, ErrClosed
	}
	mq.id = ns.nextID
	ns.nextID++
	mq.stats.QueryID = mq.id
	ns.live[mq] = struct{}{}
	ns.mu.Unlock()

	for _, fq := range mq.frags {
		fq.id = mq.id
		fq.stats.QueryID = mq.id
	}
	// Attach fragments to their pools. A concurrent Close either sees the
	// query in live (and fails it) or has already closed the pool, in
	// which case the fragment fails right here.
	var fin []*query
	for i, fq := range mq.frags {
		p := ns.pools[i]
		p.mu.Lock()
		if p.closed {
			fq.failLocked(ErrClosed)
		} else if !fq.retired {
			p.queries = append(p.queries, fq)
		}
		if p.retireIfDoneLocked(fq) {
			fin = append(fin, fq)
		}
		p.mu.Unlock()
	}
	for _, fq := range fin {
		fq.finalize()
	}
	mq.start()
	go mq.watch()
	return &Handle{mq: mq}, nil
}

// release returns a retired query's admission slot and live entry.
func (ns *Nodes) release(mq *mquery) {
	ns.mu.Lock()
	delete(ns.live, mq)
	ns.mu.Unlock()
	if ns.admit != nil {
		ns.admit.release()
	}
}

// Close aborts in-flight queries with ErrClosed and stops every pool's
// workers. Idempotent; blocks until all workers exit.
func (ns *Nodes) Close() {
	if ns.n == 1 {
		ns.pools[0].Close()
		return
	}
	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		return
	}
	ns.closed = true
	live := make([]*mquery, 0, len(ns.live))
	for mq := range ns.live {
		live = append(live, mq)
	}
	ns.mu.Unlock()
	// Parked admission waiters first: they must fail with ErrClosed
	// promptly, before the in-flight queries drain.
	if ns.admit != nil {
		ns.admit.close()
	}
	for _, mq := range live {
		mq.fail(ErrClosed)
	}
	for _, p := range ns.pools {
		p.Close()
	}
}

// mop is the coordinator's per-operator accounting: pend counts queued
// plus in-process activations across all nodes.
type mop struct {
	pend    int64
	prodEnd bool
	done    bool
}

// mquery coordinates one multi-node query: per-node fragments, global
// operator/chain state, the shared result sink, steal bookkeeping and
// sealed stats. See the package comment at the top of this file for the
// locking rules.
type mquery struct {
	nodes *Nodes
	id    int64
	phys  *physical
	gb    *GroupBy
	opt   Options
	n     int
	// buckets is the global hash-bucket count n*Stripes; a key's owner
	// node is hashKey(k, buckets) mod n.
	buckets   int
	scanParts map[int][]*vec.Batch // scan opID -> per-node partition

	ctx      context.Context //hierdb:ctx-in-struct coordinator lifetime: cancelled when the multi-node query retires
	cancel   context.CancelFunc
	sink     chan *vec.Batch
	finished chan struct{}
	frags    []*query

	remaining   atomic.Int64 // fragments not yet retired
	idleThieves atomic.Int64 // fragments parked in stealIdle

	mu      sync.Mutex //hierdb:lock mq
	ops     []mop
	chain   int
	done    bool
	aborted bool
	err     error
	merged  int // fragments whose per-node group-by partial is merged
	// nodeParts holds the per-node merged partial aggregation states.
	nodeParts []map[any]*groupState

	stats Stats
}

// start seeds the first chain. Separate from submit so the empty-input
// cascade (a plan of empty tables completes immediately) is handled.
func (mq *mquery) start() {
	var completed bool
	mq.mu.Lock()
	if !mq.aborted {
		completed = mq.startChain(0)
	}
	mq.mu.Unlock()
	if completed {
		mq.completeFrags()
	}
}

// startChain seeds every fragment's driver-scan morsels over its table
// partition and resets per-chain steal state. Returns true when the
// cascade completed the whole query (all chains empty). Callers hold
// mq.mu.
func (mq *mquery) startChain(c int) bool {
	mq.chain = c
	chain := mq.phys.chains[c]
	driver := chain[0]
	total := 0
	for i, fq := range mq.frags {
		p := mq.nodes.pools[i]
		p.mu.Lock()
		fq.chain = c
		if fq.stealIdle {
			fq.stealIdle = false
			mq.idleThieves.Add(-1)
		}
		if !fq.aborted {
			or := fq.ops[driver.id]
			if ft := driver.scan.Table.File; ft != nil {
				// File-backed driver: chunks are assigned to fragments
				// positionally — mix64 of the chunk index, mirroring
				// hashPartition's row rule — so every node streams a
				// balanced share regardless of data distribution.
				for ci := 0; ci < ft.NumChunks(); ci++ {
					if int(mix64(uint64(ci))%uint64(mq.n)) != i {
						continue
					}
					fq.enqueueLocked(or, &activation{op: driver, lo: ci, hi: ci + 1})
					total++
				}
			} else {
				part := mq.scanParts[driver.id][i]
				for lo := 0; lo < part.N; lo += mq.opt.Morsel {
					hi := min(lo+mq.opt.Morsel, part.N)
					fq.enqueueLocked(or, &activation{op: driver, lo: lo, hi: hi})
					total++
				}
			}
			if fq.allowed != nil {
				fq.assignStatic(chain)
			}
		}
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	mo := &mq.ops[driver.id]
	mo.pend += int64(total)
	mo.prodEnd = true
	if total == 0 && !mo.done {
		return mq.opFinished(driver)
	}
	return false
}

// epilogue is the post-processing bookkeeping of one fragment
// activation: route output batches to their owner nodes, settle global
// pending counts, and advance operators/chains. Called by the worker
// loop without any lock held; the caller still decrements q.inflight
// and runs the retirement check on its own pool afterwards.
//
//hierdb:hotpath
func (mq *mquery) epilogue(q *query, a *activation, outs []*activation, delivered bool) {
	if !delivered {
		mq.fail(q.ctx.Err())
	}
	if len(outs) > 0 {
		mq.mu.Lock()
		aborted := mq.aborted
		if !aborted {
			// Each out addresses its own operator: the consumer, or the
			// producing operator itself (spill-phase probes, a probe
			// batch's cut-off tail).
			for _, out := range outs {
				mq.ops[out.op.id].pend++
			}
		}
		mq.mu.Unlock()
		if !aborted {
			mq.deliverOuts(q, outs)
		}
	}
	var completed bool
	mq.mu.Lock()
	mo := &mq.ops[a.op.id]
	mo.pend--
	if !mq.aborted && mo.pend == 0 && mo.prodEnd && !mo.done {
		completed = mq.opFinished(a.op)
	}
	mq.mu.Unlock()
	if completed {
		mq.completeFrags()
	}
}

// deliverOuts enqueues routed batches on their destination fragments
// (the redistribution "network" of the hierarchy), waking destination
// workers and any steal-idle thief whose peers refilled past the wake
// threshold. Called without locks; pending counts were settled first.
//
//hierdb:hotpath
func (mq *mquery) deliverOuts(src *query, outs []*activation) {
	for d := 0; d < mq.n; d++ {
		count, rows := 0, 0
		for _, a := range outs {
			if a.dest == d {
				count++
				if a.b != nil { // spill activations carry refs, not batches
					rows += a.b.N
				}
			}
		}
		if count == 0 {
			continue
		}
		dst := mq.frags[d]
		p := mq.nodes.pools[d]
		queued := 0
		p.mu.Lock()
		if !dst.aborted {
			for _, a := range outs {
				if a.dest == d {
					or := dst.ops[a.op.id]
					dst.enqueueLocked(or, a)
					queued = or.queued
				}
			}
			if dst.allowed != nil {
				// Static (FP) mode: targeted signals could wake workers
				// not allowed to run the consumer — wake everyone.
				p.cond.Broadcast()
			} else {
				p.wakeLocked(count)
			}
		}
		p.mu.Unlock()
		if d != src.node {
			atomic.AddInt64(&src.shipOut, int64(rows))
			atomic.AddInt64(&dst.shipIn, int64(rows))
		}
		if queued >= stealWakeThreshold && mq.idleThieves.Load() > 0 {
			mq.wakeThieves(d)
		}
	}
}

// wakeThieves clears steal-idle marks (set after a failed round) so
// starving nodes re-solicit offers — the real-engine analogue of the
// paper's paced starving retries, driven by producers instead of a
// timer. except is the node whose queue just refilled.
func (mq *mquery) wakeThieves(except int) {
	for i, fq := range mq.frags {
		if i == except {
			continue
		}
		p := mq.nodes.pools[i]
		p.mu.Lock()
		if fq.stealIdle {
			fq.stealIdle = false
			mq.idleThieves.Add(-1)
			p.cond.Broadcast()
		}
		p.mu.Unlock()
	}
}

// opFinished marks an operator globally done, cascades end-of-producer
// to its consumer, and advances the chain barrier; returns true once
// the last chain completes. A probe operator whose join spilled on some
// fragments is advanced instead: every such fragment gets its next
// partition-load activation, and the operator only finishes once every
// fragment's partitions are joined. Callers hold mq.mu (taking pool
// mutexes here follows the mq -> pool lock order).
func (mq *mquery) opFinished(op *pop) bool {
	if op.kind == opProbe && !mq.aborted {
		loads := 0
		for i, fq := range mq.frags {
			p := mq.nodes.pools[i]
			p.mu.Lock()
			if a := fq.spillNextLocked(fq.ops[op.id]); a != nil {
				fq.enqueueLocked(fq.ops[op.id], a)
				loads++
				p.cond.Broadcast()
			}
			p.mu.Unlock()
		}
		if loads > 0 {
			mq.ops[op.id].pend += int64(loads)
			return false
		}
	}
	mq.ops[op.id].done = true
	if c := op.consumer; c != nil {
		co := &mq.ops[c.id]
		co.prodEnd = true
		if co.pend == 0 && !co.done {
			return mq.opFinished(c)
		}
	}
	chain := mq.phys.chains[mq.chain]
	for _, o := range chain {
		if !mq.ops[o.id].done {
			return false
		}
	}
	if mq.chain+1 < len(mq.phys.chains) {
		return mq.startChain(mq.chain + 1)
	}
	mq.done = true
	return true
}

// completeFrags marks every fragment done and retires the idle ones
// (fragments still flushing, merging or processing retire from their own
// pools' worker loops). Called without locks after the last chain
// completes.
func (mq *mquery) completeFrags() {
	for i, fq := range mq.frags {
		p := mq.nodes.pools[i]
		p.mu.Lock()
		fq.done = true
		fin := p.retireIfDoneLocked(fq)
		p.cond.Broadcast()
		p.mu.Unlock()
		if fin {
			fq.finalize()
		}
	}
}

// mergeFragment folds one node's worker partials into the node's
// partial (including any spilled partials of a memory-governed query);
// the last node to finish additionally merges the per-node partials
// into the final output batches (returned non-nil), which the worker
// parks on its fragment for the flusher machinery to stream. Called
// from the worker loop without locks.
func (mq *mquery) mergeFragment(q *query) []*vec.Batch {
	part, err := q.mergedGroups()
	if err != nil {
		mq.fail(err)
		part = make(map[any]*groupState)
	}
	mq.mu.Lock()
	mq.nodeParts[q.node] = part
	mq.merged++
	last := mq.merged == mq.n
	var parts []map[any]*groupState
	if last {
		parts = mq.nodeParts
	}
	mq.mu.Unlock()
	if !last {
		return nil
	}
	rows := groupsToRows(mergePartials(parts, mq.gb), mq.gb)
	return batchRowsVec(rows, mq.opt.Batch)
}

// fail aborts the whole query: every fragment drops its queues and
// parked output, and the shared context is cancelled so blocked sends
// release. Idempotent. Called without locks.
func (mq *mquery) fail(err error) {
	mq.mu.Lock()
	// Fully retired queries are immune (mirrors the single-node retired
	// guard): retirement cancels the shared context, and the watcher's
	// select may pick ctx.Done over finished.
	if mq.aborted || mq.remaining.Load() == 0 {
		mq.mu.Unlock()
		return
	}
	mq.aborted = true
	if err == nil {
		err = context.Canceled
	}
	mq.err = err
	mq.mu.Unlock()
	mq.cancel()
	for i, fq := range mq.frags {
		p := mq.nodes.pools[i]
		p.mu.Lock()
		fq.failLocked(err)
		fin := p.retireIfDoneLocked(fq)
		p.cond.Broadcast()
		p.mu.Unlock()
		if fin {
			fq.finalize()
		}
	}
}

// watch aborts the query when its context is cancelled (caller cancel or
// Rows.Close) before it retires on its own.
func (mq *mquery) watch() {
	select {
	case <-mq.ctx.Done():
		mq.fail(mq.ctx.Err())
	case <-mq.finished:
	}
}

// fragRetired records one fragment's retirement; the last one seals the
// query: global stats, sink and finished close, slot release. Called
// without pool locks (the finalize path).
func (mq *mquery) fragRetired() {
	if mq.remaining.Add(-1) > 0 {
		return
	}
	mq.mu.Lock()
	mq.sealStatsLocked()
	mq.mu.Unlock()
	close(mq.sink)
	close(mq.finished)
	mq.cancel()
	mq.nodes.release(mq)
}

// sealStatsLocked aggregates per-fragment counters into the query's
// final Stats with per-node breakdowns. All fragments have retired, so
// their counters are quiescent (steal counters stay atomic: a stale
// steal round may still be unwinding). Callers hold mq.mu.
func (mq *mquery) sealStatsLocked() {
	s := &mq.stats
	s.Nodes = make([]NodeStats, mq.n)
	if len(mq.frags) > 0 {
		s.OpRows = make([]int64, len(mq.frags[0].opRows))
	}
	for i, fq := range mq.frags {
		for oi := range fq.opRows {
			s.OpRows[oi] += atomic.LoadInt64(&fq.opRows[oi])
		}
		nst := &s.Nodes[i]
		nst.Node = i
		nst.Activations = fq.acts
		nst.ResultRows = atomic.LoadInt64(&fq.stats.ResultRows)
		nst.PerWorker = append([]int64(nil), fq.stats.PerWorker...)
		nst.RowsShippedIn = atomic.LoadInt64(&fq.shipIn)
		nst.RowsShippedOut = atomic.LoadInt64(&fq.shipOut)
		nst.Steals = atomic.LoadInt64(&fq.steals)
		nst.StolenActivations = atomic.LoadInt64(&fq.stolenActs)
		nst.StolenBuckets = atomic.LoadInt64(&fq.stolenBuckets)
		nst.SpilledPartitions = fq.spilledParts.Load()
		nst.SpilledBytes = fq.spilledBytes.Load()
		nst.SpillPhases = fq.spillPhases.Load()
		nst.DiskStats = fq.disk.seal()
		s.SpilledPartitions += nst.SpilledPartitions
		s.SpilledBytes += nst.SpilledBytes
		s.SpillPhases += nst.SpillPhases
		s.DiskStats.add(nst.DiskStats)
		s.Activations += nst.Activations
		s.ResultRows += nst.ResultRows
		s.PerWorker = append(s.PerWorker, nst.PerWorker...)
		s.StealRounds += atomic.LoadInt64(&fq.stealRounds)
		s.Steals += nst.Steals
		s.StolenActivations += nst.StolenActivations
		s.StolenBuckets += nst.StolenBuckets
		s.StolenBucketBytes += atomic.LoadInt64(&fq.stolenBucketByte)
		s.RowsRedistributed += nst.RowsShippedOut
	}
}
