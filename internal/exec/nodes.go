package exec

// The engine: the paper's hierarchical architecture on real data. A
// Nodes engine owns n node-local worker pools — each the shared-memory
// DP scheduler of pool.go; a shared-memory machine is simply the
// hierarchy with one node. Every query runs the same way: a coordinator
// (mquery) fans it out as one plan fragment per node, node i scans units
// i, i+n, i+2n, … of every table (startChain), build/probe
// input batches are routed to the node owning their join key (hash(key)
// mod nodes), and each node schedules its fragment DP-style. The inter-node layer — starving
// nodes acquiring remote probe queues, priced by the hash-table buckets
// they touch —
// lives in globallb.go and engages only when a second node exists.
//
// Results wait, workers don't: a root activation's result batch joins a
// FIFO on the coordinator, which the consumer pops (Handle.Next). While
// that queue holds its bound, the query's production pauses — its pools
// pick none of its activations — and the pop that takes the queue back
// below the bound wakes them. No worker ever waits on a consumer, and a
// query whose output is all queued retires at once, returning its
// admission slot and its memory charge.
//
// Locking: admit -> mq -> pool. The admission controller (admit.go) is
// outermost and held across nothing. An mquery carries the query-global
// operator accounting (pending counts, chain barrier) and the result
// queue under its own mutex. Coordinator work may take pool mutexes
// (mq.mu -> pool.mu), never the reverse; at most one pool mutex is held
// at a time.
//
// What a worker pays per activation: one mq.mu round (mquery.epilogue
// settles the outs' pending counts and the activation's own together
// and queues its result batch), a pool.mu round on each node it emitted
// batches to, and the pool.mu round of its next pick. A scheduler that
// knew only one node could fold all three into the pick; here a
// one-node query pays the mq.mu round and, when the activation had
// output, one pool.mu round more. Both are short, uncontended next to
// the activation itself (a 1024-row morsel, a 256-row batch), and
// measured flat on bench/'s join_stream — the price of chain start,
// operator completion and advance (spill loads, seals, merges), abort
// and retirement existing once.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hierdb/internal/vec"
)

// Nodes is the engine: n node-local worker pools behind one Submit
// surface.
type Nodes struct {
	cfg   EngineConfig // validated, defaults filled
	pools []*pool
	admit *admitter // engine-wide admission controller; nil = unlimited

	mu     sync.Mutex
	live   map[*mquery]struct{}
	nextID int64
	closed bool
}

// EngineConfig is the engine's one configuration, fixed when it starts:
// every query on the engine runs with it. Zero fields take their
// defaults; negative ones are rejected by NewNodesConfig.
type EngineConfig struct {
	// Nodes is the SM-node count (default 1); Workers the worker
	// goroutines per node, one per processor in the paper's model
	// (default 4).
	Nodes   int
	Workers int
	// Morsel is the scan granularity in rows (trigger-activation
	// granularity, default 1024); Batch the pipeline granularity
	// (data-activation granularity, default 256).
	Morsel int
	Batch  int
	// Stripes is the number of hash buckets per node (the degree of
	// fragmentation): a join key hashes to one of Nodes*Stripes global
	// buckets, the unit a steal pays to ship. It does not decide the node
	// owning a key — that is the hash mod Nodes (OwnerNode), which the
	// bucket mod Nodes equals — and changes nothing on one node. Defaults
	// to 8x Workers.
	Stripes int
	// Static binds each worker to one operator per pipeline chain (the
	// FP baseline) instead of the dynamic any-worker-any-operator model.
	Static bool
	// DisableStealing turns off the global activation-stealing layer: a
	// starving node then idles instead of acquiring a remote probe queue.
	// It has no effect on a one-node engine, which has no peers to steal
	// from.
	DisableStealing bool
	// MemoryPerNode is each node's memory budget in bytes: one account
	// (memgov.go) that every query fragment in flight on the node charges
	// its hash-join tables, loaded spill partitions, group-by partials and
	// in-flight file chunks to, priced at what their columns hold (plus a
	// build row's 12 index bytes). 0 (the default) means unlimited — the
	// hot path is then the ungoverned one.
	// A join whose build side takes the node past it switches to
	// Grace-style partitioned execution: build and probe inputs are
	// hash-partitioned to spill files and the partitions joined one at a
	// time within the budget (recursing on still-oversized partitions).
	// Spilling encodes rows to disk, so governed queries are limited to
	// spill-encodable column types (nil, bool, int, int32, int64, uint64,
	// float64, string).
	MemoryPerNode int64
	// SpillDir is the directory spill files are created under (one temp
	// file per spilling query fragment, removed at retirement). Empty
	// means the system temp directory. Only consulted when
	// MemoryPerNode > 0.
	SpillDir string
	// MaxConcurrentQueries bounds in-flight queries across the engine
	// (0 = unlimited). Excess Submits park in a bounded FIFO admission
	// queue, dequeued round-robin across tenant labels.
	MaxConcurrentQueries int
	// AdmissionQueue caps how many Submits may park waiting for a slot
	// (0 = 8 per slot); one more is rejected with ErrAdmissionQueueFull.
	// Only meaningful with MaxConcurrentQueries > 0.
	AdmissionQueue int
}

// NewNodesConfig validates cfg, fills its defaults and starts the
// engine: Nodes pools of Workers goroutines each, every pool with its
// node's memory account when MemoryPerNode > 0.
func NewNodesConfig(cfg EngineConfig) (*Nodes, error) {
	ns, err := newNodes(cfg)
	if err != nil {
		return nil, err
	}
	for _, p := range ns.pools {
		p.start()
	}
	return ns, nil
}

// newNodes is NewNodesConfig with the workers not yet started.
func newNodes(cfg EngineConfig) (*Nodes, error) {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"Nodes", int64(cfg.Nodes)}, {"Workers", int64(cfg.Workers)},
		{"Morsel", int64(cfg.Morsel)}, {"Batch", int64(cfg.Batch)}, {"Stripes", int64(cfg.Stripes)},
		{"MemoryPerNode", cfg.MemoryPerNode},
		{"MaxConcurrentQueries", int64(cfg.MaxConcurrentQueries)}, {"AdmissionQueue", int64(cfg.AdmissionQueue)},
	} {
		if f.v < 0 {
			return nil, fmt.Errorf("exec: negative %s (%d)", f.name, f.v)
		}
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 1
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.Morsel == 0 {
		cfg.Morsel = 1024
	}
	if cfg.Batch == 0 {
		cfg.Batch = 256
	}
	if cfg.Stripes == 0 {
		cfg.Stripes = 8 * cfg.Workers
	}
	ns := &Nodes{cfg: cfg, live: make(map[*mquery]struct{})}
	if cfg.MaxConcurrentQueries > 0 {
		ns.admit = newAdmitter(cfg.MaxConcurrentQueries, cfg.AdmissionQueue)
	}
	for i := 0; i < cfg.Nodes; i++ {
		var mem *memAccount
		if cfg.MemoryPerNode > 0 {
			mem = &memAccount{budget: cfg.MemoryPerNode}
		}
		ns.pools = append(ns.pools, newPool(cfg.Workers, mem))
	}
	return ns, nil
}

// Config returns the engine's configuration, defaults filled.
func (ns *Nodes) Config() EngineConfig { return ns.cfg }

// Submit compiles and starts a query on the engine; gb, when non-nil,
// folds a grouped aggregation over the plan's output (workers fold into
// private partials, a merge activation per node merges its workers', the
// last of them merges the per-node results, and the groups stream out
// ordered deterministically). tenant labels the query for admission
// fairness: waiting Submits are dequeued round-robin across labels, FIFO
// within one. The returned Handle's Next pops result batches; production
// pauses while a bounded number of them wait unread, and no worker waits
// on the consumer. The query executes as one fragment per node, each
// scanning a round-robin share of every table's units, with key-routed
// redistribution between operators; results are identical at every node
// count (stream order aside). Cancelling ctx aborts the query,
// and a cancel before the query completes always wins.
func (ns *Nodes) Submit(ctx context.Context, root Node, gb *GroupBy, tenant string) (*Handle, error) {
	if root == nil {
		return nil, fmt.Errorf("exec: nil plan")
	}
	// Admission precedes compilation: a waiting Submit holds no compiled
	// physical plan (or any other per-query state) while it waits, and
	// Close fails it promptly even on a context.Background() caller.
	var wait time.Duration
	if ns.admit != nil {
		var err error
		if wait, err = ns.admit.acquire(ctx, tenant); err != nil {
			return nil, err
		}
	}
	phys, err := compile(root)
	if err == nil && gb != nil {
		err = validateGroupBy(gb, len(phys.root.outKinds))
	}
	if err != nil {
		ns.admitRelease()
		return nil, err
	}
	return ns.launch(ctx, phys, gb, wait)
}

// launch starts a compiled query admitted after waiting wait: it builds
// the query, makes it visible to Close and attaches its fragments to
// their pools.
func (ns *Nodes) launch(ctx context.Context, phys *physical, gb *GroupBy, wait time.Duration) (*Handle, error) {
	h := ns.newQuery(ctx, phys, gb)
	mq := &h.mq
	mq.stats.AdmissionWait = wait

	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		ns.admitRelease()
		return nil, ErrClosed
	}
	mq.stats.QueryID = ns.nextID
	ns.nextID++
	ns.live[mq] = struct{}{}
	ns.mu.Unlock()

	// Attach the fragments to their pools. A concurrent Close fails every
	// query in live before it closes a pool, and a failed fragment with
	// nothing in flight retires on the spot: a fragment still unretired
	// here is on a pool whose workers will serve it.
	for i, fq := range mq.frags {
		p := ns.pools[i]
		p.mu.Lock()
		if !fq.retired {
			p.queries = append(p.queries, fq)
		}
		p.mu.Unlock()
	}
	// The caller's context fails the query without a goroutine of ours.
	// Registered under mq.mu and only while a fragment is unretired, so
	// fragRetired (which reads stop under mq.mu) either finds it or
	// retired the query before it was set.
	mq.mu.Lock()
	if mq.remaining.Load() > 0 {
		mq.stop = context.AfterFunc(ctx, func() { mq.fail(ctx.Err()) })
	}
	mq.mu.Unlock()
	mq.start()
	return h, nil
}

// newQuery builds a compiled query's coordinator and its per-node
// fragments, fully, before the query becomes visible to anyone: a
// concurrent Close walks mq.frags without a lock.
func (ns *Nodes) newQuery(ctx context.Context, phys *physical, gb *GroupBy) *Handle {
	n, workers := ns.cfg.Nodes, ns.cfg.Workers
	h := &Handle{mq: mquery{
		ctx:      ctx,
		nodes:    ns,
		phys:     phys,
		gb:       gb,
		n:        n,
		buckets:  n * ns.cfg.Stripes,
		stealing: n > 1 && !ns.cfg.DisableStealing,
		bound:    2 * workers * n,
		finished: make(chan struct{}),
		ops:      make([]mop, len(phys.ops)),
	}}
	mq := &h.mq
	mq.ready.L = &mq.mu
	mq.stats.PerWorker = make([]int64, n*workers)
	mq.remaining.Store(int64(n))
	mq.frags = mq.fragBuf[:0]
	for i := 0; i < n; i++ {
		mq.frags = append(mq.frags, newFragment(mq, i))
	}
	return h
}

// release returns a retired query's admission slot and live entry.
func (ns *Nodes) release(mq *mquery) {
	ns.mu.Lock()
	delete(ns.live, mq)
	ns.mu.Unlock()
	ns.admitRelease()
}

// admitRelease returns an admission slot, if the engine bounds them.
func (ns *Nodes) admitRelease() {
	if ns.admit != nil {
		ns.admit.release()
	}
}

// Close aborts in-flight queries with ErrClosed and stops every pool's
// workers. Idempotent; blocks until all workers exit.
func (ns *Nodes) Close() {
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
		p.close()
	}
}

// mop is the coordinator's per-operator state: pend counts queued plus
// in-process activations across all nodes.
type mop struct {
	pend    int64
	prodEnd bool // no more input will arrive
	closed  bool // closing activations queued (opFinished)
	done    bool
}

// mquery coordinates one query: per-node fragments, global
// operator/chain state, the result queue, steal bookkeeping, the
// terminal error and sealed stats. See the comment at the top of this
// file for the locking rules.
type mquery struct {
	nodes *Nodes
	phys  *physical
	gb    *GroupBy
	n     int
	// buckets is the global hash-bucket count n*Stripes: on stealing
	// queries a sealed build side counts its rows per bucket to price
	// steals. A key's owner node is its hash mod n (OwnerNode), which its
	// bucket mod n equals.
	buckets int
	// stealing enables the global load-balancing layer: a second node
	// exists and the engine did not disable it.
	stealing bool
	// bound is how many result batches may wait unread before production
	// pauses: two per worker of the engine.
	bound int

	// stop unregisters the caller-context hook Submit set (under mu, nil
	// if a Close retired the query first); fragRetired calls it.
	stop func() bool
	// finished is closed when the query is fully retired: no worker will
	// touch it again, err and stats are final.
	finished chan struct{}
	frags    []*query
	fragBuf  [2]*query // backs frags on small engines: one allocation less

	remaining   atomic.Int64 // fragments not yet retired
	idleThieves atomic.Int64 // fragments idled in stealIdle
	// paused is set while the result queue holds bound batches: the
	// pools give the query no production pick (read under pool mutexes,
	// written under mu).
	paused atomic.Bool
	// mergeQueued is set once, under mu, when a group-by's root operator
	// drains and its merge activations are queued; read under pool
	// mutexes, it keeps the query out of steal rounds from then on.
	mergeQueued atomic.Bool

	mu      sync.Mutex //hierdb:lock mq
	ops     []mop
	chain   int
	aborted bool
	err     error
	// nodeParts holds the merged partials of the nodes merged so far.
	nodeParts []*groupTable
	// out[head:] is the result queue, oldest first; ready (on mu) wakes a
	// consumer blocked in Handle.Next when a batch arrives or the query
	// retires.
	out   []*vec.Batch
	head  int
	ready sync.Cond
	// ctx is the caller's: a cancel before completion wins however late
	// the AfterFunc hook (a goroutine of its own) runs.
	ctx context.Context //hierdb:ctx-in-struct query lifetime, read at the resuming pop and at retirement

	// stats is sealed when the last fragment retires; until then only
	// QueryID, AdmissionWait (set at submit) and PerWorker (whose
	// per-node windows the fragments count into) are live.
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

// startChain seeds every fragment's share of the driver scan, allocates
// workers to the chain's operators in static mode, and resets per-chain
// steal state. Returns true when the cascade completed the whole query
// (all chains empty). Callers hold mq.mu.
//
// Every table is scanned in units, one activation each: a file's chunks
// (decode cost, not row count, is the work unit), or runs of
// size = min(Morsel, ⌈N/n⌉) of a resident table's N rows. Unit u is node
// u mod n's — round-robin declustering, so each node scans within one
// unit of its share whatever the data; on one node every unit is node
// 0's.
func (mq *mquery) startChain(c int) bool {
	mq.chain = c
	chain := mq.phys.chains[c]
	driver := chain[0]
	end, size := 0, 1 // unit u is [u*size, (u+1)*size) of [0,end)
	if ft := driver.scan.Table.File; ft != nil {
		end = ft.NumChunks()
	} else if end = driver.src.N; end > 0 {
		size = min(mq.nodes.cfg.Morsel, (end+mq.n-1)/mq.n)
	}
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
			for lo := i * size; lo < end; lo += mq.n * size {
				or.pushLocked(&activation{op: driver, lo: lo, hi: min(lo+size, end)})
				total++
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

// epilogue is the post-processing bookkeeping of one activation: settle
// the global pending counts — the outs' before the activation's own, so
// an operator never looks drained while its input is in transit — queue
// a root activation's result batch, advance operators and chains, then
// route the output batches to their owner nodes. Called by the worker
// loop without any lock held; the caller still decrements q.inflight and
// runs the retirement check on its own pool afterwards.
//
//hierdb:hotpath
func (mq *mquery) epilogue(q *query, a *activation, outs []*activation, results *vec.Batch) {
	var completed bool
	mq.mu.Lock()
	aborted := mq.aborted
	if !aborted {
		// Each out addresses its own operator: the consumer, or the
		// producing operator itself (a partition load's spill-phase
		// probes).
		for _, out := range outs {
			mq.ops[out.op.id].pend++
		}
		if results != nil && results.N > 0 {
			mq.pushLocked(q, results)
		}
	}
	mo := &mq.ops[a.op.id]
	mo.pend--
	if !aborted && mo.pend == 0 && mo.prodEnd && !mo.done {
		completed = mq.opFinished(a.op)
	}
	mq.mu.Unlock()
	if !aborted && len(outs) > 0 {
		mq.deliverOuts(q, outs)
	}
	if completed {
		mq.completeFrags()
	}
}

// deliverOuts enqueues routed batches on their destination fragments
// (the redistribution "network" of the hierarchy; on one node, the
// fragment's own queues), waking destination workers and any steal-idle
// thief whose peers refilled past the wake threshold. Called without
// locks; pending counts were settled first.
//
//hierdb:hotpath
func (mq *mquery) deliverOuts(src *query, outs []*activation) {
	for d := 0; d < mq.n; d++ {
		count, rows := 0, 0
		for _, a := range outs {
			if a.dest == d {
				count++
				if a.b != nil { // spill activations carry refs, not batches
					rows += a.hi - a.lo
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
					or.pushLocked(a)
					queued = len(or.acts)
				}
			}
			p.wakeLocked(dst, count)
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

// opFinished marks an operator done, cascades end-of-producer to its
// consumer, and advances the chain barrier; returns true once the last
// chain completes. An operator with work left is advanced instead when
// its pending count drains: a probe whose join spilled to its next
// partition loads; then, once, a build to a seal on each fragment whose
// join did not spill and a group-by's root to a merge on each. Callers
// hold mq.mu (taking pool mutexes here follows the mq -> pool order).
func (mq *mquery) opFinished(op *pop) bool {
	if op.kind == opProbe && mq.queueEach(op, func(fq *query) *activation { return fq.spillNextLocked(fq.ops[op.id]) }) > 0 {
		return false
	}
	mo := &mq.ops[op.id]
	if !mo.closed && (op.kind == opBuild || op == mq.phys.root && mq.gb != nil) {
		mo.closed = true
		if op.kind != opBuild {
			mq.mergeQueued.Store(true) // before any merge is visible to solicit
		}
		if mq.queueEach(op, func(fq *query) *activation {
			if sp := fq.ops[op.id].spill; sp != nil && sp.active.Load() {
				return nil
			}
			return &activation{op: op, dest: fq.node, closing: true}
		}) > 0 {
			return false
		}
	}
	mo.done = true
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
	return true
}

// queueEach queues on every fragment the activation of op that next
// makes for it under the fragment's pool mutex, if any, counts them
// pending and returns how many it queued. Callers hold mq.mu.
func (mq *mquery) queueEach(op *pop, next func(fq *query) *activation) int {
	n := 0
	for i, fq := range mq.frags {
		p := mq.nodes.pools[i]
		p.mu.Lock()
		if a := next(fq); a != nil {
			fq.ops[op.id].pushLocked(a)
			n++
			p.wakeLocked(fq, 1)
		}
		p.mu.Unlock()
	}
	mq.ops[op.id].pend += int64(n)
	return n
}

// completeFrags marks every fragment done once the last chain completes
// and retires the idle ones. Called without locks.
func (mq *mquery) completeFrags() { mq.retireEach(func(fq *query) { fq.done = true }) }

// retireEach is the one retirement handshake: mark every fragment under
// its pool mutex (done, or failed), retire the idle ones and wake their
// workers. A fragment with an activation still in flight retires from its
// own pool's worker loop. Called without locks.
func (mq *mquery) retireEach(mark func(fq *query)) {
	for i, fq := range mq.frags {
		p := mq.nodes.pools[i]
		p.mu.Lock()
		mark(fq)
		fin := p.retireIfDoneLocked(fq)
		p.cond.Broadcast()
		p.mu.Unlock()
		if fin {
			fq.finalize()
		}
	}
}

// mergeFragment runs fragment q's group-by merge activation, queued once
// every fold had ended: fold the node's worker partials into the node's
// partial (with any spilled partials of a memory-governed query); the
// last node to merge also merges the per-node partials into the final
// output batches and queues them for the consumer.
func (mq *mquery) mergeFragment(q *query) {
	part, err := q.mergedGroups()
	if err != nil {
		mq.fail(err)
		return
	}
	mq.mu.Lock()
	mq.nodeParts = append(mq.nodeParts, part)
	parts := mq.nodeParts
	mq.mu.Unlock()
	if len(parts) < mq.n {
		return
	}
	for _, p := range parts[1:] {
		parts[0].merge(p.batch())
	}
	batches := parts[0].result(mq.nodes.cfg.Batch)
	mq.mu.Lock()
	if !mq.aborted {
		for _, b := range batches {
			mq.pushLocked(q, b)
		}
	}
	mq.mu.Unlock()
}

// pushLocked queues a result batch of fragment q for the consumer, wakes
// a consumer blocked in Handle.Next, and pauses the query's production
// once bound batches wait. Callers hold mq.mu.
//
//hierdb:hotpath
func (mq *mquery) pushLocked(q *query, b *vec.Batch) {
	if len(mq.out) == cap(mq.out) && mq.head > 0 {
		// Slide the live entries down instead of growing the array.
		n := copy(mq.out, mq.out[mq.head:])
		clear(mq.out[n:])
		mq.out, mq.head = mq.out[:n], 0
	}
	mq.out = append(mq.out, b)
	q.resultRows += int64(b.N)
	if len(mq.out)-mq.head >= mq.bound {
		mq.paused.Store(true)
	}
	mq.ready.Signal()
}

// fail aborts the whole query with its terminal error — cancellation,
// engine Close, or an error met while processing an activation
// (table-file or spill I/O, a codec error, a build side too large to
// seal, a contained panic): every fragment drops its queues and the
// result queue is dropped. Idempotent. Called without locks.
func (mq *mquery) fail(err error) {
	mq.mu.Lock()
	// Fully retired queries are immune: their outcome is final, and a
	// late caller-context hook may still fire.
	if mq.aborted || mq.remaining.Load() == 0 {
		mq.mu.Unlock()
		return
	}
	mq.aborted = true
	if err == nil {
		err = context.Canceled
	}
	mq.err = err
	mq.out, mq.head = nil, 0
	mq.mu.Unlock()
	mq.retireEach((*query).failLocked)
}

// fragRetired records one fragment's retirement; the last one seals the
// query: its outcome (a context cancelled by now wins over completion,
// hook run or not), global stats, the consumer's wake, finished close,
// the caller-context hook's removal, slot release. Called without pool
// locks (the finalize path).
func (mq *mquery) fragRetired() {
	if mq.remaining.Add(-1) > 0 {
		return
	}
	mq.mu.Lock()
	if err := mq.ctx.Err(); err != nil && !mq.aborted {
		mq.aborted, mq.err = true, err
		mq.out, mq.head = nil, 0
	}
	mq.sealStatsLocked()
	mq.ready.Broadcast()
	stop := mq.stop
	mq.mu.Unlock()
	close(mq.finished)
	if stop != nil {
		stop()
	}
	mq.nodes.release(mq)
}

// sealStatsLocked aggregates per-fragment counters into the query's
// final Stats, with per-node breakdowns when there is more than one
// node. All fragments have retired, so their counters are quiescent
// (steal counters stay atomic: a stale steal round may still be
// unwinding). Callers hold mq.mu.
func (mq *mquery) sealStatsLocked() {
	s := &mq.stats
	if mq.n > 1 {
		s.Nodes = make([]NodeStats, mq.n)
	}
	s.OpRows = make([]int64, len(mq.ops))
	for i, fq := range mq.frags {
		for oi := range fq.opRows {
			s.OpRows[oi] += atomic.LoadInt64(&fq.opRows[oi])
		}
		var acts int64
		for _, n := range fq.perWorker {
			acts += n
		}
		nst := NodeStats{
			Node:              i,
			Activations:       acts,
			ResultRows:        fq.resultRows,
			PerWorker:         fq.perWorker,
			RowsShippedIn:     atomic.LoadInt64(&fq.shipIn),
			RowsShippedOut:    atomic.LoadInt64(&fq.shipOut),
			Steals:            atomic.LoadInt64(&fq.steals),
			StolenActivations: atomic.LoadInt64(&fq.stolenActs),
			StolenBuckets:     atomic.LoadInt64(&fq.stolenBuckets),
			SpilledPartitions: fq.spilledParts.Load(),
			SpilledBytes:      fq.spilledBytes.Load(),
			SpillPhases:       fq.spillPhases.Load(),
			DiskStats:         fq.disk.seal(),
		}
		s.SpilledPartitions += nst.SpilledPartitions
		s.SpilledBytes += nst.SpilledBytes
		s.SpillPhases += nst.SpillPhases
		s.DiskStats.add(nst.DiskStats)
		s.Activations += nst.Activations
		s.ResultRows += nst.ResultRows
		s.StealRounds += atomic.LoadInt64(&fq.stealRounds)
		s.Steals += nst.Steals
		s.StolenActivations += nst.StolenActivations
		s.StolenBuckets += nst.StolenBuckets
		s.StolenBucketBytes += atomic.LoadInt64(&fq.stolenBucketByte)
		s.RowsRedistributed += nst.RowsShippedOut
		if s.Nodes != nil {
			s.Nodes[i] = nst
		}
	}
}

// Handle is a running (or finished) query on a Nodes engine: the
// caller's view of the query's coordinator, which it holds by value so
// that a query is one allocation, not two.
type Handle struct {
	mq mquery
}

// Next pops the query's next result batch (columnar; use
// Batch.AppendRows or Batch.ReadRow to materialize rows), blocking only
// while none is queued and the query has not retired. It returns false
// once the query has retired (completion, cancellation, or engine close)
// and its queue is empty; check Err after. A pop that takes the queue
// back below its bound resumes the query's paused production, or fails
// the query if its context is cancelled.
//
//hierdb:hotpath
func (h *Handle) Next() (*vec.Batch, bool) {
	mq := &h.mq
	mq.mu.Lock()
	for mq.head == len(mq.out) && mq.remaining.Load() > 0 {
		mq.ready.Wait()
	}
	if mq.head == len(mq.out) {
		mq.mu.Unlock()
		return nil, false
	}
	b := mq.out[mq.head]
	mq.out[mq.head] = nil
	mq.head++
	if mq.head == len(mq.out) {
		mq.out, mq.head = mq.out[:0], 0
	}
	resume := mq.paused.Load() && len(mq.out)-mq.head < mq.bound
	var cancelled error
	if resume {
		if cancelled = mq.ctx.Err(); cancelled == nil {
			mq.paused.Store(false)
		}
	}
	mq.mu.Unlock()
	if cancelled != nil {
		mq.fail(cancelled)
	} else if resume {
		for _, p := range mq.nodes.pools {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		}
	}
	return b, true
}

// Done is closed when the query has fully retired (Err and Stats final).
func (h *Handle) Done() <-chan struct{} { return h.mq.finished }

// Err blocks until the query retires and returns its terminal error
// (nil on success). A query retires as soon as all its output is queued:
// one whose unread output stays within the bound needs no draining, a
// larger one stays paused until Next takes batches (or Cancel).
func (h *Handle) Err() error {
	<-h.mq.finished
	return h.mq.err
}

// Stats blocks until the query retires, like Err, and returns a private
// copy of its counters, including per-worker activation counts and, on
// an engine of several nodes, per-node breakdowns and steal counters.
func (h *Handle) Stats() *Stats {
	<-h.mq.finished
	s := h.mq.stats
	s.PerWorker = append([]int64(nil), s.PerWorker...)
	s.Nodes = append([]NodeStats(nil), s.Nodes...)
	w := h.mq.nodes.cfg.Workers
	for i := range s.Nodes {
		lo, hi := i*w, (i+1)*w
		s.Nodes[i].PerWorker = s.PerWorker[lo:hi:hi]
	}
	return &s
}

// Cancel aborts the query and drops its queued output; Next returns false
// once in-flight activations have returned, and Err reports the
// cancellation. Idempotent; a no-op once the query has retired.
func (h *Handle) Cancel() { h.mq.fail(context.Canceled) }
