package exec

// A resident DP worker pool shared by concurrent queries. This is the
// paper's central mechanism — self-contained activations in per-operator
// queues, any worker may run any activation — extended across query
// boundaries: the pool's workers serve the operator queues of every
// in-flight query, so load balances itself both within a query and
// between queries at execution time. A rotating fair cursor round-robins
// the cross-query pick and a fair-share cap bounds per-query worker
// anchoring, so one heavy join cannot starve lighter queries; within a
// query the original order is kept (downstream operators first, the
// worker's primary queue before stealing). Slow consumers backpressure
// their own query — full sinks park batches and pause that query's
// production — without capturing the pool: blocking sends are done by
// dedicated flusher workers, capped pool-wide so runnable queries always
// keep at least one worker.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hierdb/internal/store"
	"hierdb/internal/vec"
)

// ErrClosed is returned by Submit on a closed pool and reported by
// queries a Close aborted.
var ErrClosed = errors.New("exec: pool closed")

// Pool is a long-lived set of worker goroutines executing activations
// from all in-flight queries. Create one with NewPool, submit queries
// with Submit/SubmitGroupBy, release the workers with Close.
type Pool struct {
	workers int
	admit   *admitter  // admission controller; nil = unlimited
	broker  *memBroker // shared node memory pool; nil = fixed per-fragment split

	mu       sync.Mutex //hierdb:lock pool
	cond     *sync.Cond
	queries  []*query // in-flight, scheduling order
	fair     int      // rotating cross-query pick cursor
	waiting  int      // workers parked in cond.Wait
	captured int      // workers blocked flushing parked output to a slow consumer
	closed   bool
	nextID   int64
	wg       sync.WaitGroup

	// scanners[w] is worker w's own chunk-read scratch, kept across
	// queries; the first filtered file scan allocates what is inside.
	scanners []store.Scanner
}

// NewPool starts a resident pool. workers == 0 defaults to 4; negative
// values are rejected. maxConcurrent bounds the number of in-flight
// queries (0 = unlimited): excess Submits park in a bounded FIFO
// admission queue (8 waiters per slot) until a slot frees, the engine
// closes, or the caller's context fires. Use NewNodesConfig for an
// explicit queue cap, tenant-fair dequeue or a broker budget.
func NewPool(workers, maxConcurrent int) (*Pool, error) {
	if maxConcurrent < 0 {
		return nil, fmt.Errorf("exec: negative MaxConcurrentQueries (%d)", maxConcurrent)
	}
	var admit *admitter
	if maxConcurrent > 0 {
		admit = newAdmitter(maxConcurrent, 0)
	}
	return newPool(workers, admit, nil)
}

// newPool starts a resident pool with an optional admission controller
// and node memory broker (both may be nil).
func newPool(workers int, admit *admitter, broker *memBroker) (*Pool, error) {
	if workers < 0 {
		return nil, fmt.Errorf("exec: negative Workers (%d)", workers)
	}
	if workers == 0 {
		workers = 4
	}
	p := &Pool{workers: workers, admit: admit, broker: broker, scanners: make([]store.Scanner, workers)}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker(w)
	}
	return p, nil
}

// admitRelease returns the caller's admission slot, if the pool has
// admission control at all. nil-safe by the admit check.
func (p *Pool) admitRelease() {
	if p.admit != nil {
		p.admit.release()
	}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Submit compiles and starts a query on the pool. The returned Handle's
// Out channel streams result batches with backpressure; the caller must
// drain it (or Cancel) for the query's workers to release. opt.Workers
// is ignored — the pool's worker count applies.
func (p *Pool) Submit(ctx context.Context, root Node, opt Options) (*Handle, error) {
	return p.submit(ctx, root, nil, opt)
}

// SubmitGroupBy is Submit with a grouped aggregation folded over the
// plan's output: workers fold result batches into private partials, and
// the merged groups stream out at completion, ordered deterministically
// by formatted key.
func (p *Pool) SubmitGroupBy(ctx context.Context, root Node, gb *GroupBy, opt Options) (*Handle, error) {
	if err := validateGroupBy(gb); err != nil {
		return nil, err
	}
	return p.submit(ctx, root, gb, opt)
}

func (p *Pool) submit(ctx context.Context, root Node, gb *GroupBy, opt Options) (*Handle, error) {
	opt, err := opt.validateFor(p.workers)
	if err != nil {
		return nil, err
	}
	if root == nil {
		return nil, fmt.Errorf("exec: nil plan")
	}
	// Admission precedes compilation: a parked Submit holds no compiled
	// physical plan (or any other per-query state) while it waits, and
	// Close fails it promptly even on a context.Background() caller.
	var wait time.Duration
	if p.admit != nil {
		if wait, err = p.admit.acquire(ctx, opt.Tenant); err != nil {
			return nil, err
		}
	}
	phys, err := compile(root)
	if err != nil {
		p.admitRelease()
		return nil, err
	}
	annotateVec(phys)
	qctx, qcancel := context.WithCancel(ctx)
	q := newQuery(p, phys, gb, opt, qctx, qcancel, 1, nil)
	q.stats.AdmissionWait = wait

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		qcancel()
		p.admitRelease()
		return nil, ErrClosed
	}
	q.id = p.nextID
	p.nextID++
	q.stats.QueryID = q.id
	p.queries = append(p.queries, q)
	q.startChainLocked(0)
	retired := p.retireIfDoneLocked(q)
	p.cond.Broadcast()
	p.mu.Unlock()

	if retired {
		q.finalize()
	}
	go q.watch()
	return &Handle{q: q}, nil
}

// abort fails a query from outside the worker loop (context watcher).
func (p *Pool) abort(q *query, err error) {
	p.mu.Lock()
	q.failLocked(err)
	retired := p.retireIfDoneLocked(q)
	p.cond.Broadcast()
	p.mu.Unlock()
	if retired {
		q.finalize()
	}
}

// retireIfDoneLocked removes a terminal query with no in-flight
// activations from the scheduling list. The caller that observes true
// must call q.finalize() after releasing the mutex — exactly one caller
// sees the transition. Callers hold mu.
func (p *Pool) retireIfDoneLocked(q *query) bool {
	if q.retired || q.inflight > 0 || !q.terminalLocked() {
		return false
	}
	// A completed query holds its retirement until its output is fully
	// delivered: the group-by merge must have run and the flusher must
	// have drained any parked batches (aborted queries drop theirs).
	if !q.aborted {
		if q.gb != nil && !q.mergeDone {
			return false
		}
		if len(q.parked) > 0 {
			return false
		}
	}
	q.retired = true
	for i, x := range p.queries {
		if x == q {
			p.queries = append(p.queries[:i], p.queries[i+1:]...)
			break
		}
	}
	return true
}

// wakeLocked signals up to n parked workers — enough for the work just
// enqueued, without the thundering herd of a Broadcast. Callers hold mu.
func (p *Pool) wakeLocked(n int) {
	if n > p.waiting {
		n = p.waiting
	}
	for ; n > 0; n-- {
		p.cond.Signal()
	}
}

// flushCap is the maximum number of workers that may simultaneously be
// captured in blocking flushes to slow consumers: always at least one
// worker stays available for runnable queries (on a one-worker pool the
// single worker must be allowed to flush).
func (p *Pool) flushCap() int {
	if p.workers > 1 {
		return p.workers - 1
	}
	return 1
}

// Job kinds returned by pickLocked alongside a query.
type jobKind int

const (
	jobRun   jobKind = iota // execute an activation
	jobFlush                // blocking-send parked output batches
	jobMerge                // merge group-by partials into final batches
)

// pickLocked finds the next job for worker w: an activation to run, a
// flush of parked output, or a group-by merge. The worker is anchored to
// the query it last served (cross-query affinity keeps a worker's cache
// on one hash table), but a query may hold at most its fair share
// ceil(workers/queries) of anchored workers: beyond that the worker
// rotates to the fair cursor's next query, so one heavy join cannot
// starve lighter queries of workers. A query with parked output gets no
// production picks until the flush drains it, and at most flushCap
// workers may block on slow consumers pool-wide. Callers hold mu; a
// returned jobFlush/jobMerge has been claimed (flushing/merging set) and
// the caller must run it.
//
//hierdb:hotpath
func (p *Pool) pickLocked(w int, anchor **query) (q *query, a *activation, job jobKind) {
	n := len(p.queries)
	if n == 0 {
		p.releaseAnchorLocked(anchor)
		return nil, nil, jobRun
	}
	share := (p.workers + n - 1) / n
	if aq := *anchor; aq != nil {
		if aq.terminalLocked() || aq.anchored > share || len(aq.parked) > 0 {
			p.releaseAnchorLocked(anchor)
		} else if a := aq.pickLocked(w); a != nil {
			return aq, a, jobRun
		}
	}
	for i := 0; i < n; i++ {
		q := p.queries[(p.fair+i)%n]
		if q.aborted {
			continue
		}
		if len(q.parked) > 0 {
			// Production paused: only a flush may serve this query (it
			// can be done but not yet retired — flushing must continue).
			if !q.flushing && p.captured < p.flushCap() {
				q.flushing = true
				p.captured++
				p.fair = (p.fair + i + 1) % n
				return q, nil, jobFlush
			}
			continue
		}
		if q.done {
			if q.gb != nil && !q.mergeDone && !q.merging {
				q.merging = true
				p.fair = (p.fair + i + 1) % n
				return q, nil, jobMerge
			}
			continue
		}
		if a := q.pickLocked(w); a != nil {
			p.fair = (p.fair + i + 1) % n
			if *anchor != q {
				p.releaseAnchorLocked(anchor)
				*anchor = q
				q.anchored++
			}
			return q, a, jobRun
		}
	}
	p.releaseAnchorLocked(anchor)
	return nil, nil, jobRun
}

// flushHold bounds how long a flusher blocks on one send before giving
// its flush slot back: slots are a shared, capped resource (flushCap),
// so a stalled consumer must not pin one forever — the slot rotates via
// the fair cursor to other backpressured queries and this query's flush
// is re-claimed later. Stalled consumers therefore cost a slot only
// flushHold at a time instead of permanently.
const flushHold = 10 * time.Millisecond

// runFlush sends a query's parked batches to its sink, blocking at most
// flushHold per batch before surrendering the flush slot (parked output
// simply stays parked for the next claim). Returns false if the query
// was cancelled while flushing. Called without mu by the worker that
// claimed q.flushing; timer is the worker's reusable park timer.
//
//hierdb:hotpath
func (p *Pool) runFlush(q *query, timer **time.Timer) bool {
	for {
		p.mu.Lock()
		if q.aborted || len(q.parked) == 0 {
			p.mu.Unlock()
			return true
		}
		batch := q.parked[0]
		q.parked = q.parked[1:]
		p.mu.Unlock()
		t := *timer
		if t == nil {
			t = time.NewTimer(flushHold)
			*timer = t
		} else {
			t.Reset(flushHold)
		}
		select {
		case q.sink <- batch:
			stopParkTimer(t)
			atomic.AddInt64(&q.stats.ResultRows, int64(batch.N))
		case <-q.ctx.Done():
			stopParkTimer(t)
			return false
		case <-t.C:
			// Surrender the slot: re-park the batch (unless an abort
			// dropped the queue meanwhile) for the next flush claim.
			p.mu.Lock()
			if !q.aborted {
				q.parked = append([]*vec.Batch{batch}, q.parked...)
			}
			p.mu.Unlock()
			return true
		}
	}
}

func (p *Pool) releaseAnchorLocked(anchor **query) {
	if *anchor != nil {
		(*anchor).anchored--
		*anchor = nil
	}
}

//hierdb:hotpath
func (p *Pool) worker(w int) {
	defer p.wg.Done()
	var (
		anchor    *query
		parkTimer *time.Timer
	)
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			return
		}
		q, a, job := p.pickLocked(w, &anchor)
		if q == nil {
			// Node-level starvation: before parking, try acquiring a
			// remote probe queue for a starving multi-node fragment.
			if sq := p.stealClaimLocked(); sq != nil {
				p.mu.Unlock()
				stole := sq.mq.stealRound(sq)
				parked := false
				p.mu.Lock()
				sq.stealBusy = false
				if !stole && !sq.stealIdle {
					// Park further rounds until a producer refills a
					// peer queue (wakeThieves clears the mark).
					sq.stealIdle = true
					sq.mq.idleThieves.Add(1)
					parked = true
				}
				if parked {
					// Close the lost-wakeup window: a producer crossing
					// the wake threshold between our failed round and the
					// idle mark saw idleThieves == 0 and sent no wake.
					// Re-probe the peers now that the mark is visible;
					// on backlog, clear it and retry the round.
					p.mu.Unlock()
					backlog := sq.mq.peerBacklog(sq)
					p.mu.Lock()
					if backlog && sq.stealIdle {
						sq.stealIdle = false
						sq.mq.idleThieves.Add(-1)
					}
				}
				continue
			}
			p.waiting++
			p.cond.Wait()
			p.waiting--
			continue
		}
		q.inflight++
		switch job {
		case jobFlush:
			p.mu.Unlock()
			ok := p.runFlush(q, &parkTimer)
			p.mu.Lock()
			q.flushing = false
			p.captured--
			q.inflight--
			if !ok {
				q.failLocked(q.ctx.Err())
			}
			// Production resumes; waiting workers don't see the state
			// change, so wake them.
			p.cond.Broadcast()
			if p.retireIfDoneLocked(q) {
				p.mu.Unlock()
				q.finalize()
				p.mu.Lock()
			}
			continue
		case jobMerge:
			p.mu.Unlock()
			// All folds finished before done was set (pending counts hit
			// zero under the mutex), so reading the partials is safe.
			var batches []*vec.Batch
			var mergeErr error
			if q.mq != nil {
				// Per-node merge; the last node also merges the
				// per-node partials and parks the final batches here.
				batches = q.mq.mergeFragment(q)
			} else {
				groups, err := q.mergedGroups()
				if err != nil {
					mergeErr = err
				} else {
					batches = batchRowsVec(groupsToRows(groups, q.gb), q.opt.Batch)
				}
			}
			p.mu.Lock()
			q.merging = false
			q.mergeDone = true
			q.inflight--
			if mergeErr != nil {
				q.failLocked(mergeErr)
			} else if !q.aborted {
				// Deliver through the parked/flusher machinery: same
				// backpressure, cancellation and Close guarantees as the
				// streaming path.
				q.parked = append(q.parked, batches...)
			}
			p.cond.Broadcast()
			if p.retireIfDoneLocked(q) {
				p.mu.Unlock()
				q.finalize()
				p.mu.Lock()
			}
			continue
		}
		p.mu.Unlock()

		outs, results := q.process(a, w)
		q.countOpRows(a, outs, results)
		// Chunk-memory refcounting: downstream activations share the
		// decoded chunk's column storage, so they inherit references
		// before this activation's own is released (post-deliver: a
		// root-scan result batch is refunded at the sink handoff).
		a.retainFor(outs)
		atomic.AddInt64(&q.stats.PerWorker[w], 1)
		delivered := q.deliver(w, results, &parkTimer)
		a.res.release()

		if mq := q.mq; mq != nil {
			// Multi-node fragment: routing and operator/chain accounting
			// are global, handled by the coordinator without our mutex.
			mq.epilogue(q, a, outs, delivered)
			p.mu.Lock()
			q.inflight--
			q.acts++
			if p.retireIfDoneLocked(q) {
				p.mu.Unlock()
				q.finalize()
				p.mu.Lock()
			}
			continue
		}

		p.mu.Lock()
		q.inflight--
		q.acts++
		if !delivered {
			q.failLocked(q.ctx.Err())
		}
		if !q.terminalLocked() {
			or := q.ops[a.op.id]
			if len(outs) > 0 {
				// Each out addresses its own operator: consumer batches in
				// the ordinary case, the producing operator itself for the
				// spill-phase probes a partition load fans out.
				for _, out := range outs {
					q.enqueueLocked(q.ops[out.op.id], out)
				}
				if q.allowed != nil {
					// Static (FP) mode: only specific workers may run the
					// consumer operator, and a targeted Signal could wake
					// the wrong ones — wake everyone.
					p.cond.Broadcast()
				} else {
					p.wakeLocked(len(outs))
				}
			}
			or.pending--
			if or.prodEnd && or.pending == 0 && !or.done {
				q.opFinishedLocked(or)
			}
		}
		if p.retireIfDoneLocked(q) {
			p.mu.Unlock()
			q.finalize()
			p.mu.Lock()
		}
	}
}

// Close aborts every in-flight query with ErrClosed and stops the
// workers. It blocks until all worker goroutines have exited; it is
// idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	var fin []*query
	for _, q := range append([]*query(nil), p.queries...) {
		q.failLocked(ErrClosed)
		if p.retireIfDoneLocked(q) {
			fin = append(fin, q)
		}
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	// Fail parked admission waiters before anything that can block:
	// a Submit waiting on a slot must get ErrClosed promptly, not after
	// the in-flight queries drain.
	if p.admit != nil {
		p.admit.close()
	}
	for _, q := range fin {
		q.finalize()
	}
	p.wg.Wait()
}

// Handle is a running (or finished) query on a Pool or a multi-node
// Nodes engine (exactly one of q/mq is set).
type Handle struct {
	q  *query
	mq *mquery
}

// Out is the stream of result batches (columnar; use Batch.AppendRows
// or Batch.ReadRow to materialize rows). It is closed when the query
// retires (completion, cancellation, or pool close); check Err after.
// The channel is bounded: an undrained handle eventually blocks the
// workers feeding it, so consume it fully or Cancel.
func (h *Handle) Out() <-chan *vec.Batch {
	if h.mq != nil {
		return h.mq.sink
	}
	return h.q.sink
}

// Done is closed when the query has fully retired (Err and Stats final).
func (h *Handle) Done() <-chan struct{} {
	if h.mq != nil {
		return h.mq.finished
	}
	return h.q.finished
}

// Err blocks until the query retires and returns its terminal error
// (nil on success). A query only retires once its output is delivered:
// drain Out (or Cancel) first, or Err can block forever behind the
// bounded sink.
func (h *Handle) Err() error {
	if h.mq != nil {
		<-h.mq.finished
		return h.mq.err
	}
	<-h.q.finished
	return h.q.err
}

// Stats blocks until the query retires and returns its per-query
// counters, including per-worker activation counts on the shared pool
// and, for multi-node queries, per-node breakdowns and steal counters.
// Like Err, call it only after draining Out (or after Cancel).
func (h *Handle) Stats() *Stats {
	if h.mq != nil {
		<-h.mq.finished
		s := h.mq.stats
		s.PerWorker = append([]int64(nil), s.PerWorker...)
		s.Nodes = append([]NodeStats(nil), s.Nodes...)
		for i := range s.Nodes {
			s.Nodes[i].PerWorker = append([]int64(nil), s.Nodes[i].PerWorker...)
		}
		return &s
	}
	<-h.q.finished
	s := h.q.stats
	s.PerWorker = append([]int64(nil), h.q.stats.PerWorker...)
	return &s
}

// Cancel aborts the query; Out closes promptly and Err reports the
// cancellation. Idempotent, safe after completion.
func (h *Handle) Cancel() {
	if h.mq != nil {
		h.mq.cancel()
		return
	}
	h.q.cancel()
}
