package exec

// One node's worker set, scheduler and flusher. This is the paper's
// central mechanism — self-contained activations in per-operator queues,
// any worker may run any activation — extended across query boundaries:
// the pool's workers serve the operator queues of every fragment in
// flight on the node, so load balances itself both within a query and
// between queries at execution time. A rotating fair cursor round-robins
// the cross-query pick and a fair-share cap bounds per-query worker
// anchoring, so one heavy join cannot starve lighter queries; within a
// query the original order is kept (downstream operators first, the
// worker's primary queue before stealing). Slow consumers backpressure
// their own query — full sinks park batches and pause that query's
// production — without capturing the pool: blocking sends are done by
// dedicated flusher workers, capped pool-wide so runnable queries always
// keep at least one worker.
//
// A pool decides nothing about a query as a whole: it picks, runs and
// retires fragments. Submission, admission, chain and operator
// completion, abort and stats belong to the coordinator (nodes.go),
// which a worker reports to after every activation (mquery.epilogue).

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"hierdb/internal/store"
	"hierdb/internal/vec"
)

// ErrClosed is returned by Submit on a closed engine and reported by
// queries a Close aborted.
var ErrClosed = errors.New("exec: engine closed")

// ErrQueryPanic is matched (errors.Is) by the error of a query one of
// whose activations panicked — in a user Filter or aggregate Arg (the
// only user code a plan carries), or in the engine itself. The error carries the panic
// value and the stack; the engine keeps serving other queries.
var ErrQueryPanic = errors.New("exec: query panicked")

// pool is one node's long-lived set of worker goroutines executing
// activations from the fragments of all in-flight queries.
type pool struct {
	workers int
	broker  *memBroker // shared node memory pool; nil = fixed per-fragment split

	mu       sync.Mutex //hierdb:lock pool
	cond     *sync.Cond
	queries  []*query // in-flight fragments, scheduling order
	fair     int      // rotating cross-query pick cursor
	waiting  int      // workers parked in cond.Wait
	captured int      // workers blocked flushing parked output to a slow consumer
	closed   bool
	wg       sync.WaitGroup

	// scanners[w] is worker w's own chunk-read scratch, kept across
	// queries; the first filtered file scan allocates what is inside.
	scanners []store.Scanner
}

// newPool starts a node's workers, with an optional memory broker.
func newPool(workers int, broker *memBroker) *pool {
	p := &pool{workers: workers, broker: broker, scanners: make([]store.Scanner, workers)}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker(w)
	}
	return p
}

// retireIfDoneLocked removes a terminal query with no in-flight
// activations from the scheduling list. The caller that observes true
// must call q.finalize() after releasing the mutex — exactly one caller
// sees the transition. Callers hold mu.
func (p *pool) retireIfDoneLocked(q *query) bool {
	if q.retired || q.inflight > 0 || !q.terminalLocked() {
		return false
	}
	// A completed query holds its retirement until its output is fully
	// delivered: the group-by merge must have run and the flusher must
	// have drained any parked batches (aborted queries drop theirs).
	if !q.aborted {
		if q.mq.gb != nil && !q.mergeDone {
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
func (p *pool) wakeLocked(n int) {
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
func (p *pool) flushCap() int {
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
func (p *pool) pickLocked(w int, anchor **query) (q *query, a *activation, job jobKind) {
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
			if q.mq.gb != nil && !q.mergeDone && !q.merging {
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
func (p *pool) runFlush(q *query, timer **time.Timer) bool {
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
		case q.mq.sink <- batch:
			stopParkTimer(t)
			atomic.AddInt64(&q.resultRows, int64(batch.N))
		case <-q.mq.ctx.Done():
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

func (p *pool) releaseAnchorLocked(anchor **query) {
	if *anchor != nil {
		(*anchor).anchored--
		*anchor = nil
	}
}

// worker is the scheduling loop of one worker goroutine: pick a job
// under the pool mutex, run it without, report to the query's
// coordinator, retire the fragment if that was its last work.
//
//hierdb:hotpath
func (p *pool) worker(w int) {
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
			// remote probe queue for a starving fragment.
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
		p.mu.Unlock()
		switch job {
		case jobFlush:
			if !p.runFlush(q, &parkTimer) {
				q.mq.fail(q.mq.ctx.Err())
			}
			p.mu.Lock()
			q.flushing = false
			p.captured--
		case jobMerge:
			// All folds finished before done was set (pending counts hit
			// zero under the coordinator's mutex), so reading the partials
			// is safe. The last node's merge returns the final batches,
			// delivered through the parked/flusher machinery: same
			// backpressure, cancellation and Close guarantees as the
			// streaming path.
			batches := q.runMerge()
			p.mu.Lock()
			q.merging = false
			q.mergeDone = true
			if !q.aborted {
				q.parked = append(q.parked, batches...)
			}
		default:
			outs, delivered := q.runActivation(a, w, &parkTimer)
			a.res.release()
			// Routing and operator/chain accounting are query-global:
			// the coordinator settles them without our mutex.
			q.mq.epilogue(q, a, outs, delivered)
			p.mu.Lock()
			q.acts++
		}
		q.inflight--
		// A finished flush or merge changes what is pickable (production
		// resumes, parked output appears) without enqueueing anything, so
		// waiting workers must be woken to see it.
		if job != jobRun {
			p.cond.Broadcast()
		}
		if p.retireIfDoneLocked(q) {
			p.mu.Unlock()
			q.finalize()
			p.mu.Lock()
		}
	}
}

// runActivation executes one activation on worker w and delivers its
// result batch: the activation boundary, outside every scheduler lock. A
// panic below it — user Filter or Arg code, which runs nowhere else, or
// an engine bug — is contained here: the query fails with ErrQueryPanic and
// the activation reports no outs, so the worker's ordinary epilogue
// unwinds pend, inflight, the chunk charge and (at retirement) the broker
// lease exactly as for any other failed activation. (The named results
// are set only by the return statement, so a recovered panic leaves them
// zero whatever had been computed.)
//
//hierdb:hotpath
func (q *query) runActivation(a *activation, w int, timer **time.Timer) (outs []*activation, delivered bool) {
	defer q.containPanic()
	o, results := q.process(a, w)
	q.countOpRows(a, o, results)
	// Chunk-memory refcounting: downstream activations share the decoded
	// chunk's column storage, so they inherit references before the
	// worker releases this activation's own (post-deliver: a root-scan
	// result batch is refunded at the sink handoff).
	a.retainFor(o)
	atomic.AddInt64(&q.perWorker[w], 1)
	d := q.deliver(w, results, timer)
	return o, d
}

// runMerge is the merge job's activation boundary (rendering the groups
// formats their keys, which calls user String methods).
func (q *query) runMerge() []*vec.Batch {
	defer q.containPanic()
	return q.mq.mergeFragment(q)
}

// containPanic, deferred at an activation boundary, turns a panic into
// the query's ErrQueryPanic failure. The boundary function then returns
// its zero results: no outs, nothing delivered.
func (q *query) containPanic() {
	if r := recover(); r != nil {
		q.mq.fail(fmt.Errorf("%w: %v\n%s", ErrQueryPanic, r, debug.Stack()))
	}
}

// close stops the workers and blocks until every worker goroutine has
// exited. The engine has failed every live query first (Nodes.Close), so
// each fragment is already retired or retires as its in-flight
// activations return. Idempotent.
func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}
