package exec

// One node's worker set and scheduler. This is the paper's central
// mechanism — self-contained activations in per-operator queues, any
// worker may run any activation — extended across query boundaries: the
// pool's workers serve the operator queues of every fragment in flight
// on the node, so load balances itself both within a query and between
// queries at execution time. A rotating fair cursor round-robins the
// cross-query pick and a fair-share cap bounds per-query worker
// anchoring, so one heavy join cannot starve lighter queries; within a
// query the original order is kept (downstream operators first, the
// worker's primary queue before stealing). A slow consumer backpressures
// only its own query, and by scheduling alone: while the query's result
// queue holds its bound, the pick skips the query — production pauses;
// no worker waits on a consumer.
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
	broker  *memBroker // the node's memory account; nil = ungoverned

	mu      sync.Mutex //hierdb:lock pool
	cond    *sync.Cond
	queries []*query // in-flight fragments, scheduling order
	fair    int      // rotating cross-query pick cursor
	waiting int      // workers asleep in cond.Wait
	closed  bool
	wg      sync.WaitGroup

	// scanners[w] is worker w's own chunk-read scratch, kept across
	// queries; the first filtered file scan allocates what is inside.
	scanners []store.Scanner
}

// newPool builds a node's worker set over its memory account (nil when
// the engine has no MemoryPerNode budget); start runs the workers.
func newPool(workers int, broker *memBroker) *pool {
	p := &pool{workers: workers, broker: broker, scanners: make([]store.Scanner, workers)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *pool) start() {
	for w := 0; w < p.workers; w++ {
		p.wg.Add(1)
		go p.worker(w)
	}
}

// retireIfDoneLocked removes a terminal query with no in-flight
// activations from the scheduling list. The caller that observes true
// must call q.finalize() after releasing the mutex — exactly one caller
// sees the transition. Callers hold mu.
func (p *pool) retireIfDoneLocked(q *query) bool {
	if q.retired || q.inflight > 0 || !q.terminalLocked() {
		return false
	}
	// A completed group-by holds its retirement until the merge has
	// queued its groups. Streamed output is queued as it is produced, so a
	// completed query waits for no consumer.
	if !q.aborted && q.mq.gb != nil && !q.mergeDone {
		return false
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

// wakeLocked signals up to n sleeping workers — enough for the work just
// enqueued, without the thundering herd of a Broadcast. Callers hold mu.
func (p *pool) wakeLocked(n int) {
	if n > p.waiting {
		n = p.waiting
	}
	for ; n > 0; n-- {
		p.cond.Signal()
	}
}

// Job kinds returned by pickLocked alongside a query.
type jobKind int

const (
	jobRun   jobKind = iota // execute an activation
	jobMerge                // merge group-by partials into final batches
)

// pickLocked finds the next job for worker w: an activation to run or a
// group-by merge. The worker is anchored to the query it last served
// (cross-query affinity keeps a worker's cache on one hash table), but a
// query may hold at most its fair share ceil(workers/queries) of
// anchored workers: beyond that the worker rotates to the fair cursor's
// next query, so one heavy join cannot starve lighter queries of
// workers. A query whose result queue holds its bound gets no production
// pick until its consumer takes the queue back below it (mquery.paused).
// Callers hold mu; a returned jobMerge has been claimed (merging set) and
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
		if aq.terminalLocked() || aq.anchored > share || aq.mq.paused.Load() {
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
		if q.done {
			if q.mq.gb != nil && !q.mergeDone && !q.merging {
				q.merging = true
				p.fair = (p.fair + i + 1) % n
				return q, nil, jobMerge
			}
			continue
		}
		if q.mq.paused.Load() {
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
	var anchor *query
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
				idled := false
				p.mu.Lock()
				sq.stealBusy = false
				if !stole && !sq.stealIdle {
					// Idle further rounds until a producer refills a
					// peer queue (wakeThieves clears the mark).
					sq.stealIdle = true
					sq.mq.idleThieves.Add(1)
					idled = true
				}
				if idled {
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
		if job == jobMerge {
			// All folds finished before done was set (pending counts hit
			// zero under the coordinator's mutex), so reading the partials
			// is safe. The last node's merge queues the final batches on
			// the coordinator, like any root activation's results.
			q.runMerge()
			p.mu.Lock()
			q.merging = false
			q.mergeDone = true
		} else {
			outs, results := q.runActivation(a, w)
			a.res.release()
			// Routing, operator/chain accounting and the result queue are
			// query-global: the coordinator settles them without our mutex.
			q.mq.epilogue(q, a, outs, results)
			p.mu.Lock()
			q.acts++
		}
		q.inflight--
		if p.retireIfDoneLocked(q) {
			p.mu.Unlock()
			q.finalize()
			p.mu.Lock()
		}
	}
}

// runActivation executes one activation on worker w: the activation
// boundary, outside every scheduler lock. It returns the routed outs and,
// for a root activation, its result batch, which the epilogue queues. A
// panic below it — user Filter or Arg code, which runs nowhere else, or
// an engine bug — is contained here: the query fails with ErrQueryPanic and
// the activation reports no outs, so the worker's ordinary epilogue
// unwinds pend, inflight, the chunk charge and (at retirement) the broker
// lease exactly as for any other failed activation. (The named results
// are set only by the return statement, so a recovered panic leaves them
// zero whatever had been computed.)
//
//hierdb:hotpath
func (q *query) runActivation(a *activation, w int) (outs []*activation, results *vec.Batch) {
	defer q.containPanic()
	o, r := q.process(a, w)
	q.countOpRows(a, o, r)
	// Chunk-memory refcounting: downstream activations share the decoded
	// chunk's column storage, so they inherit references before the
	// worker releases this activation's own (a root-scan result batch is
	// refunded as it leaves the engine for the result queue).
	a.retainFor(o)
	atomic.AddInt64(&q.perWorker[w], 1)
	return o, r
}

// runMerge is the merge job's activation boundary (rendering the groups
// formats their keys, which calls user String methods).
func (q *query) runMerge() {
	defer q.containPanic()
	q.mq.mergeFragment(q)
}

// containPanic, deferred at an activation boundary, turns a panic into
// the query's ErrQueryPanic failure. The boundary function then returns
// its zero results: no outs, no result batch.
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
