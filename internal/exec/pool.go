package exec

// One node's worker set and scheduler. This is the paper's central
// mechanism — self-contained activations in per-operator queues, any
// worker may run any activation — extended across query boundaries: the
// pool's workers serve the operator queues of every fragment in flight
// on the node, so load balances itself both within a query and between
// queries at execution time. A rotating fair cursor round-robins the
// cross-query pick and a fair-share cap bounds per-query worker
// anchoring, so one heavy join cannot starve lighter queries; within a
// query the original order is kept (downstream operators first, each
// operator's newest activation first). An operator has one queue per
// node, shared by all its workers: they sit behind the one pool mutex,
// so per-worker queues would buy no latch relief, and activations carry
// no bucket affinity to route on. A slow consumer backpressures
// only its own query, and by scheduling alone: while the query's result
// queue holds its bound, the pick skips the query — production pauses;
// no worker waits on a consumer.
//
// A pool decides nothing about a query as a whole: it picks and runs
// activations — its one kind of work, a build's seal and a group-by's
// merge included — and retires fragments. Submission, admission, chain
// and operator completion, abort and stats belong to the coordinator
// (nodes.go), which a worker reports to after every activation
// (mquery.epilogue).

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

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
	mem     *memAccount // the node's memory account; nil = ungoverned

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
func newPool(workers int, mem *memAccount) *pool {
	p := &pool{workers: workers, mem: mem, scanners: make([]store.Scanner, workers)}
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
// activations from the scheduling list; output is queued as it is
// produced, so a completed query waits for no consumer. The caller that
// observes true must call q.finalize() after releasing the mutex —
// exactly one caller sees the transition. Callers hold mu.
func (p *pool) retireIfDoneLocked(q *query) bool {
	if q.retired || q.inflight > 0 || !q.terminalLocked() {
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

// wakeLocked signals up to n sleeping workers for n activations of q just
// enqueued — enough for them, without the thundering herd of a
// Broadcast — or every worker in static (FP) mode, where a signal could
// reach one not allowed to run them. Callers hold mu.
func (p *pool) wakeLocked(q *query, n int) {
	if q.allowed != nil {
		p.cond.Broadcast()
		return
	}
	for range min(n, p.waiting) {
		p.cond.Signal()
	}
}

// pickLocked finds the next activation for worker w. The worker is
// anchored to the query it last served (cross-query affinity keeps a
// worker's cache on one hash table), but a query may hold at most its
// fair share ceil(workers/queries) of anchored workers: beyond that the
// worker rotates to the fair cursor's next query, so one heavy join
// cannot starve lighter queries of workers. A query whose result queue
// holds its bound gets no production pick until its consumer takes the
// queue back below it (mquery.paused) — never a group-by's merge, as no
// result precedes it. Callers hold mu.
//
//hierdb:hotpath
func (p *pool) pickLocked(w int, anchor **query) (*query, *activation) {
	n := len(p.queries)
	if n == 0 {
		p.releaseAnchorLocked(anchor)
		return nil, nil
	}
	share := (p.workers + n - 1) / n
	if aq := *anchor; aq != nil {
		if aq.terminalLocked() || aq.anchored > share || aq.mq.paused.Load() {
			p.releaseAnchorLocked(anchor)
		} else if a := aq.pickLocked(w); a != nil {
			return aq, a
		}
	}
	for i := 0; i < n; i++ {
		q := p.queries[(p.fair+i)%n]
		if q.terminalLocked() || q.mq.paused.Load() {
			continue
		}
		if a := q.pickLocked(w); a != nil {
			p.fair = (p.fair + i + 1) % n
			if *anchor != q {
				p.releaseAnchorLocked(anchor)
				*anchor = q
				q.anchored++
			}
			return q, a
		}
	}
	p.releaseAnchorLocked(anchor)
	return nil, nil
}

func (p *pool) releaseAnchorLocked(anchor **query) {
	if *anchor != nil {
		(*anchor).anchored--
		*anchor = nil
	}
}

// worker is the scheduling loop of one worker goroutine: pick an
// activation under the pool mutex, run it without, report to the
// query's coordinator, retire the fragment if that was its last work.
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
		q, a := p.pickLocked(w, &anchor)
		if q == nil {
			// Node-level starvation: before parking, try acquiring a
			// remote probe queue for a starving fragment.
			if sq := p.stealClaimLocked(); sq != nil {
				p.mu.Unlock()
				stole := sq.mq.stealRound(sq, &sq.vscratch[w])
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
		outs, results := q.runActivation(a, w)
		a.res.release()
		// Routing, operator/chain accounting and the result queue are
		// query-global: the coordinator settles them without our mutex.
		q.mq.epilogue(q, a, outs, results)
		p.mu.Lock()
		q.perWorker[w]++
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
// panic below it — user Filter, Arg or group-key String code, or an
// engine bug — is contained here: the query fails with ErrQueryPanic and
// the activation reports no outs, so the worker's ordinary epilogue
// unwinds pend, inflight, the chunk charge and (at retirement) the
// fragment's memory charge exactly as for any other failed activation.
// (The named results are set only by the return statement, so a
// recovered panic leaves them zero whatever had been computed.)
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
	return o, r
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
