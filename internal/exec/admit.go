package exec

// Admission control: the engine-level half of the paper's §3.2 load
// control. Condition (i) — never acquire work the node cannot hold —
// is enforced per node by the memory broker (broker.go); this file
// bounds how many queries are in flight at all. MaxConcurrentQueries
// used to be a bare channel semaphore with a real bug: a Submit waiting
// on the channel selected only on the semaphore and the caller's
// context, so Close never woke it — a context.Background() caller hung
// forever. The admitter replaces the semaphore with an explicit
// controller: a bounded FIFO wait queue dequeued round-robin across
// tenant labels (so one tenant's backlog cannot starve another's),
// fast rejection with ErrAdmissionQueueFull once the queue cap is hit,
// and prompt failure of every waiter with ErrClosed on close.
//
// Waiters park on a per-waiter done channel. Grants transfer the slot
// (inflight never dips while the queue is non-empty), the grant error
// is written before done is closed, and closes happen after the
// admitter mutex is released. The admit mutex is the outermost level
// of the lock hierarchy: acquire/release run with no scheduler locks
// held, and nothing is locked under it.

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrAdmissionQueueFull is returned by Submit when MaxConcurrentQueries
// slots are all taken and the admission wait queue is at capacity: the
// query is rejected immediately instead of queued. Callers doing load
// shedding match it with errors.Is.
var ErrAdmissionQueueFull = errors.New("exec: admission queue full")

// defaultQueuePerSlot sizes the admission wait queue when the engine
// does not set one explicitly: 8 waiting queries per admission slot.
const defaultQueuePerSlot = 8

// admitWaiter is one waiting Submit. settled and err are written under
// the admit mutex (a grant leaves err nil, close sets ErrClosed) before
// done is closed; done is always closed after the mutex is released.
type admitWaiter struct {
	settled bool
	err     error
	done    chan struct{}
}

// tenantQueue is one tenant's FIFO of waiters. Only tenants
// with at least one waiter appear in the admitter's ring.
type tenantQueue struct {
	id string
	q  []*admitWaiter
}

// admitter is the admission controller shared by an engine's Submit
// paths: slots concurrent queries, at most queueCap waiters.
type admitter struct {
	slots    int
	queueCap int

	mu       sync.Mutex //hierdb:lock admit
	inflight int
	waiting  int
	closed   bool
	tenants  map[string]*tenantQueue // tenants with waiters
	ring     []*tenantQueue          // round-robin dequeue order
	rr       int                     // next ring index to dequeue
}

// newAdmitter builds a controller with the given slot count and queue
// cap (queueCap <= 0 means the default 8 per slot).
func newAdmitter(slots, queueCap int) *admitter {
	if queueCap <= 0 {
		queueCap = defaultQueuePerSlot * slots
	}
	return &admitter{slots: slots, queueCap: queueCap, tenants: make(map[string]*tenantQueue)}
}

// acquire takes one admission slot for tenant, parking FIFO behind
// earlier waiters when none is free, and returns how long it waited.
// It fails with ErrAdmissionQueueFull when the wait queue is at
// capacity, with ErrClosed when the engine closes (promptly, even for
// waiters blocked on a context.Background() Submit), and with ctx.Err()
// when the caller's context fires first.
//
//hierdb:hotpath
func (ad *admitter) acquire(ctx context.Context, tenant string) (time.Duration, error) {
	ad.mu.Lock()
	if ad.closed {
		ad.mu.Unlock()
		return 0, ErrClosed
	}
	if ad.inflight < ad.slots && ad.waiting == 0 {
		// Fast path: a slot is free and nobody queued ahead of us.
		ad.inflight++
		ad.mu.Unlock()
		return 0, nil
	}
	if ad.waiting >= ad.queueCap {
		ad.mu.Unlock()
		return 0, ErrAdmissionQueueFull
	}
	w := &admitWaiter{done: make(chan struct{})}
	tq := ad.tenants[tenant]
	if tq == nil {
		tq = &tenantQueue{id: tenant}
		ad.tenants[tenant] = tq
	}
	if len(tq.q) == 0 {
		ad.ring = append(ad.ring, tq)
	}
	tq.q = append(tq.q, w)
	ad.waiting++
	ad.mu.Unlock()

	start := time.Now()
	select {
	case <-w.done:
		return time.Since(start), w.err
	case <-ctx.Done():
	}
	// The caller's context fired while we waited. A grant (or a
	// close) may have raced it — w.settled, under the mutex, decides:
	// a raced grant's slot is handed to the next waiter, since the
	// caller is leaving either way.
	ad.mu.Lock()
	settled, err := w.settled, w.err
	var wake *admitWaiter
	if settled {
		if err == nil {
			wake = ad.releaseLocked()
		}
	} else {
		tq = ad.tenants[tenant]
		for i, x := range tq.q {
			if x == w {
				copy(tq.q[i:], tq.q[i+1:])
				tq.q[len(tq.q)-1] = nil
				tq.q = tq.q[:len(tq.q)-1]
				break
			}
		}
		if len(tq.q) == 0 {
			ad.dropTenantLocked(tq)
		}
		ad.waiting--
	}
	ad.mu.Unlock()
	if wake != nil {
		close(wake.done)
	}
	if settled && err != nil {
		return time.Since(start), err
	}
	return time.Since(start), ctx.Err()
}

// release returns the caller's slot, handing it to the next waiting
// waiter (round-robin across tenants, FIFO within one) if any.
//
//hierdb:hotpath
func (ad *admitter) release() {
	ad.mu.Lock()
	w := ad.releaseLocked()
	ad.mu.Unlock()
	if w != nil {
		close(w.done)
	}
}

// releaseLocked hands the caller's slot to the next waiter or frees it.
// The returned waiter (nil when the queue is empty) must have its done
// channel closed by the caller after the mutex is released. Callers
// hold ad.mu.
func (ad *admitter) releaseLocked() *admitWaiter {
	if len(ad.ring) == 0 {
		ad.inflight--
		return nil
	}
	if ad.rr >= len(ad.ring) {
		ad.rr = 0
	}
	tq := ad.ring[ad.rr]
	w := tq.q[0]
	w.settled = true
	copy(tq.q, tq.q[1:])
	tq.q[len(tq.q)-1] = nil
	tq.q = tq.q[:len(tq.q)-1]
	ad.waiting--
	if len(tq.q) == 0 {
		// dropTenantLocked removes ring[rr]; rr then already points at
		// the next tenant.
		ad.dropTenantLocked(tq)
	} else {
		ad.rr++
		if ad.rr >= len(ad.ring) {
			ad.rr = 0
		}
	}
	return w
}

// dropTenantLocked removes an emptied tenant queue from the ring and
// map, keeping the round-robin cursor on the same next tenant. Callers
// hold ad.mu.
func (ad *admitter) dropTenantLocked(tq *tenantQueue) {
	for i, x := range ad.ring {
		if x == tq {
			copy(ad.ring[i:], ad.ring[i+1:])
			ad.ring[len(ad.ring)-1] = nil
			ad.ring = ad.ring[:len(ad.ring)-1]
			if i < ad.rr {
				ad.rr--
			}
			break
		}
	}
	if ad.rr >= len(ad.ring) {
		ad.rr = 0
	}
	delete(ad.tenants, tq.id)
}

// close fails every waiter with ErrClosed and rejects all
// future acquires. Idempotent; called without scheduler locks.
func (ad *admitter) close() {
	ad.mu.Lock()
	ad.closed = true
	var wake []*admitWaiter
	for _, tq := range ad.ring {
		for _, w := range tq.q {
			w.settled = true
			w.err = ErrClosed
			wake = append(wake, w)
		}
		tq.q = nil
	}
	ad.ring = nil
	ad.rr = 0
	ad.waiting = 0
	ad.tenants = make(map[string]*tenantQueue)
	ad.mu.Unlock()
	for _, w := range wake {
		close(w.done)
	}
}

// queued reports the number of waiters (test/introspection
// helper).
func (ad *admitter) queued() int {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	return ad.waiting
}
