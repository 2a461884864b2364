package exec

// The per-node memory broker: the paper's §3.2 condition (i) applied
// across queries as well as within one. A node's memory is one account
// of EngineConfig.MemoryPerNode bytes, as it is in the paper and in the
// simulator (internal/core charges every bucket to its node): every
// query fragment in flight on the node leases bytes from it in
// leaseChunk steps, idle memory flows to whichever fragment can use it,
// and a fragment denied a top-up spills. The charge accounting lives in
// memgov.go (memUsed, charged atomically); the broker decides only
// whether the node can cover it. With one governed fragment in flight a
// denial happens exactly when the fragment's usage exceeds the budget.
//
// Lock order: broker.mu sits between jspill and part —
// spillNextLocked refunds a finished partition's charge while holding
// pool (and mq) + jspill mutexes, and nothing holding broker.mu takes
// any other lock.

import (
	"sync"
	"sync/atomic"
)

// leaseChunk is the broker's grant granularity: top-ups round up by one
// chunk of slack so a steadily growing build does not take the broker
// mutex per batch, and trims leave one chunk of slack behind.
const leaseChunk int64 = 64 << 10

// memBroker arbitrates one node's memory budget across that node's
// in-flight query fragments. budget is fixed at engine start; granted
// is the sum of all outstanding leases and never exceeds budget.
type memBroker struct {
	budget int64

	mu      sync.Mutex //hierdb:lock broker
	granted int64
}

// memLease is one fragment's slice of its node's broker budget.
// granted is written only under the broker mutex but read lock-free on
// the charge fast path (a stale read under-estimates the lease and at
// worst takes the slow path).
type memLease struct {
	granted atomic.Int64
}

// topUp ensures the lease covers used bytes, growing it from the
// broker pool (plus a chunk of slack) when it does not. Returns false
// when the pool cannot cover the shortfall — the node is over budget
// and the fragment must spill.
//
//hierdb:hotpath
func (b *memBroker) topUp(l *memLease, used int64) bool {
	if used <= l.granted.Load() {
		return true
	}
	b.mu.Lock()
	g := l.granted.Load()
	if used <= g {
		b.mu.Unlock()
		return true
	}
	need := used - g
	avail := b.budget - b.granted
	if need > avail {
		b.mu.Unlock()
		return false
	}
	grant := need + leaseChunk
	if grant > avail {
		grant = avail
	}
	b.granted += grant
	l.granted.Store(g + grant)
	b.mu.Unlock()
	return true
}

// trim returns surplus lease to the pool once the fragment's usage has
// shrunk well below it (two chunks of slack), leaving one chunk behind
// so charge/uncharge oscillation does not thrash the broker mutex.
//
//hierdb:hotpath
func (b *memBroker) trim(l *memLease, used int64) {
	if used < 0 {
		used = 0
	}
	if l.granted.Load()-used < 2*leaseChunk {
		return
	}
	b.mu.Lock()
	g := l.granted.Load()
	if target := used + leaseChunk; g > target {
		b.granted -= g - target
		l.granted.Store(target)
	}
	b.mu.Unlock()
}

// releaseAll returns the fragment's entire lease to the pool. Called
// exactly once, at query finalize.
func (b *memBroker) releaseAll(l *memLease) {
	b.mu.Lock()
	b.granted -= l.granted.Load()
	l.granted.Store(0)
	b.mu.Unlock()
}

// available reports the unleased remainder of the pool (the spill-load
// headroom estimate; see query.memHeadroom).
func (b *memBroker) available() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.budget - b.granted
}
