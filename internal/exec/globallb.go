package exec

// Global activation stealing between an engine's nodes — the real-data
// port of the simulation's protocol (internal/core/globallb.go, §3.2 and
// §4 of the paper).
//
// When a node's pool starves on a query (no activation in any queue of
// the fragment's current chain), a worker claims a steal round
// for the fragment and solicits offers from every peer node. Only probe
// activations qualify (condition iv of §3.2) and a queue must hold
// enough work to amortize the acquisition (condition ii); each candidate
// is scored by benefit/overhead — queued activations versus bytes to
// ship (the activations plus the hash-table buckets the thief has not
// already cached, per the stolen-queue cache of §4). The thief picks the
// most loaded provider among those offering a candidate, re-evaluates at
// request time, acquires half the queue (condition iii: do not overload
// the requester), copies the missing buckets into its node-local cache,
// and enqueues the activations on its own pool. The memory-fit condition
// (i) is vacuous in-process and dropped.
//
// A failed round parks the fragment (stealIdle) until a producer refills
// some peer queue past stealWakeThreshold — producer-driven retries in
// place of the simulation's timer pacing. Rounds are single-flight per
// fragment (stealBusy, claimed like a merge). A query whose production
// is paused on its consumer starts no round.

import "sync/atomic"

const (
	// minStealActs is the smallest acquisition worth a round trip;
	// condition (ii) admits a queue as a candidate only when half of it
	// (what a steal takes) reaches this.
	minStealActs = 2
	// stealSampleActs bounds how many queued activations an offer prices
	// (the paper's schedulers answer from summaries, not full scans).
	stealSampleActs = 4
	// stealWakeThreshold is the queue length at which a producer wakes
	// steal-idle peers.
	stealWakeThreshold = 2 * minStealActs
	// nominalTupleBytes prices a shipped tuple for the benefit/overhead
	// score, standing in for the simulation's cost-model TupleBytes.
	nominalTupleBytes = 48
)

// stealClaimLocked finds a fragment on this pool that should start a
// steal round: a query with stealing enabled (decided once, at submit:
// peers exist and EngineConfig.DisableStealing is off) whose current chain
// has probe work somewhere but no activation queued on this node. The
// claim is single-flight per fragment. Callers hold p.mu.
func (p *pool) stealClaimLocked() *query {
	for _, q := range p.queries {
		mq := q.mq
		if !mq.stealing || q.terminalLocked() ||
			q.stealBusy || q.stealIdle || mq.paused.Load() {
			continue
		}
		chain := mq.phys.chains[q.chain]
		queued, hasProbe := 0, false
		for _, op := range chain {
			queued += q.ops[op.id].queued
			if op.kind == opProbe {
				hasProbe = true
			}
		}
		if queued > 0 || !hasProbe {
			continue
		}
		q.stealBusy = true
		return q
	}
	return nil
}

// peerBacklog reports whether any peer fragment's current-chain probe
// queues hold at least stealWakeThreshold activations — the post-park
// re-probe that pairs with wakeThieves to make steal retries
// lost-wakeup-free: either the producer sees the thief's idle mark, or
// the thief sees the producer's backlog. Called without locks.
func (mq *mquery) peerBacklog(thief *query) bool {
	for j, fq := range mq.frags {
		if fq == thief {
			continue
		}
		p := mq.nodes.pools[j]
		p.mu.Lock()
		if !fq.terminalLocked() {
			chain := mq.phys.chains[fq.chain]
			for _, op := range chain {
				if op.kind == opProbe && fq.ops[op.id].queued >= stealWakeThreshold {
					p.mu.Unlock()
					return true
				}
			}
		}
		p.mu.Unlock()
	}
	return false
}

// stealOffer is one provider's answer to a starving solicitation.
type stealOffer struct {
	node  int
	op    *pop
	load  int // provider's total queued probe activations
	score float64
}

// stealRound drives one starving episode for the thief fragment:
// solicit, score, acquire. Returns true if activations were acquired.
// Called from the worker loop with no locks held.
func (mq *mquery) stealRound(thief *query) bool {
	atomic.AddInt64(&thief.stealRounds, 1)
	var best *stealOffer
	for j, fq := range mq.frags {
		if fq == thief {
			continue
		}
		if off := mq.solicit(thief, fq, j); off != nil {
			// The requester picks the most loaded provider among those
			// that offered a candidate.
			if best == nil || off.load > best.load {
				best = off
			}
		}
	}
	if best == nil {
		return false
	}

	// Request phase: re-evaluate at acquisition time — the provider's
	// state has moved since the offer. Condition (iii): acquire at most
	// half the queue, and only when half still amortizes the round, so
	// the provider is never emptied out (which would just ping-pong the
	// workload's tail between nodes).
	provider := mq.frags[best.node]
	p := mq.nodes.pools[best.node]
	p.mu.Lock()
	or := provider.ops[best.op.id]
	if provider.terminalLocked() || or.queued < 2*minStealActs {
		p.mu.Unlock()
		return false
	}
	acts := popOldestLocked(or, or.queued/2)
	p.mu.Unlock()

	buckets, bytes := thief.acquireBuckets(best.op, acts)
	// Stolen buckets are resident on the thief for the rest of the
	// query: charge them to the thief's budget (cache entries are never
	// re-shipped, so the charge is held until retirement).
	thief.chargeMem(bytes)

	tp := mq.nodes.pools[thief.node]
	tp.mu.Lock()
	if thief.aborted {
		tp.mu.Unlock()
		return false
	}
	to := thief.ops[best.op.id]
	for _, a := range acts {
		thief.enqueueLocked(to, a)
	}
	if thief.allowed != nil {
		tp.cond.Broadcast()
	} else {
		tp.wakeLocked(len(acts))
	}
	tp.mu.Unlock()

	atomic.AddInt64(&thief.steals, 1)
	atomic.AddInt64(&thief.stolenActs, int64(len(acts)))
	atomic.AddInt64(&thief.stolenBuckets, int64(buckets))
	atomic.AddInt64(&thief.stolenBucketByte, bytes)
	return true
}

// solicit evaluates provider fq's probe queues for the thief and returns
// its best candidate offer (or nil). Queue lengths are read under the
// provider's pool mutex; byte pricing (hashing the sampled batches' key
// columns) runs on snapshots outside it. A steal round runs no user code.
func (mq *mquery) solicit(thief, fq *query, node int) *stealOffer {
	type sampled struct {
		op     *pop
		queued int
		acts   []*activation
	}
	var cands []sampled
	load := 0
	p := mq.nodes.pools[node]
	p.mu.Lock()
	if fq.terminalLocked() {
		p.mu.Unlock()
		return nil
	}
	chain := mq.phys.chains[fq.chain]
	for _, op := range chain {
		if op.kind != opProbe {
			continue
		}
		// A spilled join is not stealable: the provider's (or thief's)
		// hash table lives in spill partitions, not in shippable buckets —
		// its probe activations only partition rows to the provider's
		// spill file. Spill state is fixed before the probe chain
		// starts, so the check is stable for the whole round.
		if fq.spilled(op) || thief.spilled(op) {
			continue
		}
		or := fq.ops[op.id]
		load += or.queued
		// Condition (ii): half the queue (what a steal takes) must still
		// amortize the round.
		if or.queued < 2*minStealActs {
			continue
		}
		s := sampled{op: op, queued: or.queued}
		for _, qq := range or.queues {
			for i := len(qq) - 1; i >= 0 && len(s.acts) < stealSampleActs; i-- {
				s.acts = append(s.acts, qq[i])
			}
			if len(s.acts) >= stealSampleActs {
				break
			}
		}
		cands = append(cands, s)
	}
	p.mu.Unlock()

	var best *stealOffer
	for _, s := range cands {
		bytes := mq.shipEstimate(thief, s.op, s.acts)
		// Memory governance: a thief does not acquire buckets its budget
		// cannot hold (the real-engine form of §3.2's memory-fit
		// condition (i), vacuous only when ungoverned): the headroom is
		// the thief's lease slack plus its node's unleased remainder.
		if thief.broker != nil && bytes > thief.memHeadroom() {
			continue
		}
		score := float64(s.queued) / (1 + float64(bytes)/1024)
		if best == nil || score > best.score {
			best = &stealOffer{node: node, op: s.op, score: score}
		}
	}
	if best != nil {
		best.load = load
	}
	return best
}

// shipEstimate prices acquiring the sampled activations: the rows
// themselves plus the hash-table buckets their keys touch that the thief
// has not already cached. Activation batches are immutable once
// emitted, and build hash tables are complete before any probe runs, so
// no locks are needed. Key hashing runs vectorized over each sampled
// batch with a throwaway scratch (this is the cold steal path).
func (mq *mquery) shipEstimate(thief *query, op *pop, acts []*activation) int64 {
	var cache bucketCache
	if c := thief.ops[op.id].cache.Load(); c != nil {
		cache = *c
	}
	var vs vecScratch
	var bytes int64
	var seen map[int]bool
	for _, a := range acts {
		bytes += int64(a.hi-a.lo) * nominalTupleBytes
		hs := keyHashes(a.input(&vs), op.keyCol, &vs)
		for i := range hs {
			g := int(hs[i] % uint64(mq.buckets))
			owner := g % mq.n
			if owner == thief.node || seen[g] || cache[g] != nil {
				continue
			}
			if seen == nil {
				seen = make(map[int]bool)
			}
			seen[g] = true
			src := mq.frags[owner].ops[op.partner.id]
			bytes += int64(src.stripeRows[g/mq.n]) * nominalTupleBytes
		}
	}
	return bytes
}

// popOldestLocked removes up to n of the operator's oldest queued
// activations, round-robin across worker queues (workers pop newest
// first, so stealing from the front minimizes contention with the
// provider's own picks). Callers hold the provider's pool mutex.
func popOldestLocked(or *opRun, n int) []*activation {
	acts := make([]*activation, 0, n)
	for len(acts) < n && or.queued > 0 {
		for i := range or.queues {
			qq := or.queues[i]
			if len(qq) == 0 {
				continue
			}
			acts = append(acts, qq[0])
			or.queues[i] = qq[1:]
			or.queued--
			if len(acts) >= n || or.queued == 0 {
				break
			}
		}
	}
	return acts
}

// acquireBuckets maps into the thief's node-local cache every remote
// hash-table bucket the stolen rows will probe, pricing the transfers
// as shipped bytes. Buckets already cached by an earlier steal cost
// nothing (§4's stolen-queue cache), an empty one included. A cached
// bucket is the owner's sealed build side — store and index — which the
// thief seals first if no probe of the owner's has yet: it is immutable
// from then on, so sharing is safe in-process, while the
// benefit/overhead score still charges the bytes a real network ship
// would move. Single writer per fragment (rounds are single-flight),
// readers go through the atomic pointer.
func (q *query) acquireBuckets(op *pop, acts []*activation) (copied int, bytes int64) {
	mq := q.mq
	po := q.ops[op.id]
	var old bucketCache
	if c := po.cache.Load(); c != nil {
		old = *c
	}
	var fresh bucketCache
	var vs, sealVS vecScratch // a seal hashes on its scratch: not the one holding hs
	for _, a := range acts {
		hs := keyHashes(a.input(&vs), op.keyCol, &vs)
		for i := range hs {
			g := int(hs[i] % uint64(mq.buckets))
			owner := g % mq.n
			if owner == q.node || old[g] != nil || fresh[g] != nil {
				continue
			}
			src := mq.frags[owner].ops[op.partner.id]
			side, err := src.seal(&sealVS)
			if err != nil {
				mq.fail(err)
				return copied, bytes
			}
			if fresh == nil {
				fresh = make(bucketCache, len(old)+4)
				for g2, m := range old {
					fresh[g2] = m
				}
			}
			fresh[g] = side
			copied++
			bytes += int64(src.stripeRows[g/mq.n]) * nominalTupleBytes
		}
	}
	if fresh != nil {
		po.cache.Store(&fresh)
	}
	return copied, bytes
}
