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
// already acquired, per the stolen-queue cache of §4). The thief picks
// the most loaded provider among those offering a candidate,
// re-evaluates at request time, acquires half the queue (condition iii:
// do not overload the requester), pays for the buckets it has not
// acquired yet, and enqueues the activations on its own pool. A bucket
// is only a price: its rows are counted at the owner's seal, and a
// stolen activation keeps its destination, so it probes the owner's
// sealed side in place — nothing is copied. The memory-fit condition
// (i) is vacuous in-process and dropped.
//
// A failed round parks the fragment (stealIdle) until a producer refills
// some peer queue past stealWakeThreshold — producer-driven retries in
// place of the simulation's timer pacing. Rounds are single-flight per
// fragment (stealBusy, claimed like a merge). A query whose production
// is paused on its consumer starts no round.

import (
	"maps"
	"sync/atomic"
)

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

	buckets, bytes := thief.acquireBuckets(best.op, acts, true)
	// Stolen buckets are resident on the thief for the rest of the
	// query: charge them to the thief's budget (an acquired bucket is
	// never re-shipped, so the charge is held until retirement).
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
// has not already acquired (acquireBuckets, recording nothing).
func (mq *mquery) shipEstimate(thief *query, op *pop, acts []*activation) int64 {
	_, bytes := thief.acquireBuckets(op, acts, false)
	for _, a := range acts {
		bytes += int64(a.hi-a.lo) * nominalTupleBytes
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

// acquireBuckets prices the remote hash-table buckets the rows of acts —
// probe activations of op, on offer to or stolen by thief q — touch and
// q has not acquired: each bucket's rows, counted at its owner's seal,
// as shipped bytes. An activation's rows are all its dest's, whose
// sealed side q seals first if no probe of the owner's has yet; rows q
// owns itself cost nothing. With record set the buckets join q's
// acquired set, so a later steal touching them pays nothing for them
// (§4's stolen-queue cache), an empty one included. The stolen rows
// probe the owner's sealed side in place — it is immutable, so sharing
// is safe in-process — while the benefit/overhead score still charges
// the bytes a real network ship would move. Activation batches are
// immutable once emitted and build sides complete before any probe
// runs, so no lock is needed; the set is touched only by the fragment's
// single-flight steal round. Key hashing runs on a throwaway scratch
// (this is the cold steal path).
func (q *query) acquireBuckets(op *pop, acts []*activation, record bool) (buckets int, bytes int64) {
	mq := q.mq
	po := q.ops[op.id]
	var fresh map[int]bool
	var vs, sealVS vecScratch // a seal hashes on its scratch: not the one holding the keys'
	for _, a := range acts {
		if a.dest == q.node {
			continue
		}
		side, err := mq.frags[a.dest].ops[op.partner.id].seal(mq, &sealVS)
		if err != nil {
			mq.fail(err)
			return buckets, bytes
		}
		for _, h := range keyHashes(a.input(&vs), op.keyCol, &vs) {
			g := int(h % uint64(mq.buckets))
			if po.acquired[g] || fresh[g] {
				continue
			}
			if fresh == nil {
				fresh = make(map[int]bool)
			}
			fresh[g] = true
			buckets++
			bytes += int64(side.bucketRows[g/mq.n]) * nominalTupleBytes
		}
	}
	if record && fresh != nil {
		if po.acquired == nil {
			po.acquired = fresh
		} else {
			maps.Copy(po.acquired, fresh)
		}
	}
	return buckets, bytes
}
