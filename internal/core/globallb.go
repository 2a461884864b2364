package core

// Global load balancing (§3.2 and §4, Global Activation Selection).
//
// When a DP SM-node starves (no activation in any unblocked queue), its
// scheduler broadcasts a starving message carrying its free memory. Every
// other scheduler answers with its best candidate queue — only probe
// activations qualify (condition iv), the operator must be unblocked
// (condition v) and owned by the requester (§3.2), the data must fit in the
// requester's memory (condition i), and the queue must hold enough work to
// amortize the acquisition (condition ii) — scored by benefit/overhead
// ratio: queued activations versus bytes to ship (activations plus the
// hash-table buckets not already copied, per the stolen-queue cache of §4).
// The requester picks the most loaded provider and asks for the queue; the
// provider ships the activations and the missing hash-table buckets.
//
// Under FP the same protocol runs per processor, restricted to the
// requesting thread's allocated operators — which is why FP suffers
// repeated and mutual starving (§5.3) while DP requests at node level.

import (
	"hierdb/internal/simnet"
)

// offer is a provider's answer to a starving message.
type offer struct {
	provider *engNode
	load     int
	hasCand  bool
	score    float64
}

// candidate describes the queue a provider would give away; q is nil
// when there is none.
type candidate struct {
	q          *queue
	acts       int
	shipBytes  int64
	tableBytes int64
	score      float64
}

// stealRound is one requester's starving episode: a node's under DP, a
// thread's under FP. A requester has at most one round outstanding
// (stealOutstanding), so it builds its round on first use and every
// later round reuses it: the legs, their bound message handlers, the
// offers and the shipped activations.
type stealRound struct {
	e     *Engine
	req   *engNode
	owner *thread // the requesting thread under FP, nil under DP
	// ops restricts candidates to the thread's operators (FP); nil
	// under DP. It is the owner's buffer, stable while the round runs.
	ops     []*opState
	freeMem int64

	legs   []stealLeg
	offers []offer // answers in arrival order

	// The request to the chosen provider and what it ships.
	provider   *engNode
	acts       []*activation
	tableBytes int64
	recvShare  int64

	requestFn, failFn, receiveFn func()
}

// stealLeg is the round's exchange with one peer: the starving message
// and the peer's answer.
type stealLeg struct {
	r        *stealRound
	pv       *engNode
	off      offer
	askFn    func()
	answerFn func()
}

// newStealRound builds a requester's round record with one leg per peer.
func (e *Engine) newStealRound(req *engNode, owner *thread) *stealRound {
	r := &stealRound{e: e, req: req, owner: owner}
	r.legs = make([]stealLeg, 0, len(e.nodes)-1)
	for _, pv := range e.nodes {
		if pv != req {
			r.legs = append(r.legs, stealLeg{r: r, pv: pv})
		}
	}
	for i := range r.legs {
		l := &r.legs[i]
		l.askFn, l.answerFn = l.ask, l.answer
	}
	r.offers = make([]offer, 0, len(r.legs))
	r.requestFn, r.failFn, r.receiveFn = r.request, r.fail, r.receive
	return r
}

// start drives one starving episode: a starving message to every peer,
// whose answers come back to answer. ops restricts candidates (FP).
//
//hierdb:hotpath
func (r *stealRound) start(ops []*opState) {
	e := r.e
	e.run.StealRounds++
	r.ops = ops
	r.freeMem = r.req.freeMem()
	r.offers = r.offers[:0]
	for i := range r.legs {
		e.cl.Net.Send(simnet.Control, controlMsgBytes, r.legs[i].askFn)
	}
}

// ask runs at the provider when the starving message arrives: it
// evaluates the provider's candidate queues and sends the answer back.
//
//hierdb:hotpath
func (l *stealLeg) ask() {
	r := l.r
	l.off = r.e.computeOffer(l.pv, r.req, r.ops, r.freeMem)
	r.e.cl.Net.Send(simnet.Control, controlMsgBytes, l.answerFn)
}

// answer runs at the requester when the provider's answer arrives; the
// last one resolves the round.
//
//hierdb:hotpath
func (l *stealLeg) answer() {
	r := l.r
	r.offers = append(r.offers, l.off)
	if len(r.offers) == len(r.legs) {
		r.resolve()
	}
}

// computeOffer evaluates the provider's candidate queues at answer time.
func (e *Engine) computeOffer(pv, req *engNode, opsFilter []*opState, freeMem int64) offer {
	off := offer{provider: pv, load: pv.queuedActivations()}
	if c := e.bestCandidate(pv, req, opsFilter, freeMem); c.q != nil {
		off.hasCand = true
		off.score = c.score
	}
	return off
}

// bestCandidate selects the provider queue with the best benefit/overhead
// ratio under the conditions of §3.2; its q is nil when no queue
// qualifies.
func (e *Engine) bestCandidate(pv, req *engNode, opsFilter []*opState, freeMem int64) candidate {
	var best candidate
	if opsFilter != nil {
		for _, o := range opsFilter {
			e.considerCandidate(&best, o, pv, req, freeMem)
		}
	} else {
		for _, o := range e.ops {
			e.considerCandidate(&best, o, pv, req, freeMem)
		}
	}
	return best
}

// considerCandidate replaces best with the provider's best queue of o
// when it scores higher.
func (e *Engine) considerCandidate(best *candidate, o *opState, pv, req *engNode, freeMem int64) {
	if !o.isProbe() || !o.started || o.terminating {
		return // conditions (iv) and (v)
	}
	if o.homePos[req.id] < 0 {
		return // requester must own the operator
	}
	pos := o.homePos[pv.id]
	if pos < 0 {
		return
	}
	for _, q := range o.perNode[pos].queues {
		n := q.len()
		if n < e.opt.MinStealActivations {
			continue // condition (ii)
		}
		var actBytes, tblBytes int64
		seen := e.seen[:o.buckets]
		clear(seen)
		for i := 0; i < n; i++ {
			a := q.at(i)
			actBytes += a.bytes()
			if seen[a.bucket] {
				continue
			}
			seen[a.bucket] = true
			if e.opt.StealCache && pv.shipped[shipKey{opID: o.op.ID, bucket: a.bucket, requester: req.id}] {
				continue
			}
			tbl := e.ops[o.op.Partner.ID]
			if tpos := tbl.homePos[pv.id]; tpos >= 0 {
				tblBytes += e.costs.HashTableBytes(tbl.perNode[tpos].tableTuples(a.bucket), o.op.TupleBytes)
			}
		}
		ship := actBytes + tblBytes
		if ship > freeMem {
			continue // condition (i)
		}
		score := float64(n) / (1 + float64(ship)/1024)
		if best.q == nil || score > best.score {
			*best = candidate{q: q, acts: n, shipBytes: ship, tableBytes: tblBytes, score: score}
		}
	}
}

// resolve picks the most loaded provider that offered a candidate and
// requests the queue; without any offer the round fails and retries are
// paced.
//
//hierdb:hotpath
func (r *stealRound) resolve() {
	var chosen *offer
	for i := range r.offers {
		o := &r.offers[i]
		if !o.hasCand {
			continue
		}
		if chosen == nil || o.load > chosen.load {
			chosen = o
		}
	}
	if chosen == nil {
		r.fail()
		return
	}
	r.provider = chosen.provider
	r.e.cl.Net.Send(simnet.Control, controlMsgBytes, r.requestFn)
}

// request runs at the chosen provider. It re-evaluates the candidate at
// request time, because the provider's state has moved since its answer.
//
//hierdb:hotpath
func (r *stealRound) request() {
	e := r.e
	c := e.bestCandidate(r.provider, r.req, r.ops, r.freeMem)
	if c.q == nil {
		e.cl.Net.Send(simnet.Control, controlMsgBytes, r.failFn)
		return
	}
	e.shipQueue(r, c)
}

// fail ends the round without work and paces the requester's retry.
//
//hierdb:hotpath
func (r *stealRound) fail() {
	now := r.e.k.Now()
	if r.owner != nil {
		r.owner.stealOutstanding = false
		r.owner.nextStealTime = now + stealRetryInterval
		r.owner.wake()
		return
	}
	r.req.stealOutstanding = false
	r.req.nextStealTime = now + stealRetryInterval
	r.req.wake()
}

// shipQueue moves the candidate queue's activations (and missing
// hash-table buckets) from the round's provider to its requester.
func (e *Engine) shipQueue(r *stealRound, c candidate) {
	pv, req := r.provider, r.req
	o := c.q.op
	// Condition (iii) of §3.2: do not overload the requester — acquire
	// half the queue, but at least enough to amortize the round.
	n := c.q.len() / 2
	if n < e.opt.MinStealActivations {
		n = e.opt.MinStealActivations
	}
	acts := c.q.popN(r.acts[:0], n)
	r.acts = acts
	// Shipped activations leave the provider's queues for good: settle
	// their flow-control credits with the original senders now, exactly
	// as if the provider had consumed them, so no sender waits on a
	// window that can never refill.
	for _, a := range acts {
		if a.srcNode >= 0 {
			e.creditConsumed(pv, a)
			a.srcNode = -1
		}
	}
	e.flushCredits(pv, o)
	// Producers suspended on this (previously full) queue can resume.
	pv.wake()
	var bytes int64
	seen := e.seen[:o.buckets]
	clear(seen)
	for _, a := range acts {
		bytes += a.bytes()
		if !seen[a.bucket] {
			seen[a.bucket] = true
			key := shipKey{opID: o.op.ID, bucket: a.bucket, requester: req.id}
			if !e.opt.StealCache || !pv.shipped[key] {
				tbl := e.ops[o.op.Partner.ID]
				if tpos := tbl.homePos[pv.id]; tpos >= 0 {
					bytes += e.costs.HashTableBytes(tbl.perNode[tpos].tableTuples(a.bucket), o.op.TupleBytes)
				}
				pv.shipped[key] = true
			}
		}
	}
	if bytes <= 0 {
		bytes = controlMsgBytes
	}
	r.tableBytes = c.tableBytes
	r.recvShare = e.cl.Net.RecvInstr(bytes) / int64(len(acts))
	e.cl.Net.Send(simnet.Balance, bytes, r.receiveFn)
}

// receive runs at the requester when the shipped activations arrive:
// they join the requester's queues and the round ends.
//
//hierdb:hotpath
func (r *stealRound) receive() {
	e, req, o := r.e, r.req, r.acts[0].op
	req.memUsed += r.tableBytes
	for _, a := range r.acts {
		a.node = req.id
		a.stolen = true
		a.srcNode = -1
		a.recvInstr = r.recvShare
		on := o.residueNode(req.id)
		q := on.queues[o.queueOfBucket(a.bucket)]
		q.push(a)
	}
	e.run.StealsSucceeded++
	e.run.StolenActivations += int64(len(r.acts))
	clear(r.acts) // the activations are the requester's now
	if r.owner != nil {
		r.owner.stealOutstanding = false
	} else {
		req.stealOutstanding = false
	}
	req.wake()
}
