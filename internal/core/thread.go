package core

// The execution-thread loop of §3–§4: one thread per processor per query,
// consuming activations from its primary queues first, then any queue of
// its SM-node (DP) or of its allocated operators (FP), suspending blocked
// activations instead of blocking the processor.

import (
	"fmt"

	"hierdb/internal/plan"
	"hierdb/internal/simtime"
)

// stealRetryInterval paces starving retries after a failed round.
const stealRetryInterval = 2 * simtime.Millisecond

type thread struct {
	eng  *Engine
	node *engNode
	idx  int
	name string

	proc *simtime.Proc
	cond *simtime.Cond

	// wakeFn caches the wake method value handed to Kernel.At, so timed
	// wakeups do not allocate a new closure per sleep.
	wakeFn func()

	// suspended holds activations this thread started but could not
	// complete (the paper's suspended execution contexts).
	suspended []*activation

	// allowed restricts the thread to a set of operators (FP mode);
	// nil means any operator of the node (DP mode).
	allowed opBitset

	// FP per-processor global load balancing state: the thread's
	// starving round, built on first use, and the buffer of operators
	// it steals for.
	stealOutstanding bool
	nextStealTime    simtime.Time
	round            *stealRound
	stealOps         []*opState

	sleeping bool

	busy, ioWait, idle simtime.Duration
}

// suspendedCap is the suspended-list capacity a thread starts with.
const suspendedCap = 8

// init sets up thread idx of node n; suspended is its suspended list's
// initial storage.
func (t *thread) init(e *Engine, n *engNode, idx int, suspended []*activation) {
	*t = thread{eng: e, node: n, idx: idx, suspended: suspended}
	t.name = fmt.Sprintf("n%dt%d", n.id, idx)
	t.cond = e.k.NewCond(t.name)
	t.wakeFn = t.wake
}

func (t *thread) spawn() {
	t.eng.k.Spawn(t.name, t.run)
}

//hierdb:hotpath
func (t *thread) run(p *simtime.Proc) {
	t.proc = p
	e := t.eng
	for !e.done {
		if a := t.nextSuspended(); a != nil {
			t.step(a)
			continue
		}
		if a := t.nextQueued(); a != nil {
			t.step(a)
			continue
		}
		if e.opt.GlobalLB && len(e.nodes) > 1 {
			t.maybeRequestWork()
		}
		t.sleep()
	}
}

// charge advances virtual time by instr instructions of work.
//
//hierdb:hotpath
func (t *thread) charge(instr int64) {
	if instr <= 0 {
		return
	}
	d := t.eng.instrTime(instr)
	t.busy += d
	t.proc.Delay(d)
}

//hierdb:hotpath
func (t *thread) chargeQueueOp() {
	t.eng.run.QueueOps++
	t.charge(t.eng.costs.QueueOp)
}

func (t *thread) wake() { t.cond.Signal() }

// nextSuspended resumes the oldest suspended activation that can make
// progress now.
//
//hierdb:hotpath
func (t *thread) nextSuspended() *activation {
	now := t.eng.k.Now()
	for i, a := range t.suspended {
		if !t.canProceed(a, now) {
			continue
		}
		t.suspended = append(t.suspended[:i], t.suspended[i+1:]...)
		return a
	}
	return nil
}

// canProceed reports whether a suspended activation is unblocked.
//
//hierdb:hotpath
func (t *thread) canProceed(a *activation, now simtime.Time) bool {
	if a.hasPending {
		return t.deliverable(&a.pending)
	}
	if a.emitRemaining > 0 {
		return true
	}
	if a.kind == trigger && a.req != nil && a.pagesDone < a.pages {
		return a.req.NextReadyAt() <= now
	}
	return true
}

// deliverable reports whether a batch can be delivered without blocking.
//
//hierdb:hotpath
func (t *thread) deliverable(b *batch) bool {
	c := b.consumer
	if b.dstNode == t.node.id {
		q := c.at(b.dstNode).queues[c.queueOfBucket(b.bucket)]
		return !q.full(t.eng.opt.QueueCapacity)
	}
	return t.node.creditsFor(c.op.ID, b.dstNode) > 0
}

// mayConsume applies the FP restriction (nil allowed set = DP, any
// operator).
//
//hierdb:hotpath
func (t *thread) mayConsume(o *opState) bool {
	if t.allowed == nil {
		return true
	}
	return t.allowed.has(o.op.ID)
}

// nextQueued selects a new activation from the node's queues: primary
// queues first (the thread's own queue of each operator), then the
// circular list starting at a per-thread offset to limit interference
// (§4, Figure 5).
//
//hierdb:hotpath
func (t *thread) nextQueued() *activation {
	e := t.eng
	t.charge(e.costs.Select)
	active := t.node.active
	if len(active) == 0 {
		return nil
	}
	if e.opt.PrimaryQueues {
		for _, q := range active {
			if q.idx == t.idx && q.consumable() && t.mayConsume(q.op) {
				return t.dequeue(q)
			}
		}
	}
	offset := 0
	if p := len(t.node.threads); p > 0 {
		offset = t.idx * len(active) / p
	}
	for i := 0; i < len(active); i++ {
		q := active[(offset+i)%len(active)]
		if q.consumable() && t.mayConsume(q.op) {
			return t.dequeue(q)
		}
	}
	return nil
}

//hierdb:hotpath
func (t *thread) dequeue(q *queue) *activation {
	wasFull := q.full(t.eng.opt.QueueCapacity)
	a := q.pop()
	t.chargeQueueOp()
	if a.recvInstr > 0 {
		t.charge(a.recvInstr)
		a.recvInstr = 0
	}
	if a.srcNode >= 0 {
		t.eng.creditConsumed(t.node, a)
		a.srcNode = -1
	}
	if q.empty() && len(t.eng.nodes) > 1 {
		t.eng.flushCredits(t.node, q.op)
	}
	if wasFull {
		// Space freed: local producers suspended on this queue can
		// resume.
		t.node.wake()
	}
	return a
}

// step drives an activation until it completes or suspends.
//
//hierdb:hotpath
func (t *thread) step(a *activation) {
	var blocked bool
	if a.kind == trigger {
		blocked = t.stepTrigger(a)
	} else {
		blocked = t.stepData(a)
	}
	if blocked {
		t.suspend(a)
		return
	}
	o := a.op
	o.outstanding--
	t.eng.freeActivation(a)
	t.eng.checkTermination(o)
}

// suspend parks a blocked activation on the thread's suspended list
// (playing the part of the paper's procedure-call context save).
//
//hierdb:hotpath
func (t *thread) suspend(a *activation) {
	t.eng.run.Suspensions++
	t.charge(t.eng.costs.Suspend)
	t.suspended = append(t.suspended, a)
}

// stepTrigger advances a scan trigger activation: asynchronous page reads
// interleaved with per-page CPU work and downstream emission. It returns
// true when blocked (page not ready or output queue full).
//
//hierdb:hotpath
func (t *thread) stepTrigger(a *activation) bool {
	e := t.eng
	o := a.op
	rel := o.op.Rel
	if a.req == nil {
		t.charge(e.cl.Cfg.Disk.InitInstr)
		a.req = e.cl.Nodes[a.node].Disks[a.diskIdx].StartRead(a.pages)
	}
	tpp := rel.TuplesPerPage(e.cl.Cfg.Disk.PageSize)
	on := o.at(a.node)
	outRatio := float64(o.op.OutCard) / float64(o.op.InCard)
	for {
		if !t.drainEmission(a) {
			return true
		}
		if a.pagesDone >= a.pages {
			return false
		}
		if !a.req.TryRead() {
			return true
		}
		a.pagesDone++
		remaining := a.tuples - int64(a.pagesDone-1)*tpp
		tuples := tpp
		if remaining < tuples {
			tuples = remaining
		}
		if tuples < 0 {
			tuples = 0
		}
		t.charge(tuples * e.costs.ScanTuple)
		a.emitRemaining += on.takeOutput(tuples, outRatio)
	}
}

// stepData advances a build or probe data activation. It returns true when
// blocked on emission.
//
//hierdb:hotpath
func (t *thread) stepData(a *activation) bool {
	e := t.eng
	o := a.op
	if !a.cpuCharged {
		a.cpuCharged = true
		switch o.op.Kind {
		case plan.Build:
			t.charge(a.dataTuples * e.costs.BuildTuple)
			on := o.at(a.node)
			on.addTable(a.bucket, a.dataTuples)
			bytes := e.costs.HashTableBytes(a.dataTuples, o.op.TupleBytes)
			on.tableBytes += bytes
			t.node.memUsed += bytes
			return false
		case plan.Probe:
			t.charge(a.dataTuples * e.costs.ProbeTuple)
			on := o.residueNode(a.node)
			out := on.takeOutput(a.dataTuples, o.matchesPerTuple)
			t.charge(out * e.costs.ResultTuple)
			if o.op.Consumer == nil {
				o.results += out
				return false
			}
			a.emitRemaining = out
		default:
			panic("core: data activation for a scan")
		}
	}
	if o.op.Consumer == nil {
		return false
	}
	return !t.drainEmission(a)
}

// residueNode returns the per-node state used for output rounding; stolen
// activations processed off the bucket's home node use the local state
// when the node is in the home, else the first home node.
func (o *opState) residueNode(n int) *opNode {
	if pos := o.homePos[n]; pos >= 0 {
		return o.perNode[pos]
	}
	return o.perNode[0]
}

// drainEmission packs pending output tuples into batches and delivers
// them. It returns false when blocked by flow control.
//
//hierdb:hotpath
func (t *thread) drainEmission(a *activation) bool {
	if !a.hasPending && a.emitRemaining == 0 {
		return true
	}
	e := t.eng
	c := a.op.consumer()
	if c == nil {
		a.emitRemaining = 0
		a.hasPending = false
		return true
	}
	for {
		if !a.hasPending {
			if a.emitRemaining == 0 {
				return true
			}
			n := e.batchTuples
			if n > a.emitRemaining {
				n = a.emitRemaining
			}
			bucket := c.bucketZipf.Draw(c.rng)
			a.pending = batch{
				consumer: c,
				bucket:   bucket,
				tuples:   n,
				dstNode:  c.nodeOfBucket(bucket),
			}
			a.hasPending = true
			a.emitRemaining -= n
		}
		var ok bool
		if a.pending.dstNode == t.node.id {
			ok = e.deliverLocal(t, &a.pending)
		} else {
			ok = e.deliverRemote(t, &a.pending)
		}
		if !ok {
			return false
		}
		a.hasPending = false
	}
}

// maybeRequestWork initiates global load balancing when the thread finds
// no work: node-level for DP (§3.2 — a thread gets idle only when the
// whole SM-node is starving), per-processor restricted to the thread's
// operators for FP (§5.3).
func (t *thread) maybeRequestWork() {
	e := t.eng
	now := e.k.Now()
	if e.opt.Mode == DP {
		n := t.node
		if n.stealOutstanding || now < n.nextStealTime {
			return
		}
		if n.queuedActivations() > 0 {
			return
		}
		n.stealOutstanding = true
		if n.round == nil {
			n.round = e.newStealRound(n, nil)
		}
		n.round.start(nil)
		return
	}
	// FP: the thread steals for the operators it is allocated to. The
	// bitset scan yields operator-ID order, which is deterministic.
	if t.stealOutstanding || now < t.nextStealTime {
		return
	}
	if t.stealOps == nil {
		t.stealOps = make([]*opState, 0, len(e.ops))
	}
	ops := t.stealOps[:0]
	for _, o := range e.ops {
		if t.allowed.has(o.op.ID) && o.isProbe() && o.started && !o.terminating {
			ops = append(ops, o)
		}
	}
	if len(ops) == 0 {
		return
	}
	t.stealOutstanding = true
	if t.round == nil {
		t.round = e.newStealRound(t.node, t)
	}
	t.round.start(ops)
}

// sleep parks the thread until woken, arranging a timer for the earliest
// disk completion among its suspended activations. Time asleep is
// accounted as I/O wait when a disk page is pending, idle otherwise
// (the processor idle time of §5.3).
func (t *thread) sleep() {
	e := t.eng
	if e.done {
		// The query finished while this thread was charging work; the
		// final wake was a no-op, so do not park.
		return
	}
	now := e.k.Now()
	var wakeAt simtime.Time
	ioPending := false
	for _, a := range t.suspended {
		if a.kind == trigger && a.req != nil && a.pagesDone < a.pages && !a.hasPending && a.emitRemaining == 0 {
			ioPending = true
			r := a.req.NextReadyAt()
			if wakeAt == 0 || r < wakeAt {
				wakeAt = r
			}
		}
	}
	if e.opt.GlobalLB && len(e.nodes) > 1 {
		// Retry pacing for failed starving rounds.
		next := t.node.nextStealTime
		if e.opt.Mode == FP {
			next = t.nextStealTime
		}
		if next > now && (wakeAt == 0 || next < wakeAt) {
			wakeAt = next
		}
	}
	if wakeAt > now {
		e.k.At(wakeAt, t.wakeFn)
	}
	t.sleeping = true
	t.cond.Wait(t.proc)
	t.sleeping = false
	slept := e.k.Now() - now
	if ioPending {
		t.ioWait += slept
	} else {
		t.idle += slept
	}
}
