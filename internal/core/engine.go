package core

// Engine construction, operator lifecycle (start, unblock, end-of-operator
// detection) and the data-movement plumbing shared by threads.

import (
	"fmt"
	"sort"

	"hierdb/internal/cluster"
	"hierdb/internal/metrics"
	"hierdb/internal/plan"
	"hierdb/internal/simnet"
	"hierdb/internal/simtime"
	"hierdb/internal/xrand"
)

// controlMsgBytes is the size of protocol messages (starving, offers,
// end-of-operator coordination, credits).
const controlMsgBytes = 64

// Engine executes one parallel execution plan on one cluster under one
// option set. Engines are single-use.
type Engine struct {
	k     *simtime.Kernel
	cl    *cluster.Cluster
	tree  *plan.Tree
	opt   Options
	costs plan.Costs

	ops   []*opState
	nodes []*engNode

	// actFree is the activation free list: completed activations are
	// recycled here so the steady-state hot path allocates nothing.
	actFree []*activation
	// actSlab is the unused rest of the last activation slab.
	actSlab []activation

	// seen marks the buckets a steal round has priced, one flag per
	// bucket of the most fragmented operator.
	seen []bool
	// grantFree recycles credit-return messages.
	grantFree []*creditGrant
	// inflight holds the pipelined activations on the network, oldest
	// first; deliverFn is deliverNext bound once.
	inflight  queue
	deliverFn func()

	batchTuples int64

	done     bool
	doneTime simtime.Time
	rootOp   *opState

	run metrics.Run
}

// Run executes tree on a fresh cluster built from cfg and returns the
// measurement record. The execution is deterministic in (tree, cfg, opt).
func Run(tree *plan.Tree, cfg cluster.Config, opt Options) (*metrics.Run, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	k := simtime.NewKernel()
	cl := cluster.New(k, cfg)
	e, err := newEngine(k, cl, tree, opt)
	if err != nil {
		return nil, err
	}
	if err := k.Run(); err != nil {
		return nil, fmt.Errorf("core: %s on %s: %w", tree.Name, cfg, err)
	}
	if !e.done {
		return nil, fmt.Errorf("core: %s on %s: kernel drained before query end", tree.Name, cfg)
	}
	e.finishMetrics()
	return &e.run, nil
}

func newEngine(k *simtime.Kernel, cl *cluster.Cluster, tree *plan.Tree, opt Options) (*Engine, error) {
	e := &Engine{k: k, cl: cl, tree: tree, opt: opt, costs: opt.Costs}
	e.deliverFn = e.deliverNext
	if e.costs == (plan.Costs{}) {
		e.costs = plan.DefaultCosts()
	}
	e.batchTuples = int64(opt.BatchTuples)
	if e.batchTuples <= 0 {
		e.batchTuples = cl.Cfg.Disk.PageSize / tree.Ops[0].TupleBytes
		if e.batchTuples < 1 {
			e.batchTuples = 1
		}
	}
	e.run.Strategy = opt.Mode.String()
	e.run.Plan = tree.Name
	e.run.Config = cl.Cfg.String()

	rng := xrand.New(opt.Seed ^ 0x5ca1ab1e)

	// SM-node state.
	for n := 0; n < cl.Cfg.Nodes; n++ {
		e.nodes = append(e.nodes, &engNode{
			eng:     e,
			id:      n,
			shipped: make(map[shipKey]bool),
		})
	}

	// Operator state, carved from one slab per kind: an operator, its
	// per-home-node states and their queues.
	nq := cl.Cfg.ProcsPerNode
	if !opt.QueuePerThread {
		nq = 1
	}
	homes := 0
	for _, op := range tree.Ops {
		for _, n := range op.Home {
			if n < 0 || n >= cl.Cfg.Nodes {
				return nil, fmt.Errorf("core: %s homed on nonexistent node %d", op.Name, n)
			}
		}
		homes += len(op.Home)
	}
	states := make([]opState, len(tree.Ops))
	onodes := make([]opNode, homes)
	onodePtrs := make([]*opNode, homes)
	queues := make([]queue, homes*nq)
	queuePtrs := make([]*queue, homes*nq)
	rings := make([]*activation, homes*nq*queueRingLen)
	e.ops = make([]*opState, 0, len(tree.Ops))
	for i, op := range tree.Ops {
		o := &states[i]
		*o = opState{
			eng:     e,
			op:      op,
			home:    op.Home,
			homePos: newHomePos(cl.Cfg.Nodes, op.Home),
			rng:     rng.Split(uint64(op.ID)),
		}
		homeThreads := len(op.Home) * cl.Cfg.ProcsPerNode
		if op.Kind != plan.Scan {
			o.buckets = opt.FragmentationFactor * homeThreads
			o.bucketZipf = xrand.NewZipf(o.buckets, opt.RedistributionSkew)
		}
		if op.Kind == plan.Probe {
			o.matchesPerTuple = op.Selectivity * float64(op.Partner.InCard)
		}
		o.perNode = carve(&onodePtrs, len(op.Home))
		for pos, n := range op.Home {
			on := &carve(&onodes, 1)[0]
			on.node = n
			if op.Kind == plan.Build {
				on.tables = make([]int64, o.buckets)
			}
			on.queues = carve(&queuePtrs, nq)
			for qi := range on.queues {
				q := &carve(&queues, 1)[0]
				*q = queue{op: o, node: n, idx: qi, items: carve(&rings, queueRingLen)}
				on.queues[qi] = q
			}
			o.perNode[pos] = on
		}
		e.ops = append(e.ops, o)
		if o.buckets > len(e.seen) {
			e.seen = make([]bool, o.buckets)
		}
	}
	e.rootOp = e.ops[tree.Root.ID]

	// Flow-control windows (sized now that the operator count is known).
	for _, n := range e.nodes {
		n.initCredits(len(e.ops), cl.Cfg.Nodes)
	}

	// Scheduling graph.
	for _, op := range tree.Ops {
		o := e.ops[op.ID]
		o.blockersLeft = len(op.Blockers)
		for _, b := range op.Blockers {
			e.ops[b.ID].dependents = append(e.ops[b.ID].dependents, o)
		}
	}

	// Start unblocked operators (this seeds chain 0's scan) and build the
	// circular lists.
	for _, o := range e.ops {
		if o.blockersLeft == 0 {
			e.startOp(o)
		}
	}

	// FP: allocate threads for the first chain before spawning.
	for n := range e.nodes {
		e.nodes[n].rebuildActive()
	}

	// Worker threads: one per processor per query (§3.1), carved from
	// one slab with their node lists and suspended lists.
	procs := cl.Cfg.ProcsPerNode
	threads := make([]thread, len(e.nodes)*procs)
	threadPtrs := make([]*thread, len(e.nodes)*procs)
	suspended := make([]*activation, len(e.nodes)*procs*suspendedCap)
	for _, n := range e.nodes {
		n.threads = carve(&threadPtrs, procs)
		for i := range n.threads {
			t := &carve(&threads, 1)[0]
			t.init(e, n, i, carve(&suspended, suspendedCap)[:0])
			n.threads[i] = t
		}
	}
	if opt.Mode == FP {
		e.allocateFP(e.currentChain())
	}
	for _, n := range e.nodes {
		for _, t := range n.threads {
			t.spawn()
		}
	}
	return e, nil
}

// carve cuts the first n elements off *slab, capacity and all.
func carve[T any](slab *[]T, n int) []T {
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// currentChain returns the chain of the most recently started driver scan.
func (e *Engine) currentChain() int {
	cur := 0
	for _, o := range e.ops {
		if o.started && o.op.IsDriver() && o.op.Chain > cur {
			cur = o.op.Chain
		}
	}
	return cur
}

// startOp marks the operator runnable: its queues join the circular
// lists, scans seed their trigger activations, FP reallocates threads when
// a new chain opens.
func (e *Engine) startOp(o *opState) {
	o.started = true
	if o.op.Kind == plan.Scan {
		e.seedScan(o)
		o.producerDone = true
	}
	for _, n := range e.nodes {
		n.rebuildActive()
	}
	if e.opt.Mode == FP && o.op.IsDriver() && len(e.nodes[0].threads) > 0 {
		e.allocateFP(o.op.Chain)
	}
	for _, n := range e.nodes {
		n.wake()
	}
	// Empty-input edge: the operator may already be finished.
	e.checkTermination(o)
}

// seedScan creates the trigger activations of a scan: each covers
// PagesPerTrigger pages of the node's relation partition on one disk.
// With redistribution skew, triggers land on queues Zipf-skewed, modelling
// unbalanced partitions (§5.2.2).
func (e *Engine) seedScan(o *opState) {
	rel := o.op.Rel
	pageSize := e.cl.Cfg.Disk.PageSize
	tpp := rel.TuplesPerPage(pageSize)
	parts := rel.PartitionCards()
	var queueZipf *xrand.Zipf
	for pos, n := range o.home {
		on := o.perNode[pos]
		card := parts[pos]
		disks := len(e.cl.Nodes[n].Disks)
		if queueZipf == nil && e.opt.RedistributionSkew > 0 {
			queueZipf = xrand.NewZipf(len(on.queues), e.opt.RedistributionSkew)
		}
		pages := (card + tpp - 1) / tpp
		seq := 0
		for pages > 0 {
			p := int64(e.opt.PagesPerTrigger)
			if p > pages {
				p = pages
			}
			tuples := p * tpp
			if tuples > card {
				tuples = card
			}
			card -= tuples
			pages -= p
			a := e.newActivation()
			a.op = o
			a.kind = trigger
			a.node = n
			a.pages = int(p)
			a.tuples = tuples
			a.diskIdx = seq % disks
			qi := seq % len(on.queues)
			if queueZipf != nil {
				qi = queueZipf.Draw(o.rng)
			}
			on.queues[qi].push(a)
			o.outstanding++
			seq++
		}
	}
}

// allocateFP statically distributes each node's threads over the operators
// of chain c proportionally to the (possibly distorted) work estimates
// (§5.2.1). With at least as many threads as operators every operator
// receives one thread plus a share of the remainder; otherwise operators
// are packed onto threads longest-processing-time-first.
func (e *Engine) allocateFP(c int) {
	chain := e.tree.Chains[c]
	work := make([]float64, len(chain))
	var total float64
	for i, op := range chain {
		w := e.opt.FPWork[op.ID]
		if w <= 0 {
			w = 1
		}
		work[i] = w
		total += w
	}
	for _, n := range e.nodes {
		p := len(n.threads)
		for _, t := range n.threads {
			if t.allowed == nil {
				t.allowed = newOpBitset(len(e.ops))
			} else {
				clear(t.allowed)
			}
		}
		if len(chain) <= p {
			// One thread minimum per operator, remainder by share.
			counts := make([]int, len(chain))
			assigned := 0
			for i := range chain {
				counts[i] = 1
				assigned++
			}
			for assigned < p {
				// Give the next thread to the operator with the
				// highest work-per-thread.
				best := 0
				bestRatio := -1.0
				for i := range chain {
					r := work[i] / float64(counts[i])
					if r > bestRatio {
						bestRatio = r
						best = i
					}
				}
				counts[best]++
				assigned++
			}
			ti := 0
			for i, op := range chain {
				for j := 0; j < counts[i]; j++ {
					n.threads[ti].allowed.set(op.ID)
					ti++
				}
			}
		} else {
			// More operators than threads: pack operators onto
			// threads, heaviest first onto the least-loaded thread
			// (ties broken by chain position for determinism).
			loads := make([]float64, p)
			order := make([]int, len(chain))
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool {
				if work[order[a]] != work[order[b]] {
					return work[order[a]] > work[order[b]]
				}
				return order[a] < order[b]
			})
			for _, oi := range order {
				best := 0
				for ti := 1; ti < p; ti++ {
					if loads[ti] < loads[best] {
						best = ti
					}
				}
				loads[best] += work[oi]
				n.threads[best].allowed.set(chain[oi].ID)
			}
		}
		n.wake()
	}
}

// deliverLocal enqueues a batch into the consumer's queue on the local
// node. It returns false when the queue is full (flow control).
func (e *Engine) deliverLocal(t *thread, b *batch) bool {
	c := b.consumer
	on := c.at(b.dstNode)
	q := on.queues[c.queueOfBucket(b.bucket)]
	if q.full(e.opt.QueueCapacity) {
		return false
	}
	a := e.newActivation()
	a.op = c
	a.kind = data
	a.node = b.dstNode
	a.bucket = b.bucket
	a.dataTuples = b.tuples
	c.outstanding++
	q.push(a)
	t.chargeQueueOp()
	e.nodes[b.dstNode].wakeFor(c)
	return true
}

// deliverRemote ships a batch to the consumer's node over the network.
// It returns false when the sender is out of credits for that destination
// (remote flow control). The sending thread is charged the per-8KB send
// cost; the receive cost is charged to whichever thread dequeues the
// activation.
//
//hierdb:hotpath
func (e *Engine) deliverRemote(t *thread, b *batch) bool {
	c := b.consumer
	src := t.node
	if src.creditsFor(c.op.ID, b.dstNode) <= 0 {
		return false
	}
	src.credits[src.credIdx(c.op.ID, b.dstNode)]--
	bytes := batchBytes(b.tuples, c.op.TupleBytes)
	t.charge(e.cl.Net.SendInstr(bytes))
	a := e.newActivation()
	a.op = c
	a.kind = data
	a.node = b.dstNode
	a.bucket = b.bucket
	a.dataTuples = b.tuples
	a.srcNode = src.id
	a.recvInstr = e.cl.Net.RecvInstr(bytes)
	c.outstanding++
	e.inflight.push(a)
	e.cl.Net.Send(simnet.Pipeline, bytes, e.deliverFn)
	return true
}

// deliverNext runs when a pipelined activation arrives at its node: the
// oldest in flight joins its bucket's queue there. Every pipeline
// message crosses the one network with its one fixed delay, and the
// kernel breaks time ties in scheduling order, so messages arrive in the
// order they were sent.
//
//hierdb:hotpath
func (e *Engine) deliverNext() {
	a := e.inflight.pop()
	c := a.op
	q := c.at(a.node).queues[c.queueOfBucket(a.bucket)]
	q.push(a)
	e.nodes[a.node].wakeFor(c)
}

// initialCredits is the per-(operator, destination) send window.
func (e *Engine) initialCredits() int {
	return e.opt.QueueCapacity
}

// creditConsumed records consumption of a remote-produced activation and
// returns half-window credit batches to the producer (§3.1 flow control,
// in the style of [Graefe93, Pirahesh90]).
func (e *Engine) creditConsumed(consumerNode *engNode, a *activation) {
	idx := consumerNode.credIdx(a.op.op.ID, a.srcNode)
	consumerNode.creditDebt[idx]++
	half := e.initialCredits() / 2
	if half < 1 {
		half = 1
	}
	if consumerNode.creditDebt[idx] < half {
		return
	}
	e.returnCredits(consumerNode, a.op.op.ID, a.srcNode)
}

// returnCredits sends the accumulated credit grant for (opID, peer) back
// to the producing node.
//
//hierdb:hotpath
func (e *Engine) returnCredits(consumerNode *engNode, opID, peer int) {
	idx := consumerNode.credIdx(opID, peer)
	n := consumerNode.creditDebt[idx]
	if n <= 0 {
		return
	}
	consumerNode.creditDebt[idx] = 0
	var g *creditGrant
	if k := len(e.grantFree); k > 0 {
		g = e.grantFree[k-1]
		e.grantFree = e.grantFree[:k-1]
	} else {
		g = &creditGrant{}
		g.deliverFn = g.deliver
	}
	g.src = e.nodes[peer]
	g.idx = g.src.credIdx(opID, consumerNode.id)
	g.n = n
	e.cl.Net.Send(simnet.Control, controlMsgBytes, g.deliverFn)
}

// creditGrant is a credit-return message in flight. Grants are recycled
// through Engine.grantFree, each with its delivery bound once.
type creditGrant struct {
	src       *engNode
	idx, n    int
	deliverFn func()
}

// deliver runs when the grant reaches the producing node.
//
//hierdb:hotpath
func (g *creditGrant) deliver() {
	src := g.src
	src.credits[g.idx] += g.n
	g.src = nil
	src.eng.grantFree = append(src.eng.grantFree, g)
	src.wake()
}

// flushCredits returns every pending credit for an operator whose queues
// just drained, so remote producers holding the tail of a window are not
// stuck below the half-window return threshold.
func (e *Engine) flushCredits(consumerNode *engNode, o *opState) {
	for src := range e.nodes {
		if src == consumerNode.id {
			continue
		}
		e.returnCredits(consumerNode, o.op.ID, src)
	}
}

// checkTermination fires the end-of-operator protocol when the operator
// has started, its producers are finished, and no activation remains
// anywhere (queued, suspended, or in flight).
func (e *Engine) checkTermination(o *opState) {
	if e.done || o.terminating || !o.started || !o.producerDone || o.outstanding != 0 {
		return
	}
	o.terminating = true
	// Remove the operator's queues from the circular lists right away
	// (they are empty by definition).
	for _, n := range e.nodes {
		n.rebuildActive()
	}
	if o.endFn == nil {
		o.endFn = o.endMessage
	}
	if len(e.nodes) == 1 {
		// No protocol: the operator ends at the next event.
		o.endPhase, o.endPending = endPhases-1, 1
		e.k.After(0, o.endFn)
		return
	}
	// Coordinator protocol of §4 (Detection of Operator End): every
	// scheduler sends EndOfQueuesAtNode to the coordinator, the
	// coordinator runs a confirmation round with every scheduler (no
	// thread may still be processing), then broadcasts the update —
	// 4(N-1) messages and four network hops end to end.
	o.endPhase = 0
	e.sendEndPhase(o)
}

// endPhases is the number of message rounds of the end-of-operator
// protocol: EndOfQueuesAtNode to the coordinator, the coordinator's
// confirm request, the schedulers' confirmations, and the operator-end
// broadcast.
const endPhases = 4

// sendEndPhase sends the N-1 messages of the operator's current
// end-of-operator phase.
//
//hierdb:hotpath
func (e *Engine) sendEndPhase(o *opState) {
	o.endPending = len(e.nodes) - 1
	for i := 1; i < len(e.nodes); i++ {
		e.cl.Net.Send(simnet.Control, controlMsgBytes, o.endFn)
	}
}

// endMessage runs when one end-of-operator message arrives; the last of
// a phase starts the next, and the last phase finishes the operator.
//
//hierdb:hotpath
func (o *opState) endMessage() {
	if o.endPending--; o.endPending > 0 {
		return
	}
	if o.endPhase++; o.endPhase < endPhases {
		o.eng.sendEndPhase(o)
		return
	}
	o.eng.finishOp(o)
}

// finishOp completes termination: dependents unblock, consumers learn
// their producer is done, everyone wakes.
func (e *Engine) finishOp(o *opState) {
	o.terminated = true
	if c := o.consumer(); c != nil {
		c.producerDone = true
		e.checkTermination(c)
	}
	if o == e.rootOp {
		e.finish()
		return
	}
	for _, d := range o.dependents {
		d.blockersLeft--
		if d.blockersLeft == 0 && !d.started {
			e.startOp(d)
		}
	}
	for _, n := range e.nodes {
		n.rebuildActive()
		n.wake()
	}
}

// finish ends the query: response time is the instant the root operator's
// termination is known everywhere.
func (e *Engine) finish() {
	e.done = true
	e.doneTime = e.k.Now()
	for _, n := range e.nodes {
		n.wake()
	}
}

// finishMetrics folds thread and network counters into the run record.
func (e *Engine) finishMetrics() {
	e.run.ResponseTime = e.doneTime
	for _, n := range e.nodes {
		for _, t := range n.threads {
			e.run.Busy += t.busy
			e.run.IOWait += t.ioWait
			e.run.Idle += t.idle
		}
	}
	e.run.ResultTuples = e.rootOp.results
	pipe := e.cl.Net.TrafficFor(simnet.Pipeline)
	ctrl := e.cl.Net.TrafficFor(simnet.Control)
	bal := e.cl.Net.TrafficFor(simnet.Balance)
	e.run.PipelineMsgs, e.run.PipelineBytes = pipe.Messages, pipe.Bytes
	e.run.ControlMsgs, e.run.ControlBytes = ctrl.Messages, ctrl.Bytes
	e.run.BalanceMsgs, e.run.BalanceBytes = bal.Messages, bal.Bytes
}

// instrTime converts instructions to time at the configured MIPS.
func (e *Engine) instrTime(instr int64) simtime.Duration {
	return e.cl.Cfg.InstrTime(instr)
}
