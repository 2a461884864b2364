package core

// This file defines activations, the paper's self-contained units of
// sequential work (§3.1). A trigger activation carries a (scan operator,
// page range, disk) reference; a data activation carries an (operator,
// tuple batch, bucket) reference. Activations are resumable: their
// execution state lives in the struct so a thread can suspend one (output
// queue full, disk page not ready) and pick other work, which is the
// role procedure-call suspension plays in the paper.
//
// Activations are pooled on the Engine: completing one returns it to a
// free list, so steady-state execution creates no garbage on the
// activation path.

import "hierdb/internal/simdisk"

type actKind int

const (
	// trigger starts a leaf (scan) operator on a page range.
	trigger actKind = iota
	// data carries a batch of pipelined tuples for a build or probe.
	data
)

// activation is one unit of sequential work.
type activation struct {
	op   *opState
	kind actKind
	// node is the SM-node currently holding the activation.
	node int

	// Trigger state: pages to read from disk diskIdx, covering tuples
	// base-relation tuples.
	pages     int
	tuples    int64
	diskIdx   int
	req       *simdisk.Request
	pagesDone int

	// Data state: dataTuples input tuples destined to bucket.
	bucket     int
	dataTuples int64
	cpuCharged bool

	// Emission state: output tuples not yet packed into a batch, and the
	// batch currently awaiting queue space or network credit (valid while
	// hasPending; stored by value so emission never allocates).
	emitRemaining int64
	pending       batch
	hasPending    bool
	// stolen marks activations acquired through global load balancing.
	stolen bool

	// recvInstr is CPU to charge to the dequeuing thread when the
	// activation arrived over the network (§5.1.1 receive cost).
	recvInstr int64
	// srcNode is the producing node for credit-return purposes; -1 when
	// produced locally.
	srcNode int
}

// newActivation takes an activation from the engine pool, or carves a
// new one from the engine's activation slab. Fields are zeroed except
// srcNode, which defaults to -1 (produced locally).
//
//hierdb:hotpath
func (e *Engine) newActivation() *activation {
	var a *activation
	if n := len(e.actFree); n > 0 {
		a = e.actFree[n-1]
		e.actFree = e.actFree[:n-1]
	} else {
		if len(e.actSlab) == 0 {
			e.actSlab = make([]activation, actSlabLen)
		}
		a = &carve(&e.actSlab, 1)[0]
	}
	a.srcNode = -1
	return a
}

// actSlabLen is how many activations one slab allocation holds.
const actSlabLen = 32

// freeActivation recycles a fully consumed activation into the pool.
//
//hierdb:hotpath
func (e *Engine) freeActivation(a *activation) {
	*a = activation{}
	e.actFree = append(e.actFree, a)
}

// batch is a group of output tuples bound for one bucket of the consumer
// operator.
type batch struct {
	consumer *opState
	bucket   int
	tuples   int64
	dstNode  int
}

// activationHeaderBytes is the on-wire size of an activation descriptor.
const activationHeaderBytes = 32

// bytes returns the activation's transfer size.
func (a *activation) bytes() int64 {
	switch a.kind {
	case trigger:
		return activationHeaderBytes
	default:
		return activationHeaderBytes + a.dataTuples*a.op.op.TupleBytes
	}
}

func batchBytes(tuples, tupleBytes int64) int64 {
	return activationHeaderBytes + tuples*tupleBytes
}

// queue is a bounded FIFO of activations. One queue exists per (operator,
// thread) on every home node of the operator (§3.1); capacity bounds
// memory growth and provides the flow control synchronizing producers and
// consumers in a pipeline chain. Storage is a growable power-of-two ring
// buffer, so steady-state push/pop never allocate or copy.
type queue struct {
	op   *opState
	node int
	idx  int

	items []*activation // ring storage; len(items) is a power of two
	head  int
	count int
}

func (q *queue) len() int { return q.count }

func (q *queue) empty() bool { return q.count == 0 }

// full reports whether the queue is at capacity for producer flow control.
func (q *queue) full(capacity int) bool { return q.count >= capacity }

// at returns the i-th queued activation (0 = front) without removing it.
//
//hierdb:hotpath
func (q *queue) at(i int) *activation {
	return q.items[(q.head+i)&(len(q.items)-1)]
}

//hierdb:hotpath
func (q *queue) push(a *activation) {
	if q.count == len(q.items) {
		q.grow()
	}
	q.items[(q.head+q.count)&(len(q.items)-1)] = a
	q.count++
}

// queueRingLen is the ring length an engine's queues start with, half
// the default flow-control window (Options.QueueCapacity); a queue that
// outgrows it doubles as before.
const queueRingLen = 16

// grow doubles the ring, unwrapping the live window to the front.
//
//hierdb:hotpath
func (q *queue) grow() {
	size := len(q.items) * 2
	if size == 0 {
		size = 8
	}
	items := make([]*activation, size)
	for i := 0; i < q.count; i++ {
		items[i] = q.at(i)
	}
	q.items = items
	q.head = 0
}

//hierdb:hotpath
func (q *queue) pop() *activation {
	if q.count == 0 {
		return nil
	}
	a := q.items[q.head]
	q.items[q.head] = nil
	q.head = (q.head + 1) & (len(q.items) - 1)
	q.count--
	return a
}

// popN removes up to n activations from the front and appends them to
// dst.
//
//hierdb:hotpath
func (q *queue) popN(dst []*activation, n int) []*activation {
	if n > q.count {
		n = q.count
	}
	for ; n > 0; n-- {
		dst = append(dst, q.pop())
	}
	return dst
}

// consumable reports whether threads may consume from the queue: the
// operator must have started (scheduling constraints satisfied, §3.1
// "blocked queues") and not yet terminated.
func (q *queue) consumable() bool {
	return q.op.started && !q.op.terminating && !q.empty()
}
