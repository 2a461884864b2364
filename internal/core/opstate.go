package core

// Runtime state of operators and SM-nodes.

import (
	"hierdb/internal/plan"
	"hierdb/internal/simtime"
	"hierdb/internal/xrand"
)

// opState is the engine-wide runtime state of one operator.
type opState struct {
	eng *Engine
	op  *plan.Operator

	// home lists the SM-nodes executing the operator; homePos maps a
	// node id to its position in home (-1 when the node is not in the
	// home). A flat slice indexed by node id keeps the per-activation
	// lookups off the map path.
	home    []int
	homePos []int

	// buckets is the degree of fragmentation of the join this operator
	// belongs to (build/probe); 0 for scans.
	buckets int
	// bucketZipf distributes incoming tuples over buckets (redistribution
	// skew, §5.2.2); nil for scans.
	bucketZipf *xrand.Zipf
	// rng drives this operator's random draws.
	rng *xrand.Rand

	// matchesPerTuple is, for probes, the expected result tuples per
	// probing tuple: selectivity x build-input cardinality.
	matchesPerTuple float64

	// Scheduling state.
	blockersLeft int
	dependents   []*opState
	started      bool
	// terminating is set while the end-of-operator protocol runs;
	// terminated once every node knows.
	terminating bool
	terminated  bool
	// End-of-operator protocol state: the current phase, its messages
	// still in flight, and the bound handler every message runs.
	endPhase, endPending int
	endFn                func()
	// producerDone reports that no more activations will ever be
	// produced for this operator (scan: seeding finished; build/probe:
	// the producing operator terminated).
	producerDone bool
	// outstanding counts activations created but not fully processed
	// (queued, suspended, in flight). Termination requires zero.
	outstanding int64

	perNode []*opNode // indexed by position in home

	// results counts output tuples of the root operator.
	results int64
}

// newHomePos builds the node-id -> home-position index for home.
func newHomePos(nodes int, home []int) []int {
	pos := make([]int, nodes)
	for i := range pos {
		pos[i] = -1
	}
	for i, n := range home {
		pos[n] = i
	}
	return pos
}

// opNode is the per-SM-node state of an operator.
type opNode struct {
	node   int
	queues []*queue
	// residue carries fractional output tuples between activations so
	// totals match the estimates exactly up to rounding.
	residue float64
	// tables counts tuples per bucket for the hash tables built at this
	// node (build operators; probes share via partner). Indexed by
	// bucket, grown on demand.
	tables     []int64
	tableBytes int64
}

// tableTuples returns the built tuple count for bucket b (0 when the
// bucket has no table here).
func (on *opNode) tableTuples(b int) int64 {
	if b < len(on.tables) {
		return on.tables[b]
	}
	return 0
}

// addTable adds n built tuples to bucket b.
func (on *opNode) addTable(b int, n int64) {
	if b >= len(on.tables) {
		grown := make([]int64, b+1)
		copy(grown, on.tables)
		on.tables = grown
	}
	on.tables[b] += n
}

// nodeOfBucket maps a bucket to the home node storing it: buckets are
// declustered round-robin across the operator home.
func (o *opState) nodeOfBucket(b int) int {
	return o.home[b%len(o.home)]
}

// queueOfBucket maps a bucket to a queue index on its node, spreading
// consecutive same-node buckets over the node's queues.
func (o *opState) queueOfBucket(b int) int {
	q := len(o.home)
	return (b / q) % len(o.perNode[0].queues)
}

// at returns the per-node state for node id n (which must be in the home).
func (o *opState) at(n int) *opNode {
	return o.perNode[o.homePos[n]]
}

// isProbe reports whether the operator is a probe (the only kind whose
// activations global load balancing may acquire, condition (iv) of §3.2).
func (o *opState) isProbe() bool { return o.op.Kind == plan.Probe }

// consumer returns the opState receiving this operator's output, or nil.
func (o *opState) consumer() *opState {
	if o.op.Consumer == nil {
		return nil
	}
	return o.eng.ops[o.op.Consumer.ID]
}

// takeOutput converts n input-side tuples into output tuples using ratio,
// carrying fractional parts in the node residue.
func (on *opNode) takeOutput(n int64, ratio float64) int64 {
	exact := on.residue + float64(n)*ratio
	out := int64(exact)
	on.residue = exact - float64(out)
	if out < 0 {
		out = 0
	}
	return out
}

// opBitset is a set of operators indexed by operator ID (the FP
// thread-to-operator allocation). A nil bitset means "all operators".
type opBitset []uint64

func newOpBitset(ops int) opBitset {
	return make(opBitset, (ops+63)/64)
}

func (b opBitset) set(id int) { b[id/64] |= 1 << (uint(id) % 64) }

func (b opBitset) has(id int) bool {
	return b[id/64]&(1<<(uint(id)%64)) != 0
}

// engNode is the runtime state of one SM-node.
type engNode struct {
	eng *Engine
	id  int

	threads []*thread

	// active is the circular list of §4 (Local Activation Selection):
	// references to all queues of started, non-terminated operators on
	// this node.
	active []*queue

	// credits is the remaining send window per (operator, destination
	// node); creditDebt counts consumed remote activations per
	// (operator, source node) awaiting a credit-return message. Both are
	// flat slices indexed by opID*nodes+peer (see credIdx), keeping the
	// flow-control fast path free of map operations.
	credits    []int
	creditDebt []int

	// memUsed approximates shared-memory consumption (hash tables plus
	// stolen data), bounding load-sharing acquisitions (condition (i)).
	memUsed int64

	// stealOutstanding serializes DP starving rounds: when a whole node
	// starves, one request is issued at a time (§5.3: with DP "there
	// cannot be repeated or mutual starving situations").
	stealOutstanding bool
	// nextStealTime paces retries after a failed round.
	nextStealTime simtime.Time
	// round is the node's DP starving round, built on first use.
	round *stealRound

	// shipped is the provider-side stolen-queue cache: hash-table
	// buckets already copied to a requester, per (operator, bucket,
	// requester) (§4 optimization).
	shipped map[shipKey]bool
}

type shipKey struct {
	opID      int
	bucket    int
	requester int
}

// credIdx flattens an (operator, peer node) credit key.
func (n *engNode) credIdx(opID, peer int) int {
	return opID*len(n.eng.nodes) + peer
}

// creditsFor returns the node's remaining send window for (opID, peer).
func (n *engNode) creditsFor(opID, peer int) int {
	return n.credits[n.credIdx(opID, peer)]
}

// initCredits sizes the flow-control windows once the operator count is
// known, filling every window to the initial credit grant.
func (n *engNode) initCredits(ops, nodes int) {
	n.credits = make([]int, ops*nodes)
	full := n.eng.initialCredits()
	for i := range n.credits {
		n.credits[i] = full
	}
	n.creditDebt = make([]int, ops*nodes)
}

// freeMem returns the node's remaining memory budget.
func (n *engNode) freeMem() int64 {
	free := n.eng.cl.Cfg.MemoryPerNode - n.memUsed
	if free < 0 {
		free = 0
	}
	return free
}

// rebuildActive reconstructs the circular queue list after an operator
// starts or terminates (§4: "This list is ... updated at the end of each
// operator").
func (n *engNode) rebuildActive() {
	n.active = n.active[:0]
	for _, o := range n.eng.ops {
		if !o.started || o.terminating {
			continue
		}
		pos := o.homePos[n.id]
		if pos < 0 {
			continue
		}
		n.active = append(n.active, o.perNode[pos].queues...)
	}
}

// queuedActivations counts consumable activations on the node (the load
// reported in starving-protocol offers).
func (n *engNode) queuedActivations() int {
	total := 0
	for _, q := range n.active {
		if q.consumable() {
			total += q.len()
		}
	}
	return total
}

// wake signals every sleeping thread on the node.
func (n *engNode) wake() {
	for _, t := range n.threads {
		t.wake()
	}
}

// wakeFor signals only the threads allowed to consume o's activations —
// under FP most threads are bound to other operators and waking them per
// enqueue would only make them rescan and re-park.
func (n *engNode) wakeFor(o *opState) {
	for _, t := range n.threads {
		if t.allowed == nil || t.allowed.has(o.op.ID) {
			t.wake()
		}
	}
}
