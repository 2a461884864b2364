package core

// Unit tests of internal building blocks: the queue FIFO, activation
// sizing, bucket-to-node declustering, scan seeding and steal-candidate
// selection conditions.

import (
	"testing"
	"testing/quick"

	"hierdb/internal/cluster"
	"hierdb/internal/plan"
	"hierdb/internal/simtime"
)

func TestQueueFIFO(t *testing.T) {
	q := &queue{}
	for i := 0; i < 5; i++ {
		q.push(&activation{bucket: i})
	}
	if q.len() != 5 {
		t.Fatalf("len = %d", q.len())
	}
	for i := 0; i < 5; i++ {
		a := q.pop()
		if a == nil || a.bucket != i {
			t.Fatalf("pop %d returned %+v", i, a)
		}
	}
	if !q.empty() || q.pop() != nil {
		t.Fatal("empty queue misbehaves")
	}
}

func TestQueueCompaction(t *testing.T) {
	q := &queue{}
	// Interleave pushes and pops past the compaction threshold.
	for i := 0; i < 500; i++ {
		q.push(&activation{bucket: i})
		if i%2 == 1 {
			q.pop()
		}
	}
	want := 250
	if q.len() != want {
		t.Fatalf("len = %d, want %d", q.len(), want)
	}
	// Remaining items must still come out in order.
	last := -1
	for !q.empty() {
		a := q.pop()
		if a.bucket <= last {
			t.Fatalf("order broken after compaction: %d after %d", a.bucket, last)
		}
		last = a.bucket
	}
}

func TestQueuePopN(t *testing.T) {
	q := &queue{}
	for i := 0; i < 10; i++ {
		q.push(&activation{bucket: i})
	}
	got := q.popN(nil, 4)
	if len(got) != 4 || got[0].bucket != 0 || got[3].bucket != 3 {
		t.Fatalf("popN(4) = %v", got)
	}
	rest := q.popN(nil, 100)
	if len(rest) != 6 {
		t.Fatalf("popN(100) returned %d", len(rest))
	}
}

func TestQueueFullFlag(t *testing.T) {
	q := &queue{}
	for i := 0; i < 3; i++ {
		q.push(&activation{})
	}
	if !q.full(3) || q.full(4) {
		t.Fatal("full() wrong")
	}
}

func TestActivationBytes(t *testing.T) {
	o := &opState{op: &plan.Operator{TupleBytes: 100}}
	trig := &activation{op: o, kind: trigger, pages: 4}
	if trig.bytes() != activationHeaderBytes {
		t.Fatalf("trigger bytes = %d", trig.bytes())
	}
	dat := &activation{op: o, kind: data, dataTuples: 10}
	if dat.bytes() != activationHeaderBytes+1000 {
		t.Fatalf("data bytes = %d", dat.bytes())
	}
	if batchBytes(5, 100) != activationHeaderBytes+500 {
		t.Fatal("batchBytes")
	}
}

func TestBucketDeclustering(t *testing.T) {
	o := &opState{
		home:    []int{0, 1, 2},
		homePos: newHomePos(3, []int{0, 1, 2}),
	}
	o.perNode = []*opNode{
		{node: 0, queues: make([]*queue, 4)},
		{node: 1, queues: make([]*queue, 4)},
		{node: 2, queues: make([]*queue, 4)},
	}
	// Buckets round-robin across the home; queue index spreads
	// same-node buckets over queues.
	counts := map[int]int{}
	for b := 0; b < 120; b++ {
		n := o.nodeOfBucket(b)
		counts[n]++
		qi := o.queueOfBucket(b)
		if qi < 0 || qi >= 4 {
			t.Fatalf("queueOfBucket(%d) = %d", b, qi)
		}
	}
	for n, c := range counts {
		if c != 40 {
			t.Fatalf("node %d got %d buckets", n, c)
		}
	}
}

func TestTakeOutputResidue(t *testing.T) {
	on := &opNode{}
	// 10 inputs at ratio 0.25 -> exactly 25 outputs over 10 calls.
	var total int64
	for i := 0; i < 10; i++ {
		total += on.takeOutput(10, 0.25)
	}
	if total != 25 {
		t.Fatalf("residue accumulation lost tuples: %d", total)
	}
}

func TestTakeOutputQuickConservation(t *testing.T) {
	f := func(nRaw uint8, ratioRaw uint16, calls uint8) bool {
		on := &opNode{}
		n := int64(nRaw%50) + 1
		ratio := float64(ratioRaw%1000) / 100 // up to 10x growth
		k := int(calls%20) + 1
		var total int64
		for i := 0; i < k; i++ {
			total += on.takeOutput(n, ratio)
		}
		exact := float64(n) * float64(k) * ratio
		diff := float64(total) - exact
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSeedScanDistribution(t *testing.T) {
	cfg := cluster.DefaultConfig(2, 2)
	tree := smallPlan(t, 41, 3, 2)
	opt := DefaultOptions(DP)
	k := simtime.NewKernel()
	cl := cluster.New(k, cfg)
	e, err := newEngine(k, cl, tree, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Chain 0's driver scan was seeded on both nodes, round-robin over
	// queues, and its outstanding count equals the queued triggers.
	driver := e.ops[tree.Chains[0][0].ID]
	var queued int64
	for _, on := range driver.perNode {
		nodeQueued := 0
		for _, q := range on.queues {
			nodeQueued += q.len()
		}
		if nodeQueued == 0 {
			t.Fatalf("node %d has no triggers", on.node)
		}
		queued += int64(nodeQueued)
	}
	if queued != driver.outstanding {
		t.Fatalf("outstanding %d != queued %d", driver.outstanding, queued)
	}
	if !driver.producerDone {
		t.Fatal("scan producerDone not set after seeding")
	}
}

func TestBestCandidateConditions(t *testing.T) {
	cfg := cluster.DefaultConfig(2, 2)
	tree := chainPlanForDebug(3, 2, 100)
	opt := DefaultOptions(DP)
	k := simtime.NewKernel()
	cl := cluster.New(k, cfg)
	e, err := newEngine(k, cl, tree, opt)
	if err != nil {
		t.Fatal(err)
	}
	pv, req := e.nodes[0], e.nodes[1]

	// Find a probe op and stuff one of the provider's queues.
	var probe *opState
	for _, o := range e.ops {
		if o.isProbe() {
			probe = o
			break
		}
	}
	probe.started = true
	on := probe.at(0)
	for i := 0; i < 10; i++ {
		on.queues[0].push(&activation{op: probe, kind: data, bucket: 0, dataTuples: 5, srcNode: -1})
	}

	c := e.bestCandidate(pv, req, nil, 1<<30)
	if c.q != on.queues[0] {
		t.Fatal("candidate not found for a full probe queue")
	}

	// Condition (ii): below MinStealActivations no candidate.
	on.queues[0].popN(nil, 10-opt.MinStealActivations+1)
	if e.bestCandidate(pv, req, nil, 1<<30).q != nil {
		t.Fatal("queue below MinSteal offered")
	}

	// Condition (i): must fit in requester memory.
	for i := 0; i < 10; i++ {
		on.queues[0].push(&activation{op: probe, kind: data, bucket: 0, dataTuples: 5, srcNode: -1})
	}
	if e.bestCandidate(pv, req, nil, 1).q != nil {
		t.Fatal("candidate offered beyond requester memory")
	}

	// Condition (v): blocked (not started) operators are not candidates.
	probe.started = false
	if e.bestCandidate(pv, req, nil, 1<<30).q != nil {
		t.Fatal("blocked operator offered")
	}
	probe.started = true

	// Condition (iv): builds and scans are never candidates.
	for _, o := range e.ops {
		if o.op.Kind == plan.Build && o.started {
			bon := o.at(0)
			for i := 0; i < 10; i++ {
				bon.queues[0].push(&activation{op: o, kind: data, bucket: 0, dataTuples: 5, srcNode: -1})
			}
			probe.at(0).queues[0].popN(nil, 1<<20) // drain the probe queue
			if c := e.bestCandidate(pv, req, nil, 1<<30); c.q != nil && !c.q.op.isProbe() {
				t.Fatal("non-probe operator offered")
			}
			break
		}
	}
}
