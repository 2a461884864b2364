package exec

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// keysOwnedBy returns count distinct int keys whose owner node under a
// (nodes, stripes) configuration is node — the recipe for skewed
// workloads where redistribution concentrates all probe work on one
// node.
func keysOwnedBy(node, nodes, stripes, count int) []int {
	keys := make([]int, 0, count)
	for k := 0; len(keys) < count; k++ {
		if OwnerNode(k, nodes, stripes) == node {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestOwnerNodeIgnoresStripes: a key's owner node is its hash mod the
// node count, whatever the stripes per node — the node its global bucket
// (hash mod nodes·stripes) maps to — for int, string and float keys, and
// every node owns some of them.
func TestOwnerNodeIgnoresStripes(t *testing.T) {
	keys := []any{}
	for i := range 200 {
		keys = append(keys, i, fmt.Sprintf("k%d", i), float64(i)+0.25)
	}
	for _, nodes := range []int{2, 3} {
		owned := make([]int, nodes)
		for _, k := range keys {
			want := OwnerNode(k, nodes, 1)
			owned[want]++
			for _, stripes := range []int{1, 8, 32} {
				bucket := keyHash64(k) % uint64(nodes*stripes)
				if got := OwnerNode(k, nodes, stripes); got != want || int(bucket%uint64(nodes)) != want {
					t.Fatalf("%d nodes, %d stripes: key %#v owned by %d, bucket %d, want node %d", nodes, stripes, k, got, bucket, want)
				}
			}
		}
		for node, n := range owned {
			if n == 0 {
				t.Fatalf("%d nodes: node %d owns none of %d keys", nodes, node, len(keys))
			}
		}
	}
}

// skewPlan builds a fact-dim join whose every key is owned by node 0:
// scans stay balanced (units of rows are dealt round-robin), but all
// build and probe activations route to node 0, starving the peers.
func skewPlan(nodes, stripes, factRows, dimRows int) Node {
	hot := keysOwnedBy(0, nodes, stripes, dimRows)
	dim := &Table{Name: "dim", Cols: []string{"k", "v"}}
	for i, k := range hot {
		dim.Rows = append(dim.Rows, Row{k, fmt.Sprintf("d%d", i)})
	}
	fact := &Table{Name: "fact", Cols: []string{"k", "v"}}
	for i := 0; i < factRows; i++ {
		fact.Rows = append(fact.Rows, Row{hot[i%dimRows], i})
	}
	return &Join{
		Build:    &Scan{Table: dim},
		Probe:    &Scan{Table: fact},
		BuildKey: 0,
		ProbeKey: 0,
	}
}

// TestGlobalStealOnSkewedWorkload: under total key skew onto node 0,
// the starving peer must acquire remote probe queues (steal counters
// fire), the result must match single-node execution exactly, and the
// acquired-bucket set must bound what is paid for at the owner's bucket
// count. With stealing disabled the same workload reports zero steals.
func TestGlobalStealOnSkewedWorkload(t *testing.T) {
	checkQueryHygiene(t)
	const (
		nodes    = 2
		stripes  = 8
		factRows = 60_000
		dimRows  = 500
	)
	plan := skewPlan(nodes, stripes, factRows, dimRows)
	want, _, err := runOnce(context.Background(), plan, nil, EngineConfig{Workers: 4, Stripes: stripes})
	if err != nil {
		t.Fatal(err)
	}

	ns := newNodesT(t, EngineConfig{Nodes: nodes, Workers: 4, Stripes: stripes})
	var st *Stats
	// The steal depends on scheduling (a peer must starve while the hot
	// node holds a queue); with ~200 probe activations funneled to node
	// 0 it fires essentially always — retry a few times to be safe.
	for attempt := 0; attempt < 5; attempt++ {
		h, err := ns.Submit(context.Background(), plan, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		got := collectHandle(t, h)
		sameRows(t, got, want)
		st = h.Stats()
		if st.Steals > 0 {
			break
		}
	}
	if st.Steals == 0 || st.StolenActivations == 0 {
		t.Fatalf("no steal fired on a fully skewed workload: %+v", st)
	}
	if st.StealRounds < st.Steals {
		t.Fatalf("rounds %d < successful steals %d", st.StealRounds, st.Steals)
	}
	// The starving peer must have stolen (node 0 can only re-steal work
	// node 1 acquired first), and per-node counters must sum to the
	// totals.
	if st.Nodes[1].Steals == 0 {
		t.Fatalf("starving peer never stole: %+v", st.Nodes)
	}
	var nodeSteals, nodeActs int64
	for _, nst := range st.Nodes {
		nodeSteals += nst.Steals
		nodeActs += nst.StolenActivations
	}
	if nodeSteals != st.Steals || nodeActs != st.StolenActivations {
		t.Fatalf("per-node steal counters do not sum: %d/%d vs %d/%d",
			nodeSteals, st.Steals, nodeActs, st.StolenActivations)
	}
	// The stolen-queue cache: a bucket is paid for at most once, and
	// node 0 owns `stripes` buckets.
	if st.StolenBuckets == 0 || st.StolenBuckets > stripes {
		t.Fatalf("StolenBuckets = %d, want in [1, %d] (an acquired bucket must not be paid for again)",
			st.StolenBuckets, stripes)
	}
	if st.StolenBucketBytes <= 0 {
		t.Fatalf("StolenBucketBytes = %d", st.StolenBucketBytes)
	}

	// Steal-off: same shape, same plan, zero steals — and still the
	// right answer (the hot node does all probe work alone).
	off := newNodesT(t, EngineConfig{Nodes: nodes, Workers: 4, Stripes: stripes, DisableStealing: true})
	h, err := off.Submit(context.Background(), plan, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	got := collectHandle(t, h)
	sameRows(t, got, want)
	if st := h.Stats(); st.Steals != 0 || st.StealRounds != 0 || st.StolenActivations != 0 {
		t.Fatalf("DisableStealing leaked steals: %+v", st)
	}
}

// TestStealStatsIsolatedPerQuery runs several skewed queries
// concurrently on one engine and checks each query's results and steal
// counters stay per-query (the -race leg of the steal path).
func TestStealStatsIsolatedPerQuery(t *testing.T) {
	checkQueryHygiene(t)
	const (
		nodes   = 2
		stripes = 8
		queries = 4
	)
	plan := skewPlan(nodes, stripes, 12_000, 200)
	want, _, err := runOnce(context.Background(), plan, nil, EngineConfig{Workers: 4, Stripes: stripes})
	if err != nil {
		t.Fatal(err)
	}
	ns := newNodesT(t, EngineConfig{Nodes: nodes, Workers: 2, Stripes: stripes})
	var wg sync.WaitGroup
	stats := make([]*Stats, queries)
	errs := make([]error, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := ns.Submit(context.Background(), plan, nil, "")
			if err != nil {
				errs[i] = err
				return
			}
			var got []Row
			got = drainRows(h)
			if err := h.Err(); err != nil {
				errs[i] = err
				return
			}
			if len(got) != len(want) {
				errs[i] = fmt.Errorf("query %d: %d rows, want %d", i, len(got), len(want))
				return
			}
			stats[i] = h.Stats()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, st := range stats {
		if st.ResultRows != int64(len(want)) {
			t.Fatalf("query %d: stats not isolated, ResultRows %d want %d", i, st.ResultRows, len(want))
		}
		var nodeSteals, nodeActs int64
		for _, nst := range st.Nodes {
			nodeSteals += nst.Steals
			nodeActs += nst.StolenActivations
		}
		if nodeSteals != st.Steals || nodeActs != st.StolenActivations {
			t.Fatalf("query %d: per-node steal counters do not sum: %d/%d vs %d/%d",
				i, nodeSteals, st.Steals, nodeActs, st.StolenActivations)
		}
		if st.Steals > 0 && st.StolenActivations == 0 {
			t.Fatalf("query %d: steals without stolen activations: %+v", i, st)
		}
	}
}

// TestMergeQueuedClaimsNoSteal: once a group-by's merge activations are
// queued, no fragment claims a steal round and no provider offers one —
// by the merge flag, not by queue length. A fragment that has taken its
// merge activation has nothing queued and a probe in its chain, a
// starving fragment's shape; a peer's root queue holds merge
// activations, which have no batch to price, here padded past the
// acquisition threshold so that the threshold alone would admit them.
func TestMergeQueuedClaimsNoSteal(t *testing.T) {
	const nodes, stripes = 2, 8
	phys, err := compile(skewPlan(nodes, stripes, 100, 10))
	if err != nil {
		t.Fatal(err)
	}
	ns, err := newNodes(EngineConfig{Nodes: nodes, Workers: 1, Stripes: stripes})
	if err != nil {
		t.Fatal(err)
	}
	mq := &ns.newQuery(context.Background(), phys, &GroupBy{Key: 0, Aggs: []Aggregation{{Func: Count}}}).mq
	root := phys.root
	for i, fq := range mq.frags {
		fq.chain = root.chain
		ns.pools[i].queries = append(ns.pools[i].queries, fq)
	}
	mq.mu.Lock()
	mq.ops[root.id].prodEnd = true
	finished := mq.opFinished(root)
	mq.mu.Unlock()
	if finished || mq.ops[root.id].pend != nodes {
		t.Fatalf("the drained root finished (%v) with %d activations pending, want one merge a node queued", finished, mq.ops[root.id].pend)
	}
	thief, provider := mq.frags[1], mq.frags[0]
	p := ns.pools[1]
	p.mu.Lock()
	a := thief.pickLocked(0)
	claim := p.stealClaimLocked()
	p.mu.Unlock()
	if a == nil || !a.closing {
		t.Fatalf("node 1 picked %+v, want its merge activation", a)
	}
	if claim != nil {
		t.Fatal("a fragment that took its merge activation claimed a steal round")
	}
	for i := 0; i < 2*minStealActs; i++ {
		provider.ops[root.id].pushLocked(&activation{op: root, closing: true})
	}
	if off := mq.solicit(thief, provider, 0, &thief.vscratch[0]); off != nil {
		t.Fatalf("a provider holding merge activations offered %+v", off)
	}
	if mq.stealRound(thief, &thief.vscratch[0]) {
		t.Fatal("a steal round acquired merge activations")
	}
}

// TestOperatorStackOrder pins the one queue an operator has on a node:
// every worker pops the newest activation, a steal takes the oldest, in
// order, and a failed fragment drops the rest.
func TestOperatorStackOrder(t *testing.T) {
	phys, err := compile(&Scan{Table: tbl("t", 8, func(i int) any { return i }, func(i int) any { return i })})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := newNodes(EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := ns.newQuery(context.Background(), phys, nil).mq.frags[0]
	op := phys.chains[q.chain][0]
	or := q.ops[op.id]
	var acts [4]*activation
	for i := range acts {
		acts[i] = &activation{op: op, lo: i, hi: i + 1}
		or.pushLocked(acts[i])
	}
	if a := q.pickLocked(0); a != acts[3] {
		t.Fatalf("worker 0 picked %+v, want the newest, %+v", a, acts[3])
	}
	if got := or.popOldestLocked(2); len(got) != 2 || got[0] != acts[0] || got[1] != acts[1] {
		t.Fatalf("a steal of 2 took %+v, want the oldest two in order", got)
	}
	if a := q.pickLocked(1); a != acts[2] {
		t.Fatalf("worker 1 picked %+v, want %+v", a, acts[2])
	}
	or.pushLocked(acts[3])
	q.failLocked()
	if len(or.acts) != 0 || q.pickLocked(0) != nil {
		t.Fatalf("a failed fragment kept %d activations", len(or.acts))
	}
}

// TestProbeActivationsOwnedByDest is the invariant the probe kernel
// relies on: every probe activation emitBatch makes holds only rows its
// dest node owns — at any node count, under uniform and skewed keys — and
// a steal moves activations whole with their dest, so a stolen
// activation finds all its matches in its owner's sealed side.
func TestProbeActivationsOwnedByDest(t *testing.T) {
	const stripes, probeRows = 8, 3_000
	for _, nodes := range []int{2, 3, 4} {
		for _, skewed := range []bool{false, true} {
			name := fmt.Sprintf("nodes=%d/skewed=%v", nodes, skewed)
			keys := make([]int, 1_000)
			for i := range keys {
				keys[i] = i
			}
			if skewed {
				keys = keysOwnedBy(0, nodes, stripes, 100)
			}
			build := tbl("b", len(keys), func(i int) any { return keys[i] }, func(i int) any { return i })
			probe := tbl("p", probeRows, func(i int) any { return keys[i%len(keys)] }, func(i int) any { return i })
			phys, err := compile(&Join{Build: &Scan{Table: build}, Probe: &Scan{Table: probe}})
			if err != nil {
				t.Fatal(err)
			}
			ns, err := newNodes(EngineConfig{Nodes: nodes, Workers: 1, Stripes: stripes, Batch: 64})
			if err != nil {
				t.Fatal(err)
			}
			mq := &ns.newQuery(context.Background(), phys, nil).mq
			root := phys.root
			var vs vecScratch
			// route emits a table's rows to op from node 0 and checks that each
			// activation's rows are its dest's.
			route := func(op *pop, tb *Table) (outs []*activation) {
				q := mq.frags[0]
				b := tb.Columnar()
				q.emitBatch(op, b, 0, b.N, &outs, &q.vscratch[0], &q.varenas[0])
				for _, a := range outs {
					in := a.input(&vs)
					kc := &in.Cols[op.keyCol]
					for i := 0; i < in.N; i++ {
						if k := kc.Value(kc.Pos(i)); OwnerNode(k, nodes, stripes) != a.dest {
							t.Fatalf("%s: key %v, owned by node %d, routed in an activation for node %d", name, k, OwnerNode(k, nodes, stripes), a.dest)
						}
					}
				}
				return outs
			}
			for _, a := range route(root.partner, build) {
				mq.frags[a.dest].process(a, 0)
			}
			for _, fq := range mq.frags {
				fq.process(&activation{op: root.partner, dest: fq.node, closing: true}, 0)
			}
			for _, fq := range mq.frags {
				fq.chain = root.chain
			}
			for _, a := range route(root, probe) {
				fq := mq.frags[a.dest]
				fq.ops[root.id].pushLocked(a)
			}
			thief := mq.frags[nodes-1]
			own := make(map[*activation]bool)
			for _, a := range thief.ops[root.id].acts {
				own[a] = true
			}
			if !mq.stealRound(thief, &thief.vscratch[0]) {
				t.Fatalf("%s: the steal round acquired nothing", name)
			}
			stolen := 0
			for _, a := range thief.ops[root.id].acts {
				if own[a] {
					continue
				}
				stolen++
				if a.dest == thief.node {
					t.Fatalf("%s: a stolen activation was re-addressed to the thief", name)
				}
				if _, out := thief.processProbeVec(a, 0); out == nil || out.N != a.hi-a.lo {
					t.Fatalf("%s: a stolen %d-row activation for node %d matched %+v, want one match a row", name, a.hi-a.lo, a.dest, out)
				}
			}
			if stolen == 0 {
				t.Fatalf("%s: no activation reached the thief's queue", name)
			}
		}
	}
}
