package exec

// Tests for a node's memory account: charges and headroom exact at the
// budget with two fragments on one node, the race-stressed conservation
// of the node total across fragments charging, spilling and retiring, a
// chunk released after its fragment retired, and concurrent queries
// sharing one node's bytes.

import (
	"context"
	"errors"
	"sync"
	"testing"

	"hierdb/internal/vec"
	"hierdb/internal/xrand"
)

// accountFragments returns a fragment factory for a one-node engine of
// budget bytes whose workers never start: each call builds the fragment
// of a fresh, unsubmitted query of one compiled plan. Every fragment it
// returns charges the same node account.
func accountFragments(t testing.TB, budget int64) func() *query {
	t.Helper()
	phys, err := compile(cancelPlan(10))
	if err != nil {
		t.Fatal(err)
	}
	ns, err := newNodes(EngineConfig{Workers: 1, MemoryPerNode: budget, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return func() *query { return ns.newQuery(context.Background(), phys, nil).mq.frags[0] }
}

// nodeHeadroom is what no fragment on q's node has charged.
func nodeHeadroom(q *query) int64 { return q.mem.budget - q.mem.used.Load() }

// TestNodeAccountExactAtBudget: a node's budget is one count its
// fragments share exactly. With fragment A holding 1 000 B, fragment B
// is granted the rest of the budget to the byte, one byte more is
// denied (and, uncharged, leaks nothing), and both fragments read the
// same headroom, budget less the node's total, at every step.
func TestNodeAccountExactAtBudget(t *testing.T) {
	const budget = 256 << 10
	frag := accountFragments(t, budget)
	a, b := frag(), frag()
	headroom := func(step string, want int64) {
		t.Helper()
		if ha, hb := nodeHeadroom(a), nodeHeadroom(b); ha != want || hb != want {
			t.Fatalf("%s: headroom A %d, B %d, want budget - used = %d", step, ha, hb, want)
		}
	}
	if a.chargeMem(1_000) {
		t.Fatal("A's 1 000 B denied on an idle node")
	}
	headroom("A holds 1 000 B", budget-1_000)
	if b.chargeMem(budget - 1_000) {
		t.Fatalf("B's charge of the node's last %d B denied", budget-1_000)
	}
	headroom("the node is full", 0)
	if !b.chargeMem(1) {
		t.Fatal("one byte past the budget granted")
	}
	headroom("one byte over", -1)
	b.unchargeMem(1)
	headroom("the denied byte returned", 0)
	a.unchargeMem(1_000)
	headroom("A released", 1_000)
	b.unchargeMem(budget - 1_000)
	headroom("both released", budget)
}

// TestNodeAccountConservation race-stresses one node's account with
// fragments charging (a charge past the budget spills: the fragment's
// usage collapses to a quarter), releasing half their usage, and
// retiring through finalize, a fresh fragment taking the retired one's
// place. The node total never reads negative; at quiescence it is the
// sum of the live fragments' memUsed, and once they retire it is zero.
// Run under -race this is the account's concurrency check.
func TestNodeAccountConservation(t *testing.T) {
	const fragments = 8
	const iters = 2000
	const chunk = 64 << 10
	frag := accountFragments(t, fragments*3*chunk) // contended: ~3 chunks each
	acct := frag().mem
	live := make([]*query, fragments)

	stop := make(chan struct{})
	negative := make(chan int64, 1)
	go func() {
		defer close(negative)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if used := acct.used.Load(); used < 0 {
				negative <- used
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for f := 0; f < fragments; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			r := xrand.New(uint64(f) + 1)
			q := frag()
			for i := 0; i < iters; i++ {
				switch r.Intn(4) {
				case 0, 1: // grow, possibly past the budget (the spill decision)
					if q.chargeMem(r.Int63n(chunk) + 1) {
						q.unchargeMem(q.memUsed.Load() - q.memUsed.Load()/4)
					}
				case 2: // release half
					q.unchargeMem(q.memUsed.Load() / 2)
				case 3: // the fragment retires and a new one takes its place
					q.finalize()
					q = frag()
				}
			}
			live[f] = q
		}(f)
	}
	wg.Wait()
	close(stop)
	if used, ok := <-negative; ok {
		t.Fatalf("node account read %d bytes", used)
	}
	var sum int64
	for _, q := range live {
		sum += q.memUsed.Load()
	}
	if used := acct.used.Load(); used != sum {
		t.Fatalf("node account %d bytes at quiescence, fragments hold %d", used, sum)
	}
	for _, q := range live {
		q.finalize()
	}
	if used := acct.used.Load(); used != 0 {
		t.Fatalf("node account %d bytes after every fragment retired", used)
	}
}

// TestChunkReleasedAfterRetirement: an abort retires a fragment as soon
// as it has nothing in flight, while a worker on another node may still
// run an activation holding the last reference to one of the fragment's
// chunks. Retirement settles the chunk's bytes with the node; the late
// release must not return them a second time, nor may a late charge
// reach the node.
func TestChunkReleasedAfterRetirement(t *testing.T) {
	const budget = 256 << 10
	frag := accountFragments(t, budget)
	q := frag()
	acct := q.mem
	res := &chunkRes{q: q, bytes: 4 << 10}
	q.chargeMem(res.bytes)
	res.refs.Store(1) // held by an activation still running elsewhere
	q.finalize()
	if used := acct.used.Load(); used != 0 {
		t.Fatalf("node account %d bytes after the chunk's fragment retired", used)
	}
	res.release()
	q.chargeMem(1 << 10)
	if used := acct.used.Load(); used != 0 {
		t.Fatalf("node account %d bytes after a release and a charge on a retired fragment", used)
	}
	if h := nodeHeadroom(frag()); h != budget {
		t.Fatalf("a fresh fragment's headroom %d, want the whole budget %d", h, budget)
	}
}

// TestCancelledFileJoinSettlesNodes cancels a governed two-node join over
// a file-backed probe table mid-stream, again and again. Every probe
// chunk is charged to the fragment that scanned it, and its routed
// activations carry that charge to the other node, so a cancel often
// retires a chunk's fragment while the other node still holds the
// chunk. After each cancelled query, and after Close, every node's
// account must read zero.
func TestCancelledFileJoinSettlesNodes(t *testing.T) {
	checkQueryHygiene(t)
	build := tbl("cb", 2_000, func(i int) any { return i }, func(i int) any { return i })
	probe := fileTable(t, tbl("cp", 40_000, func(i int) any { return i % 2_000 }, func(i int) any { return i }), 256)
	plan := &Join{Build: &Scan{Table: build}, Probe: &Scan{Table: probe}, BuildKey: 0, ProbeKey: 0}
	ns := newNodesT(t, EngineConfig{Nodes: 2, Workers: 2, MemoryPerNode: 1 << 20, SpillDir: t.TempDir()})
	for i := 0; i < 40; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		h, err := ns.Submit(ctx, plan, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := h.Next(); !ok {
			t.Fatalf("query %d delivered nothing: %v", i, h.Err())
		}
		cancel()
		drain(h)
		if err := h.Err(); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("query %d: %v", i, err)
		}
		verifyMemSettled(t, ns)
	}
}

// TestConcurrentQueriesShareNodeMemory: a node's budget is one account
// its in-flight queries share. Query A's build side stays charged while
// A's consumer stops reading mid-stream, so query B — whose build fits
// the budget on its own — finds the rest of the node's bytes too few and
// spills. Both return the ungoverned result, and once both retire the
// node's account reads zero.
func TestConcurrentQueriesShareNodeMemory(t *testing.T) {
	checkQueryHygiene(t)
	planA, planB := govPlan(3_000, 200_000), govPlan(4_000, 8_000)
	// B's build side and half of A's: B fits alone, not beside A.
	sideA, sideB := sideBytes(planA.(*Join).Build.(*Scan).Table), sideBytes(planB.(*Join).Build.(*Scan).Table)
	budget := sideB + sideA/2
	wantA, _, err := runOnce(context.Background(), planA, nil, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wantB, _, err := runOnce(context.Background(), planB, nil, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := EngineConfig{Workers: 2, MemoryPerNode: budget, SpillDir: t.TempDir()}
	if _, alone, err := runOnce(context.Background(), planB, nil, cfg); err != nil || alone.SpilledPartitions != 0 {
		t.Fatalf("B alone under the budget: %+v, %v — the fixture wants it to fit", alone, err)
	}

	ns := newNodesT(t, cfg)
	hA, err := ns.Submit(context.Background(), planA, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	first, ok := hA.Next() // A is probing: its build side is sealed and charged
	if !ok {
		t.Fatalf("A delivered nothing: %v", hA.Err())
	}
	var arena vec.Arena
	gotA := first.AppendRows(nil, &arena)
	if used := hA.mq.frags[0].memUsed.Load(); used != sideA {
		t.Fatalf("A's resident build side holds %d charged bytes mid-stream, want its %d", used, sideA)
	}

	hB, err := ns.Submit(context.Background(), planB, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, collectHandle(t, hB), wantB)
	if st := hB.Stats(); st.SpilledPartitions == 0 {
		t.Fatalf("B did not spill beside A's charged build side: %+v", st)
	}

	for b, ok := hA.Next(); ok; b, ok = hA.Next() {
		gotA = b.AppendRows(gotA, &arena)
	}
	if err := hA.Err(); err != nil {
		t.Fatal(err)
	}
	sameRows(t, gotA, wantA)
	if used := ns.pools[0].mem.used.Load(); used != 0 {
		t.Fatalf("%d bytes still charged to the node after both queries retired", used)
	}
}
