package exec

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// starPlan builds a distinct two-join star query whose shape and
// selectivity vary with seed, so concurrent queries are distinguishable.
func starPlan(seed, factRows int) Node {
	mod := 17 + seed%7
	fact := tbl(fmt.Sprintf("fact%d", seed), factRows,
		func(i int) any { return (i + seed) % mod },
		func(i int) any { return i })
	d1 := tbl(fmt.Sprintf("d1_%d", seed), mod, func(i int) any { return i },
		func(i int) any { return fmt.Sprintf("a%d-%d", seed, i) })
	d2 := tbl(fmt.Sprintf("d2_%d", seed), mod, func(i int) any { return i },
		func(i int) any { return fmt.Sprintf("b%d-%d", seed, i) })
	return &Join{
		Build: &Scan{Table: d2},
		Probe: &Join{
			Build:    &Scan{Table: d1},
			Probe:    &Scan{Table: fact},
			BuildKey: 0,
			ProbeKey: 0,
		},
		BuildKey: 0,
		ProbeKey: 0,
	}
}

// TestPoolConcurrentQueries runs N distinct queries on one resident pool
// from N goroutines and checks each result against its single-query
// reference run, with per-query stats isolated. Run under -race this is
// the engine's concurrency check.
func TestPoolConcurrentQueries(t *testing.T) {
	checkQueryHygiene(t)
	const n = 8
	pool := newNodesT(t, EngineConfig{Workers: 4})

	plans := make([]Node, n)
	want := make([][]Row, n)
	for i := range plans {
		plans[i] = starPlan(i, 3000+500*i)
		ref, _, err := runOnce(context.Background(), plans[i], nil, EngineConfig{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ref
	}

	got := make([][]Row, n)
	stats := make([]*Stats, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := pool.Submit(context.Background(), plans[i], nil, "")
			if err != nil {
				t.Error(err)
				return
			}
			rows := drainRows(h)
			if err := h.Err(); err != nil {
				t.Error(err)
				return
			}
			got[i], stats[i] = rows, h.Stats()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	ids := map[int64]bool{}
	for i := 0; i < n; i++ {
		sameRows(t, got[i], want[i])
		s := stats[i]
		if s.ResultRows != int64(len(got[i])) {
			t.Fatalf("query %d: stats.ResultRows=%d, streamed %d", i, s.ResultRows, len(got[i]))
		}
		var perWorker int64
		for _, v := range s.PerWorker {
			perWorker += v
		}
		if perWorker != s.Activations || s.Activations == 0 {
			t.Fatalf("query %d: per-worker sum %d vs activations %d", i, perWorker, s.Activations)
		}
		if len(s.PerWorker) != pool.Config().Workers {
			t.Fatalf("query %d: PerWorker sized %d, pool has %d workers", i, len(s.PerWorker), pool.Config().Workers)
		}
		if ids[s.QueryID] {
			t.Fatalf("duplicate QueryID %d", s.QueryID)
		}
		ids[s.QueryID] = true
	}
}

// TestPoolFairness submits a heavy query first and a light one second;
// with the fair cross-query pick the light query must complete while the
// heavy one is still running.
func TestPoolFairness(t *testing.T) {
	checkQueryHygiene(t)
	pool := newNodesT(t, EngineConfig{Workers: 4})

	heavy := starPlan(1, 400_000)
	light := starPlan(2, 2_000)

	hh, err := pool.Submit(context.Background(), heavy, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	go func() { // drain the heavy stream so its workers never stall
		drain(hh)
	}()

	hl, err := pool.Submit(context.Background(), light, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	drain(hl)
	if err := hl.Err(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-hh.Done():
		t.Log("heavy query finished before light one; fairness not observable on this host")
	default:
		// The light query finished while the heavy one was still in
		// flight: a shared pool serving a heavy join did not starve it.
	}
	if err := hh.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestStalledConsumerDoesNotCapturePool stalls one query's consumer
// completely and checks another query still completes: the stalled
// query's production pauses and holds no worker.
func TestStalledConsumerDoesNotCapturePool(t *testing.T) {
	checkQueryHygiene(t)
	pool := newNodesT(t, EngineConfig{Workers: 4})

	// A large-result query whose consumer never reads: its result queue
	// fills and stays full.
	stalled, err := pool.Submit(context.Background(), starPlan(8, 300_000), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	// Give workers time to fill the stalled query's queue.
	time.Sleep(50 * time.Millisecond)

	done := make(chan error, 1)
	go func() {
		h, err := pool.Submit(context.Background(), starPlan(9, 20_000), nil, "")
		if err != nil {
			done <- err
			return
		}
		drain(h)
		done <- h.Err()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("query starved behind a stalled consumer")
	}
	stalled.Cancel()
	drain(stalled)
}

// TestStalledConsumerCostsNoWorker stalls a query's consumer completely:
// once the query's result queue holds its bound, production pauses and
// every worker sleeps — none waits on the consumer, none polls for it —
// and the queue never grows past the bound plus one batch per worker
// (the activations in flight when it filled).
func TestStalledConsumerCostsNoWorker(t *testing.T) {
	checkQueryHygiene(t)
	const workers = 4
	ns := newNodesT(t, EngineConfig{Workers: workers})
	h, err := ns.Submit(context.Background(), starPlan(8, 300_000), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	p, mq := ns.pools[0], &h.mq
	sample := func() (asleep, queued int) {
		p.mu.Lock()
		asleep = p.waiting
		p.mu.Unlock()
		mq.mu.Lock()
		queued = len(mq.out) - mq.head
		mq.mu.Unlock()
		return asleep, queued
	}
	deadline := time.Now().Add(10 * time.Second)
	for asleep, queued := sample(); asleep != workers || queued < mq.bound; asleep, queued = sample() {
		if time.Now().After(deadline) {
			t.Fatalf("10 s after the consumer stalled: %d of %d workers asleep, %d of %d batches queued", asleep, workers, queued, mq.bound)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		asleep, queued := sample()
		if asleep != workers {
			t.Fatalf("sample %d: %d of %d workers asleep beside a stalled consumer", i, asleep, workers)
		}
		if queued > mq.bound+workers {
			t.Fatalf("sample %d: %d batches queued, bound %d + %d workers", i, queued, mq.bound, workers)
		}
		time.Sleep(time.Millisecond)
	}
	h.Cancel()
	drain(h)
}

// TestLiveConsumerBesideStalledOnes stalls more consumers than the pool
// has workers and checks a query with a live consumer still completes:
// a stalled consumer pauses its own query and holds no worker.
func TestLiveConsumerBesideStalledOnes(t *testing.T) {
	checkQueryHygiene(t)
	const workers = 4
	pool := newNodesT(t, EngineConfig{Workers: workers})
	var stalled []*Handle
	for i := 0; i < workers+1; i++ {
		h, err := pool.Submit(context.Background(), starPlan(20+i, 50_000), nil, "")
		if err != nil {
			t.Fatal(err)
		}
		stalled = append(stalled, h) // never read
	}
	for _, h := range stalled { // let their queues fill
		for !h.mq.paused.Load() {
			time.Sleep(time.Millisecond)
		}
	}

	done := make(chan error, 1)
	go func() {
		h, err := pool.Submit(context.Background(), starPlan(30, 100_000), nil, "")
		if err != nil {
			done <- err
			return
		}
		drain(h)
		done <- h.Err()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("live consumer starved by stalled consumers")
	}
	for _, h := range stalled {
		h.Cancel()
		drain(h)
	}
}

// TestUndrainedGroupByDoesNotWedgePool: a completed GroupBy query whose
// consumer never reads must hold no worker, and Close must still return
// (regression: the merge's sink sends used to block a retired worker
// that Close could no longer abort).
func TestUndrainedGroupByDoesNotWedgePool(t *testing.T) {
	checkQueryHygiene(t)
	pool, err := NewNodesConfig(EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// ~5000 groups -> 5 batches of 1 024, beyond the queue bound of 4; never read.
	gb := &GroupBy{Key: 0, Aggs: []Aggregation{{Func: Count}}}
	if _, err := pool.Submit(context.Background(), aggPlan(20_000, 5000), gb, ""); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let it complete and merge
	// Another query must still complete on the remaining workers.
	h, err := pool.Submit(context.Background(), starPlan(10, 5_000), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	drain(h)
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	// And Close must return with the undrained group-by's output unread.
	done := make(chan struct{})
	go func() {
		pool.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close hung on an undrained group-by query")
	}
}

// TestFinishedGroupByFreesSlotUnread: a group-by whose groups are all
// queued retires although nobody has read them — on a one-slot engine
// the next query is admitted and completes, and a governed node's memory
// account reads zero again — and every group is still there
// to read afterwards. On one and two nodes, ungoverned and governed.
func TestFinishedGroupByFreesSlotUnread(t *testing.T) {
	const groups = 5_000
	plan := aggPlan(20_000, groups)
	gb := &GroupBy{Key: 0, Aggs: []Aggregation{{Func: Count}}}
	for _, nodes := range []int{1, 2} {
		for _, budget := range []int64{0, 64 << 10} {
			t.Run(fmt.Sprintf("nodes=%d/mem=%d", nodes, budget), func(t *testing.T) {
				checkQueryHygiene(t)
				ns := newNodesT(t, EngineConfig{Nodes: nodes, Workers: 2, MaxConcurrentQueries: 1,
					MemoryPerNode: budget, SpillDir: t.TempDir()})
				unread, err := ns.Submit(context.Background(), plan, gb, "")
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				h, err := ns.Submit(ctx, starPlan(10, 5_000), nil, "")
				if err != nil {
					t.Fatalf("next query not admitted beside a finished, unread group-by: %v", err)
				}
				drain(h)
				if err := h.Err(); err != nil {
					t.Fatal(err)
				}
				verifyMemSettled(t, ns) // with the group-by unread
				got := drainRows(unread)
				if err := unread.Err(); err != nil {
					t.Fatal(err)
				}
				if len(got) != groups {
					t.Fatalf("read %d groups, want %d", len(got), groups)
				}
			})
		}
	}
}

// TestUnreadQueriesAddNoGoroutines: a query's cancellation costs no
// goroutine — 64 in-flight queries nobody reads run on the engine's
// workers alone — and cancelling their context still ends every one.
func TestUnreadQueriesAddNoGoroutines(t *testing.T) {
	checkQueryHygiene(t)
	ns := newNodesT(t, EngineConfig{Workers: 2})
	plan := starPlan(11, 20_000) // 20 result batches: production pauses at 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := runtime.NumGoroutine()
	hs := make([]*Handle, 64)
	for i := range hs {
		h, err := ns.Submit(ctx, plan, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	if n := runtime.NumGoroutine(); n > base+2 {
		t.Fatalf("%d unread queries added %d goroutines to the engine's %d", len(hs), n-base, base)
	}
	cancel()
	for i, h := range hs {
		drain(h)
		if err := h.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("query %d: %v, want context.Canceled", i, err)
		}
	}
}

// TestPoolCloseAbortsInflight closes the pool mid-query and checks the
// query's stream terminates promptly with ErrClosed.
func TestPoolCloseAbortsInflight(t *testing.T) {
	checkQueryHygiene(t)
	pool, err := NewNodesConfig(EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h, err := pool.Submit(context.Background(), starPlan(3, 500_000), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		drain(h)
		done <- h.Err()
	}()
	pool.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("aborted query reported %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query did not terminate after pool Close")
	}
	if _, err := pool.Submit(context.Background(), starPlan(4, 10), nil, ""); err != ErrClosed {
		t.Fatalf("Submit on closed pool returned %v, want ErrClosed", err)
	}
}

// TestMaxConcurrentQueries checks the admission bound: with one slot, a
// second Submit blocks until the first query retires.
func TestMaxConcurrentQueries(t *testing.T) {
	checkQueryHygiene(t)
	pool := newNodesT(t, EngineConfig{Workers: 2, MaxConcurrentQueries: 1})

	h1, err := pool.Submit(context.Background(), starPlan(5, 50_000), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	// While query 1 holds the only slot, a second Submit must respect
	// its context deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := pool.Submit(ctx, starPlan(6, 10), nil, ""); err != context.DeadlineExceeded {
		t.Fatalf("admission-blocked Submit returned %v, want DeadlineExceeded", err)
	}
	drain(h1)
	if err := h1.Err(); err != nil {
		t.Fatal(err)
	}
	// Slot released: the next query is admitted and completes.
	h2, err := pool.Submit(context.Background(), starPlan(7, 1000), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	drain(h2)
	if err := h2.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolGroupByStreams runs a grouped aggregation through the resident
// pool and compares against a reference run.
func TestPoolGroupByStreams(t *testing.T) {
	checkQueryHygiene(t)
	pool := newNodesT(t, EngineConfig{Workers: 4})
	plan := aggPlan(5000, 7)
	gb := &GroupBy{Key: 0, Aggs: []Aggregation{
		{Func: Count},
		{Func: Sum, Arg: func(r Row) float64 { return float64(r[1].(int)) }},
	}}
	want, _, err := runOnce(context.Background(), plan, gb, EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	h, err := pool.Submit(context.Background(), plan, gb, "")
	if err != nil {
		t.Fatal(err)
	}
	got := drainRows(h)
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	for i := range got {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("group %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestRootScanStreams checks that a scan-only query streams its
// (filtered) rows — the resident API must serve more than joins.
func TestRootScanStreams(t *testing.T) {
	checkQueryHygiene(t)
	pool := newNodesT(t, EngineConfig{Workers: 2})
	table := tbl("t", 10_000, func(i int) any { return i }, func(i int) any { return i })
	h, err := pool.Submit(context.Background(),
		&Scan{Table: table, Filter: func(r Row) bool { return r[0].(int)%4 == 0 }}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for batch, ok := h.Next(); ok; batch, ok = h.Next() {
		n += batch.N
	}
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 2500 {
		t.Fatalf("root scan streamed %d rows, want 2500", n)
	}
}

// panicKey is a group key whose String method panics. fmt recovers a
// panicking String method and prints the panic value in its place, so
// the value is a keyPanic, whose own String panics while fmt prints it:
// a nested panic, which fmt lets through.
type panicKey int

func (panicKey) String() string { panic(keyPanic{}) }

type keyPanic struct{}

func (keyPanic) String() string { panic("user code blew up") }

// TestPanicContainment: a panic in user code — a scan Filter or an
// aggregate Arg, the two closures a plan carries, both run only under an
// activation, or a group key's String method, which the group-by merge
// activation calls to order the groups — fails that query with
// ErrQueryPanic and nothing else: the engine serves the next query, no
// goroutine, memory charge or spill file is left behind — on a governed
// engine its node's memory account reads zero again — and the
// panicking activation is counted once, per worker and in total. Swept
// over one and two nodes, ungoverned and spilling.
func TestPanicContainment(t *testing.T) {
	const buildRows, probeRows = 4_000, 40_000
	build := tbl("pb", buildRows, func(i int) any { return i }, func(i int) any { return fmt.Sprintf("b%d", i) })
	probe := tbl("pp", probeRows, func(i int) any { return i % buildRows }, func(i int) any { return i })
	// bad panics on one value in the middle of the data, so the query has
	// state in flight — queued activations, a half-built table, spill
	// files — when it fails.
	bad := func(v any) {
		if v.(int) == buildRows/2 {
			panic("user code blew up")
		}
	}
	join := func() *Join {
		return &Join{Build: &Scan{Table: build}, Probe: &Scan{Table: probe}, BuildKey: 0, ProbeKey: 0}
	}
	cases := map[string]func() (Node, *GroupBy){
		"Filter": func() (Node, *GroupBy) {
			j := join()
			j.Probe = &Scan{Table: probe, Filter: func(r Row) bool { bad(r[1]); return true }}
			return j, nil
		},
		"Arg": func() (Node, *GroupBy) {
			return join(), &GroupBy{Key: 0, Aggs: []Aggregation{
				{Func: Sum, Arg: func(r Row) float64 { bad(r[1]); return 1 }}}}
		},
		// Four groups of a scan: nothing spills (a panicKey is not
		// spill-encodable), and every fold succeeds — the panic comes in the
		// last node's merge.
		"String": func() (Node, *GroupBy) {
			keys := tbl("pk", probeRows, func(i int) any { return panicKey(i % 4) }, func(i int) any { return i })
			return &Scan{Table: keys}, &GroupBy{Key: 0, Aggs: []Aggregation{{Func: Count}}}
		},
	}
	for name, mk := range cases {
		for _, nodes := range []int{1, 2} {
			for _, budget := range []int64{0, 64 << 10} {
				t.Run(fmt.Sprintf("%s/nodes=%d/mem=%d", name, nodes, budget), func(t *testing.T) {
					checkQueryHygiene(t)
					dir := t.TempDir()
					ns := newNodesT(t, EngineConfig{Nodes: nodes, Workers: 2, MemoryPerNode: budget, SpillDir: dir})
					root, gb := mk()
					h, err := ns.Submit(context.Background(), root, gb, "")
					if err != nil {
						t.Fatal(err)
					}
					drain(h)
					if err := h.Err(); !errors.Is(err, ErrQueryPanic) || !strings.Contains(err.Error(), "user code blew up") {
						t.Fatalf("query ended with %v, want ErrQueryPanic carrying the panic value", err)
					}
					// The panicking activation is counted once, like any other.
					st := h.Stats()
					var perWorker int64
					for _, v := range st.PerWorker {
						perWorker += v
					}
					if perWorker != st.Activations {
						t.Fatalf("%d activations, %d per worker", st.Activations, perWorker)
					}
					if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
						t.Fatalf("spill dir not empty after the failed query: %v, %v", left, err)
					}
					verifyMemSettled(t, ns)
					verifyIdle(t, ns)
				})
			}
		}
	}
}

// BenchmarkActivationRoundTrip is the fixed scheduling cost of one data
// activation on one node, which a larger Batch amortizes over more rows:
// the producer's pool.mu round that queues it (deliverOuts: pushLocked,
// wakeLocked) and the worker's pool.mu round that selects and pops it
// (pool.pickLocked over the node's fragments, query.pickLocked over the
// current chain, popNewestLocked). It is plan.Costs.QueueOp plus
// plan.Costs.Select of the simulator, measured; the activation itself
// is not run. Workers are not started, so nothing contends the mutex.
func BenchmarkActivationRoundTrip(b *testing.B) {
	id := func(i int) any { return i }
	phys, err := compile(&Join{Build: &Scan{Table: tbl("d", 8, id, id)}, Probe: &Scan{Table: tbl("f", 8, id, id)}})
	if err != nil {
		b.Fatal(err)
	}
	ns, err := newNodes(EngineConfig{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	q := ns.newQuery(context.Background(), phys, nil).mq.frags[0]
	p := q.pool
	p.queries = append(p.queries, q)
	op := phys.chains[q.chain][0]
	a := &activation{op: op, hi: 8}
	var anchor *query
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.mu.Lock()
		q.ops[op.id].pushLocked(a)
		p.wakeLocked(q, 1)
		p.mu.Unlock()
		p.mu.Lock()
		_, got := p.pickLocked(0, &anchor)
		p.mu.Unlock()
		if got != a {
			b.Fatal("the worker did not pick the queued activation")
		}
	}
}
