package exec

import (
	"context"
	"errors"
	"fmt"
	"os"
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
	pool, err := NewNodes(1, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	plans := make([]Node, n)
	want := make([][]Row, n)
	for i := range plans {
		plans[i] = starPlan(i, 3000+500*i)
		ref, _, err := runOnce(context.Background(), plans[i], nil, Options{Workers: 2})
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
			h, err := pool.Submit(context.Background(), plans[i], Options{})
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
		if len(s.PerWorker) != pool.Workers() {
			t.Fatalf("query %d: PerWorker sized %d, pool has %d workers", i, len(s.PerWorker), pool.Workers())
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
	pool, err := NewNodes(1, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	heavy := starPlan(1, 400_000)
	light := starPlan(2, 2_000)

	hh, err := pool.Submit(context.Background(), heavy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	go func() { // drain the heavy stream so its workers never stall
		for range hh.Out() {
		}
	}()

	hl, err := pool.Submit(context.Background(), light, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for range hl.Out() {
	}
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
// completely and checks another query still completes: workers blocked
// on the stalled sink are capped at the query's fair share.
func TestStalledConsumerDoesNotCapturePool(t *testing.T) {
	checkQueryHygiene(t)
	pool, err := NewNodes(1, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// A large-result query whose consumer never reads: its sink fills
	// and stays full.
	stalled, err := pool.Submit(context.Background(), starPlan(8, 300_000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Give workers time to fill the stalled sink and block on it.
	time.Sleep(50 * time.Millisecond)

	done := make(chan error, 1)
	go func() {
		h, err := pool.Submit(context.Background(), starPlan(9, 20_000), Options{})
		if err != nil {
			done <- err
			return
		}
		for range h.Out() {
		}
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
	for range stalled.Out() {
	}
}

// TestFlushSlotsRotateAmongStalledConsumers exhausts every flush slot
// with stalled consumers (workers-1 of them) and checks a query with a
// live consumer still completes: flushers surrender their slot after a
// bounded hold, so slots rotate instead of being pinned forever.
func TestFlushSlotsRotateAmongStalledConsumers(t *testing.T) {
	checkQueryHygiene(t)
	pool, err := NewNodes(1, 4, 0) // flushCap = 3
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var stalled []*Handle
	for i := 0; i < 3; i++ {
		h, err := pool.Submit(context.Background(), starPlan(20+i, 200_000), Options{})
		if err != nil {
			t.Fatal(err)
		}
		stalled = append(stalled, h) // never read
	}
	time.Sleep(100 * time.Millisecond) // let their sinks fill and flushes claim slots

	done := make(chan error, 1)
	go func() {
		h, err := pool.Submit(context.Background(), starPlan(30, 100_000), Options{})
		if err != nil {
			done <- err
			return
		}
		for range h.Out() {
		}
		done <- h.Err()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("live consumer starved: flush slots pinned by stalled consumers")
	}
	for _, h := range stalled {
		h.Cancel()
		for range h.Out() {
		}
	}
}

// TestUndrainedGroupByDoesNotWedgePool: a completed GroupBy query whose
// consumer never reads must not capture workers outside the flusher cap,
// and Close must still return (regression: the merge's sink sends
// used to block a retired worker that Close could no longer abort).
func TestUndrainedGroupByDoesNotWedgePool(t *testing.T) {
	checkQueryHygiene(t)
	pool, err := NewNodes(1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// ~5000 groups -> ~20 batches, far beyond the sink bound; never read.
	gb := &GroupBy{Key: 0, Aggs: []Aggregation{{Func: Count}}}
	if _, err := pool.SubmitGroupBy(context.Background(), aggPlan(20_000, 5000), gb, Options{}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let it complete, merge, and stall on delivery
	// Another query must still complete on the remaining workers.
	h, err := pool.Submit(context.Background(), starPlan(10, 5_000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for range h.Out() {
	}
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	// And Close must abort the undrained group-by instead of hanging.
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

// TestPoolCloseAbortsInflight closes the pool mid-query and checks the
// query's stream terminates promptly with ErrClosed.
func TestPoolCloseAbortsInflight(t *testing.T) {
	checkQueryHygiene(t)
	pool, err := NewNodes(1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := pool.Submit(context.Background(), starPlan(3, 500_000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for range h.Out() {
		}
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
	if _, err := pool.Submit(context.Background(), starPlan(4, 10), Options{}); err != ErrClosed {
		t.Fatalf("Submit on closed pool returned %v, want ErrClosed", err)
	}
}

// TestMaxConcurrentQueries checks the admission bound: with one slot, a
// second Submit blocks until the first query retires.
func TestMaxConcurrentQueries(t *testing.T) {
	checkQueryHygiene(t)
	pool, err := NewNodes(1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	h1, err := pool.Submit(context.Background(), starPlan(5, 50_000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// While query 1 holds the only slot, a second Submit must respect
	// its context deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := pool.Submit(ctx, starPlan(6, 10), Options{}); err != context.DeadlineExceeded {
		t.Fatalf("admission-blocked Submit returned %v, want DeadlineExceeded", err)
	}
	for range h1.Out() {
	}
	if err := h1.Err(); err != nil {
		t.Fatal(err)
	}
	// Slot released: the next query is admitted and completes.
	h2, err := pool.Submit(context.Background(), starPlan(7, 1000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for range h2.Out() {
	}
	if err := h2.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolGroupByStreams runs a grouped aggregation through the resident
// pool and compares against a reference run.
func TestPoolGroupByStreams(t *testing.T) {
	checkQueryHygiene(t)
	pool, err := NewNodes(1, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	plan := aggPlan(5000, 7)
	gb := &GroupBy{Key: 0, Aggs: []Aggregation{
		{Func: Count},
		{Func: Sum, Arg: func(r Row) float64 { return float64(r[1].(int)) }},
	}}
	want, _, err := runOnce(context.Background(), plan, gb, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	h, err := pool.SubmitGroupBy(context.Background(), plan, gb, Options{})
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
	pool, err := NewNodes(1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	table := tbl("t", 10_000, func(i int) any { return i }, func(i int) any { return i })
	h, err := pool.Submit(context.Background(),
		&Scan{Table: table, Filter: func(r Row) bool { return r[0].(int)%4 == 0 }}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for batch := range h.Out() {
		n += batch.N
	}
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 2500 {
		t.Fatalf("root scan streamed %d rows, want 2500", n)
	}
}

// TestPanicContainment: a panic in user code — a scan Filter or an
// aggregate Arg, the two closures a plan carries, both run only under an
// activation — fails that query with ErrQueryPanic and nothing else: the
// engine serves the next query, no goroutine, lease or spill file is
// left behind. Swept over one and two nodes, ungoverned and spilling
// under a memory broker.
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
	}
	for name, mk := range cases {
		for _, nodes := range []int{1, 2} {
			for _, budget := range []int64{0, 64 << 10} {
				t.Run(fmt.Sprintf("%s/nodes=%d/mem=%d", name, nodes, budget), func(t *testing.T) {
					checkQueryHygiene(t)
					ns, err := NewNodesConfig(EngineConfig{Nodes: nodes, Workers: 2, BrokerMemory: budget})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(ns.Close)
					dir := t.TempDir()
					root, gb := mk()
					opt := Options{MemoryPerNode: budget, SpillDir: dir}
					var h *Handle
					if gb != nil {
						h, err = ns.SubmitGroupBy(context.Background(), root, gb, opt)
					} else {
						h, err = ns.Submit(context.Background(), root, opt)
					}
					if err != nil {
						t.Fatal(err)
					}
					for range h.Out() {
					}
					if err := h.Err(); !errors.Is(err, ErrQueryPanic) || !strings.Contains(err.Error(), "user code blew up") {
						t.Fatalf("query ended with %v, want ErrQueryPanic carrying the panic value", err)
					}
					if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
						t.Fatalf("spill dir not empty after the failed query: %v, %v", left, err)
					}
					for i, p := range ns.pools {
						if b := p.broker; b != nil && b.available() != b.budget {
							t.Fatalf("node %d: %d of %d broker bytes still leased", i, b.budget-b.available(), b.budget)
						}
					}
					verifyIdle(t, ns)
				})
			}
		}
	}
}
