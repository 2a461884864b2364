package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// newNodesT builds an engine of configuration cfg and closes it with the
// test.
func newNodesT(t testing.TB, cfg EngineConfig) *Nodes {
	t.Helper()
	ns, err := NewNodesConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ns.Close)
	return ns
}

func collectHandle(t *testing.T, h *Handle) []Row {
	t.Helper()
	out := drainRows(h)
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMultiNodeMatchesSingleNode: the same plans on 1, 2 and 4 nodes
// must produce identical result sets (stream order aside) and identical
// per-operator row counts, including a chained two-join plan whose
// intermediate rows re-partition on a different key; the one-node run
// has the documented one-node stats shape.
func TestMultiNodeMatchesSingleNode(t *testing.T) {
	checkQueryHygiene(t)
	dim := tbl("dim", 700, func(i int) any { return i }, func(i int) any { return fmt.Sprintf("d%d", i) })
	mid := tbl("mid", 900, func(i int) any { return i % 700 }, func(i int) any { return i * 3 })
	fact := tbl("fact", 9000, func(i int) any { return i % 700 }, func(i int) any { return i })
	plans := map[string]func() Node{
		"join": func() Node {
			return &Join{Build: &Scan{Table: dim}, Probe: &Scan{Table: fact},
				BuildKey: 0, ProbeKey: 0}
		},
		"chained": func() Node {
			inner := &Join{Build: &Scan{Table: dim}, Probe: &Scan{Table: mid},
				BuildKey: 0, ProbeKey: 0}
			// The second join keys on the payload column of mid (i*3),
			// so intermediate rows route differently than their first
			// partitioning.
			return &Join{Build: &Scan{Table: fact, Filter: func(r Row) bool { return r[1].(int)%3 == 0 }},
				Probe: inner, BuildKey: 1, ProbeKey: 1}
		},
		"filtered-scan": func() Node {
			return &Scan{Table: fact, Filter: func(r Row) bool { return r[1].(int)%7 == 0 }}
		},
	}
	for name, mk := range plans {
		t.Run(name, func(t *testing.T) {
			want, ref, err := runOnce(context.Background(), mk(), nil, EngineConfig{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 2, 4} {
				ns := newNodesT(t, EngineConfig{Nodes: n, Workers: 2})
				h, err := ns.Submit(context.Background(), mk(), nil, "")
				if err != nil {
					t.Fatal(err)
				}
				got := collectHandle(t, h)
				sameRows(t, got, want)
				st := h.Stats()
				if int(st.ResultRows) != len(want) {
					t.Fatalf("%d nodes: ResultRows %d, want %d", n, st.ResultRows, len(want))
				}
				if len(st.PerWorker) != n*ns.Config().Workers {
					t.Fatalf("%d nodes: PerWorker has %d entries, want %d", n, len(st.PerWorker), n*ns.Config().Workers)
				}
				if fmt.Sprint(st.OpRows) != fmt.Sprint(ref.OpRows) {
					t.Fatalf("%d nodes: OpRows %v, want %v as on the reference run", n, st.OpRows, ref.OpRows)
				}
				if n == 1 {
					// One node is the hierarchy without its upper level:
					// no per-node breakdown, nothing shipped, nothing stolen.
					if st.Nodes != nil || st.RowsRedistributed != 0 || st.StealRounds != 0 {
						t.Fatalf("one-node stats carry multi-node fields: %+v", st)
					}
					continue
				}
				if len(st.Nodes) != n {
					t.Fatalf("Stats.Nodes has %d entries, want %d", len(st.Nodes), n)
				}
				var acts, rows int64
				for _, nst := range st.Nodes {
					acts += nst.Activations
					rows += nst.ResultRows
				}
				if acts != st.Activations || rows != st.ResultRows {
					t.Fatalf("per-node stats do not sum: %d/%d acts, %d/%d rows",
						acts, st.Activations, rows, st.ResultRows)
				}
			}
		})
	}
}

// TestMultiNodeGroupBy: per-node partial merge then global merge must
// equal the single-node aggregation, deterministically ordered.
func TestMultiNodeGroupBy(t *testing.T) {
	checkQueryHygiene(t)
	dim := tbl("dim", 40, func(i int) any { return i }, func(i int) any { return fmt.Sprintf("g%d", i%6) })
	fact := tbl("fact", 8000, func(i int) any { return i % 40 }, func(i int) any { return i })
	mk := func() Node {
		return &Join{Build: &Scan{Table: dim}, Probe: &Scan{Table: fact},
			BuildKey: 0, ProbeKey: 0}
	}
	gb := &GroupBy{
		Key: 3, // dim payload g0..g5
		Aggs: []Aggregation{
			{Func: Count},
			{Func: Sum, Arg: func(r Row) float64 { return float64(r[1].(int)) }},
			{Func: Min, Arg: func(r Row) float64 { return float64(r[1].(int)) }},
			{Func: Max, Arg: func(r Row) float64 { return float64(r[1].(int)) }},
		},
	}
	want, _, err := runOnce(context.Background(), mk(), gb, EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3} {
		ns := newNodesT(t, EngineConfig{Nodes: n, Workers: 2})
		h, err := ns.Submit(context.Background(), mk(), gb, "")
		if err != nil {
			t.Fatal(err)
		}
		got := collectHandle(t, h)
		if len(got) != len(want) {
			t.Fatalf("%d nodes: %d groups, want %d", n, len(got), len(want))
		}
		for i := range got {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("%d nodes: group %d = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

// TestMultiNodeEmptyInputs: empty and sub-node-count tables complete
// (the empty-chain cascade) with correct results.
func TestMultiNodeEmptyInputs(t *testing.T) {
	checkQueryHygiene(t)
	empty := &Table{Name: "e", Cols: []string{"k"}}
	tiny := tbl("t", 2, func(i int) any { return i }, func(i int) any { return i })
	ns := newNodesT(t, EngineConfig{Nodes: 4, Workers: 2})
	h, err := ns.Submit(context.Background(), &Join{
		Build: &Scan{Table: empty}, Probe: &Scan{Table: tiny},
		BuildKey: 0, ProbeKey: 0}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := collectHandle(t, h); len(got) != 0 {
		t.Fatalf("join against empty build returned %d rows", len(got))
	}
	h, err = ns.Submit(context.Background(), &Join{
		Build: &Scan{Table: tiny}, Probe: &Scan{Table: tiny},
		BuildKey: 0, ProbeKey: 0}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := collectHandle(t, h); len(got) != 2 {
		t.Fatalf("tiny self-join returned %d rows, want 2", len(got))
	}
}

// TestMultiNodeCancellation: cancelling mid-stream aborts promptly on
// every node and the engine serves the next query.
func TestMultiNodeCancellation(t *testing.T) {
	checkQueryHygiene(t)
	ns := newNodesT(t, EngineConfig{Nodes: 2, Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	h, err := ns.Submit(ctx, cancelPlan(300_000), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	h.Next() // first batch, then cancel mid-stream
	cancel()
	start := time.Now()
	drain(h)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("multi-node drain after cancel took %v", elapsed)
	}
	if err := h.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled multi-node query reported %v", err)
	}
	verifyIdle(t, ns)
}

// TestMultiNodeConcurrentQueries: distinct queries in flight on one
// multi-node engine stay isolated in results and stats (-race leg).
func TestMultiNodeConcurrentQueries(t *testing.T) {
	checkQueryHygiene(t)
	dim := tbl("dim", 200, func(i int) any { return i }, func(i int) any { return i })
	fact := tbl("fact", 12_000, func(i int) any { return i % 200 }, func(i int) any { return i })
	ns := newNodesT(t, EngineConfig{Nodes: 2, Workers: 2})
	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := ns.Submit(context.Background(), &Join{
				Build:    &Scan{Table: dim},
				Probe:    &Scan{Table: fact, Filter: func(r Row) bool { return r[1].(int)%n == i }},
				BuildKey: 0, ProbeKey: 0}, nil, "")
			if err != nil {
				errs[i] = err
				return
			}
			var rows int
			for b, ok := h.Next(); ok; b, ok = h.Next() {
				rows += b.N
			}
			if err := h.Err(); err != nil {
				errs[i] = err
				return
			}
			st := h.Stats()
			if rows != 12_000/n || int(st.ResultRows) != rows {
				errs[i] = fmt.Errorf("query %d: %d rows, stats %d", i, rows, st.ResultRows)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestMultiNodeClosePromptly: Close with a query in flight aborts it
// with ErrClosed and releases all pools' workers.
func TestMultiNodeClosePromptly(t *testing.T) {
	checkQueryHygiene(t)
	ns, err := NewNodesConfig(EngineConfig{Nodes: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ns.Submit(context.Background(), cancelPlan(300_000), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	ns.Close()
	drain(h)
	if err := h.Err(); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed engine reported %v", err)
	}
	if _, err := ns.Submit(context.Background(), cancelPlan(10), nil, ""); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit on closed engine = %v", err)
	}
}

// TestMultiNodeStreamingAllocBound is the multi-node leg of the
// streaming-sink alloc gate (run by CI): steal-free local execution
// with key-routed redistribution must stay within the single-node
// bound of <= 0.5 allocs per streamed row.
func TestMultiNodeStreamingAllocBound(t *testing.T) {
	ns := newNodesT(t, EngineConfig{Nodes: 2, Workers: 2, DisableStealing: true})
	const rows = 100_000
	build := tbl("b", 1000, func(i int) any { return i }, func(i int) any { return i })
	probe := tbl("p", rows, func(i int) any { return i % 1000 }, func(i int) any { return i })
	plan := Node(&Join{
		Build:    &Scan{Table: build},
		Probe:    &Scan{Table: probe},
		BuildKey: 0,
		ProbeKey: 0,
	})
	avg := testing.AllocsPerRun(3, func() {
		h, err := ns.Submit(context.Background(), plan, nil, "")
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
		if n != rows {
			t.Fatalf("streamed %d rows", n)
		}
	})
	if perRow := avg / rows; perRow > 0.5 {
		t.Fatalf("multi-node sink path allocates %.2f allocs/row (avg %.0f total), want <= 0.5", perRow, avg)
	}
}
