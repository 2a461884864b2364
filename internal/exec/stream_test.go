package exec

import (
	"context"
	"errors"
	"testing"
	"time"
)

// cancelPlan is a join with a large build side, so cancellation lands
// mid-build: the heaviest, most activation-dense part of an execution.
func cancelPlan(rows int) Node {
	big := tbl("big", rows, func(i int) any { return i }, func(i int) any { return i })
	return &Join{
		Build:    &Scan{Table: big},
		Probe:    &Scan{Table: big},
		BuildKey: 0,
		ProbeKey: 0,
	}
}

// TestPromptCancellation cancels mid-join and requires the run to return
// within a bounded wall-clock time with ctx.Err(), workers fully drained,
// for both the DP and Static modes.
func TestPromptCancellation(t *testing.T) {
	plan := cancelPlan(1_000_000) // built outside the timed window
	for _, mode := range []struct {
		name   string
		static bool
	}{{"DP", false}, {"Static", true}} {
		t.Run(mode.name, func(t *testing.T) {
			checkQueryHygiene(t)
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(5 * time.Millisecond) // land mid-build
				cancel()
			}()
			start := time.Now()
			_, _, err := runOnce(ctx, plan, nil, EngineConfig{Workers: 4, Static: mode.static})
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run returned %v", err)
			}
			if elapsed > 5*time.Second {
				t.Fatalf("cancellation took %v", elapsed)
			}
		})
	}
}

// TestStreamCancelMidIteration cancels while the consumer is mid-stream
// on a resident pool: the stream must close promptly with ctx.Err() and
// the pool must stay healthy for the next query.
func TestStreamCancelMidIteration(t *testing.T) {
	for _, mode := range []struct {
		name   string
		static bool
	}{{"DP", false}, {"Static", true}} {
		t.Run(mode.name, func(t *testing.T) {
			checkQueryHygiene(t)
			pool := newNodesT(t, EngineConfig{Workers: 4, Static: mode.static})
			ctx, cancel := context.WithCancel(context.Background())
			h, err := pool.Submit(ctx, cancelPlan(500_000), nil, "")
			if err != nil {
				t.Fatal(err)
			}
			// Read one batch, then cancel mid-stream.
			h.Next()
			cancel()
			start := time.Now()
			drain(h)
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("stream drain after cancel took %v", elapsed)
			}
			if err := h.Err(); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled stream reported %v", err)
			}
			verifyIdle(t, pool)
		})
	}
}

// TestStreamsBeforeCompletion proves Rows streams rather than
// materializes: with a bounded sink far smaller than the result, the
// first batch must arrive while the query is still in flight.
func TestStreamsBeforeCompletion(t *testing.T) {
	checkQueryHygiene(t)
	pool := newNodesT(t, EngineConfig{Workers: 4})
	// ~200k result rows -> ~800 batches of 256, far beyond the sink's
	// 2*workers bound: the producer cannot run ahead of the consumer.
	h, err := pool.Submit(context.Background(), cancelPlan(200_000), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	first, ok := h.Next()
	if !ok || first.N == 0 {
		t.Fatal("no first batch")
	}
	select {
	case <-h.Done():
		t.Fatal("query already retired when the first batch arrived: result was materialized, not streamed")
	default:
	}
	n := first.N
	for batch, ok := h.Next(); ok; batch, ok = h.Next() {
		n += batch.N
	}
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 200_000 {
		t.Fatalf("streamed %d rows, want 200000", n)
	}
}

// TestStreamingSinkAllocBound is the streaming-sink alloc gate (run by
// CI): delivering a row through the bounded sink must stay cheap —
// arena-carved rows, batch-granular channel traffic, no per-row boxing
// and no full-result materialization on the engine side.
func TestStreamingSinkAllocBound(t *testing.T) {
	pool := newNodesT(t, EngineConfig{Workers: 4})
	// Small build side, large probe: the run is dominated by streaming
	// result rows, not by hash-table construction.
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
		h, err := pool.Submit(context.Background(), plan, nil, "")
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
		t.Fatalf("sink path allocates %.2f allocs/row (avg %.0f total), want <= 0.5", perRow, avg)
	}
}

// TestVectorBatchAllocBound is the columnar streaming alloc gate (run
// by CI): a consumer that stays on the batch currency — counting rows
// without ever materializing them — must see steady-state costs of the
// vectorized pipeline only: arena-carved selection/gather storage and
// batch-granular channel traffic, no per-row work at all. The bound is
// an order tighter than the row-boundary sink gate above.
func TestVectorBatchAllocBound(t *testing.T) {
	pool := newNodesT(t, EngineConfig{Workers: 4})
	const rows = 200_000
	build := tbl("b", 1000, func(i int) any { return i }, func(i int) any { return i })
	probe := tbl("p", rows, func(i int) any { return i % 1000 }, func(i int) any { return i })
	plan := Node(&Join{
		Build:    &Scan{Table: build},
		Probe:    &Scan{Table: probe},
		BuildKey: 0,
		ProbeKey: 0,
	})
	avg := testing.AllocsPerRun(3, func() {
		h, err := pool.Submit(context.Background(), plan, nil, "")
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
	if perRow := avg / rows; perRow > 0.05 {
		t.Fatalf("vec streaming allocates %.3f allocs/row (avg %.0f total), want <= 0.05", perRow, avg)
	}
}
