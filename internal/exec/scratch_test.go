package exec

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestWorkerScratchSharedAcrossQueries: kernel scratch is the worker's,
// kept in its pool across queries, so every worker serves the fragments
// of several queries through one vecScratch. Four queries run at once
// on 2 nodes x 2 workers with 16-row batches under a memory budget: a
// join whose keys are all owned by node 0 (the peer steals), a group-by
// over another such join, and two joins whose build sides exceed the
// budget (they spill). Every fragment's scratch must be its pool's, and
// every result the single-node, ungoverned one. Run under -race (CI's
// stress step): two workers sharing one scratch, or a scratch read by
// one query while another's kernel writes it, is a race.
func TestWorkerScratchSharedAcrossQueries(t *testing.T) {
	checkQueryHygiene(t)
	const nodes, stripes = 2, 8
	skew := skewPlan(nodes, stripes, 6_000, 100)
	fan := fanPlan(nodes, stripes, 60, 2, 3_000, nil)
	gb := &GroupBy{Key: 3, Aggs: []Aggregation{{Func: Count}, {Func: Sum, Arg: func(r Row) float64 { return r[4].(float64) }}}}
	spillA, spillB := govPlan(3_000, 6_000), govPlan(2_000, 4_000)
	queries := []struct {
		plan Node
		gb   *GroupBy
	}{{skew, nil}, {fan, gb}, {spillA, nil}, {spillB, nil}}
	want := make([]string, len(queries))
	for i, qr := range queries {
		rows, _, err := runOnce(context.Background(), qr.plan, qr.gb, EngineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(canon(rows))
	}

	budget := sideBytes(spillB.(*Join).Build.(*Scan).Table) / 2
	ns := newNodesT(t, EngineConfig{Nodes: nodes, Workers: 2, Stripes: stripes, Batch: 16, MemoryPerNode: budget, SpillDir: t.TempDir()})
	var steals, spills int64
	// A steal needs a peer to starve while the owner holds a queue; with
	// four queries in flight retry a few times, as the steal tests do.
	for attempt := 0; attempt < 5 && (steals == 0 || spills == 0); attempt++ {
		handles := make([]*Handle, len(queries))
		for i, qr := range queries {
			h, err := ns.Submit(context.Background(), qr.plan, qr.gb, "")
			if err != nil {
				t.Fatal(err)
			}
			handles[i] = h
			for node, q := range h.mq.frags {
				if &q.vscratch[0] != &ns.pools[node].vscratch[0] || len(q.vscratch) != len(ns.pools[node].vscratch) {
					t.Fatalf("query %d: node %d's fragment has a scratch of its own, not its pool's", i, node)
				}
			}
		}
		got := make([]string, len(queries))
		var wg sync.WaitGroup
		for i, h := range handles {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = fmt.Sprint(canon(drainRows(h)))
			}()
		}
		wg.Wait()
		for i, h := range handles {
			if err := h.Err(); err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			if got[i] != want[i] {
				t.Fatalf("query %d: result differs from the single-node, ungoverned one:\n got %.300s\nwant %.300s", i, got[i], want[i])
			}
			st := h.Stats()
			steals += st.Steals
			spills += st.SpilledPartitions
		}
	}
	t.Logf("%d steals, %d spilled partitions", steals, spills)
	if steals == 0 || spills == 0 {
		t.Fatalf("in five attempts, %d steals and %d spilled partitions: the mix did not steal and spill", steals, spills)
	}
}
