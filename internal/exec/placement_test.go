package exec

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"hierdb/internal/vec"
)

// TestScanUnitsDealtRoundRobin: every table is scanned in units — a file
// chunk, or min(Morsel, ⌈N/n⌉) rows of a resident table — and node i
// scans units i, i+n, i+2n, …: a root scan returns every row exactly
// once, and the nodes' scan activations (resident) or decoded chunks
// (file) differ by at most one, however few units there are and however
// the chunk indexes hash.
func TestScanUnitsDealtRoundRobin(t *testing.T) {
	const morsel, chunkRows = 16, 8
	for _, nodes := range []int{1, 2, 4} {
		ns := newNodesT(t, EngineConfig{Nodes: nodes, Workers: 2, Morsel: morsel})
		check := func(what string, tb *Table, rows int, perNode func(NodeStats) int64) {
			t.Helper()
			h, err := ns.Submit(context.Background(), &Scan{Table: tb}, nil, "")
			if err != nil {
				t.Fatal(err)
			}
			seen := make([]int, rows)
			for _, r := range collectHandle(t, h) {
				v, ok := vec.IntFamilyVal(r[0])
				id := int(v)
				if !ok || id < 0 || id >= rows {
					t.Fatalf("%d nodes, %s: row %v is not the table's", nodes, what, r)
				}
				seen[id]++
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("%d nodes, %s: row %d came back %d times", nodes, what, id, n)
				}
			}
			st := h.Stats()
			if len(st.Nodes) != nodes && nodes > 1 {
				t.Fatalf("%d nodes, %s: %d per-node stats", nodes, what, len(st.Nodes))
			}
			var got []int64
			for _, s := range st.Nodes {
				got = append(got, perNode(s))
			}
			if len(got) > 0 && slices.Max(got)-slices.Min(got) > 1 {
				t.Fatalf("%d nodes, %s: per-node units %v differ by more than one", nodes, what, got)
			}
		}
		ids := func(i int) any { return i }
		for _, n := range []int{0, 1, nodes - 1, nodes, 3*morsel + 5} {
			tb := tbl("r", n, ids, ids)
			check(fmt.Sprintf("%d resident rows", n), tb, n, func(s NodeStats) int64 { return s.Activations })
		}
		for _, chunks := range []int{1, 4, 8, 16} {
			tb := fileTable(t, tbl(fmt.Sprintf("f%d", chunks), chunks*chunkRows, ids, ids), chunkRows)
			if got := tb.File.NumChunks(); got != chunks {
				t.Fatalf("fixture has %d chunks, want %d", got, chunks)
			}
			check(fmt.Sprintf("%d file chunks", chunks), tb, chunks*chunkRows, func(s NodeStats) int64 { return s.ChunksScanned })
		}
	}
}

// TestTransientTableAllocBytesBound is the placement alloc gate (run by
// CI): a query over a table nobody registered scans the table's cached
// columnization in place — no per-node view of it, no index per row — so
// a second 4-node query over a warm 100 000-row table allocates less
// than one byte per table row.
func TestTransientTableAllocBytesBound(t *testing.T) {
	const rows, kept = 100_000, 10
	ns := newNodesT(t, EngineConfig{Nodes: 4, Workers: 2})
	ids := func(i int) any { return i }
	plan := &Scan{Table: tbl("transient", rows, ids, ids), Preds: []vec.Pred{{Col: 0, Op: vec.Lt, Val: kept}}}
	run := func() {
		h, err := ns.Submit(context.Background(), plan, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if got := len(collectHandle(t, h)); got != kept {
			t.Fatalf("scan returned %d rows, want %d", got, kept)
		}
	}
	run() // columnize the table, start the pools
	const runs = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	perQuery := (m1.TotalAlloc - m0.TotalAlloc) / runs
	if perQuery >= rows {
		t.Fatalf("a 4-node scan of a warm %d-row table allocates %d B, want < 1 B a row", rows, perQuery)
	}
	t.Logf("per query: %d B (%.3f B a row)", perQuery, float64(perQuery)/rows)
}
