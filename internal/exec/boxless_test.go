package exec

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"hierdb/internal/store"
	"hierdb/internal/vec"
)

// fileTable writes tb as a table file and returns the file-backed twin.
func fileTable(t *testing.T, tb *Table, chunkRows int) *Table {
	t.Helper()
	path := filepath.Join(t.TempDir(), tb.Name+".hdb")
	if err := store.WriteTable(path, tb.Cols, chunkRows, tb.Rows); err != nil {
		t.Fatal(err)
	}
	f, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return &Table{Name: tb.Name, Cols: tb.Cols, File: f}
}

// allocsOfQuery averages the allocations of running plan to completion,
// handing every result batch to consume.
func allocsOfQuery(t *testing.T, pool *Nodes, plan Node, wantRows int, consume func(*vec.Batch)) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		h, err := pool.Submit(context.Background(), plan, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for b, ok := h.Next(); ok; b, ok = h.Next() {
			n += b.N
			consume(b)
		}
		if err := h.Err(); err != nil {
			t.Fatal(err)
		}
		if n != wantRows {
			t.Fatalf("streamed %d rows, want %d", n, wantRows)
		}
	})
}

// TestDiskStreamAllocBound is the disk-streaming alloc gate (run by
// CI): chunks decode into typed mirrors only, so a scan that discards
// 80% of its rows pays a per-chunk cost for them, never a per-value
// one. A consumer that stays on the batch currency sees no boxing at
// all, and one that materializes rows boxes every value in place over
// the mirrors (every value here is chosen to need a heap box were it
// copied): per-chunk costs either way.
func TestDiskStreamAllocBound(t *testing.T) {
	pool := newNodesT(t, EngineConfig{Workers: 4})
	const decoded, survivors = 100_000, 20_000
	plan := Node(&Scan{Table: fileTable(t, diskTable(decoded), 4096), Preds: []vec.Pred{{Col: 1, Op: vec.Ge, Val: 1800}}})

	batchOnly := allocsOfQuery(t, pool, plan, survivors, func(*vec.Batch) {})
	if perRow := batchOnly / decoded; perRow > 0.05 {
		t.Fatalf("disk streaming allocates %.3f allocs/decoded row (avg %.0f total), want <= 0.05", perRow, batchOnly)
	}
	var arena vec.Arena
	var rows []Row
	boxed := allocsOfQuery(t, pool, plan, survivors, func(b *vec.Batch) { rows = b.AppendRows(rows[:0], &arena) })
	if perRow := boxed / decoded; perRow > 0.05 {
		t.Fatalf("materializing %d survivors allocates %.0f: %.3f allocs/decoded row, want <= 0.05 (a value is boxed in place, not copied)", survivors, boxed, perRow)
	}
}

// diskTable is the disk gates' 3-column table: a unique int id, an int
// the scan predicate keeps 20% of, and a distinct string.
func diskTable(n int) *Table {
	tb := &Table{Name: "d", Cols: []string{"id", "v", "s"}}
	for i := 0; i < n; i++ {
		tb.Rows = append(tb.Rows, Row{1000 + i, 1000 + i%1000, fmt.Sprintf("payload-%06d", i)})
	}
	return tb
}

// TestDiskLateMatAllocBytesBound is the disk-streaming bytes gate (run by
// CI): the chunk decoder evaluates the scan predicate on a scratch mirror
// it reuses and materializes the surviving rows only, so a 3-column file
// scan that keeps 20% of its rows allocates, on the batch currency, the
// survivors' compact columns and string blob — about 9 bytes per decoded
// row, where full-width mirrors for every decoded row cost about 47.
func TestDiskLateMatAllocBytesBound(t *testing.T) {
	perRow := diskScanBytesPerRow(t, func(*vec.Batch) {})
	if perRow > 20 {
		t.Fatalf("a file scan keeping 20%% allocates %.1f bytes per decoded row, want <= 20", perRow)
	}
}

// TestDiskRowMatAllocBytesBound is the same scan with a consumer that
// materializes every surviving row: on top of the batch currency it
// pays the rows' interface words (3 × 16 B per survivor, about 10 bytes
// per decoded row) and nothing per value — a copied box of each int and
// string header would add about 6.
func TestDiskRowMatAllocBytesBound(t *testing.T) {
	batchOnly := diskScanBytesPerRow(t, func(*vec.Batch) {})
	var arena vec.Arena
	var rows []Row
	rowMat := diskScanBytesPerRow(t, func(b *vec.Batch) { rows = b.AppendRows(rows[:0], &arena) })
	if over := rowMat - batchOnly; over > 13.5 {
		t.Fatalf("materializing the rows of a file scan keeping 20%% allocates %.1f bytes per decoded row beyond the batches' %.1f, want <= 13.5", over, batchOnly)
	}
}

// diskScanBytesPerRow averages the bytes a 20%-selective scan of a
// 100 000-row table file allocates per decoded row, handing every result
// batch to consume.
func diskScanBytesPerRow(t *testing.T, consume func(*vec.Batch)) float64 {
	t.Helper()
	pool := newNodesT(t, EngineConfig{Workers: 4})
	const decoded, survivors = 100_000, 20_000
	plan := Node(&Scan{Table: fileTable(t, diskTable(decoded), 4096), Preds: []vec.Pred{{Col: 1, Op: vec.Ge, Val: 1800}}})
	run := func() {
		h, err := pool.Submit(context.Background(), plan, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for b, ok := h.Next(); ok; b, ok = h.Next() {
			n += b.N
			consume(b)
		}
		if err := h.Err(); err != nil || n != survivors {
			t.Fatalf("streamed %d rows (err %v), want %d", n, err, survivors)
		}
	}
	run() // the workers' scanners and read buffers reach their steady size
	const runs = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	perRow := float64(m1.TotalAlloc-m0.TotalAlloc) / runs / decoded
	t.Logf("%.1f bytes per decoded row", perRow)
	return perRow
}

// TestSpillReplayAllocBound is the spill-replay alloc gate (run by CI):
// a governed join that spills both sides decodes every batch boxless,
// stores the replayed build values boxed in place, looks the probe keys
// up without copying them, and a consumer that materializes the result
// rows boxes their values in place too — per-batch costs only, with or
// without materialization.
func TestSpillReplayAllocBound(t *testing.T) {
	// Per-row gates need batch-granular costs amortized: a spilled batch
	// is 1/8 of these.
	pool := newNodesT(t, EngineConfig{Workers: 4, MemoryPerNode: 32 << 10, SpillDir: t.TempDir(), Morsel: 16384, Batch: 16384})
	const buildRows, probeRows = 2_000, 200_000
	build := tbl("b", buildRows, func(i int) any { return 1000 + i }, func(i int) any { return 5000 + i })
	probe := tbl("p", probeRows, func(i int) any { return 1000 + i%buildRows }, func(i int) any { return 1000 + i })
	plan := Node(&Join{Build: &Scan{Table: build}, Probe: &Scan{Table: probe}, BuildKey: 0, ProbeKey: 0})
	const decoded = buildRows + probeRows

	batchOnly := allocsOfQuery(t, pool, plan, probeRows, func(*vec.Batch) {})
	if perRow := batchOnly / decoded; perRow > 0.05 {
		t.Fatalf("spill replay allocates %.0f: %.3f allocs/decoded row, want <= 0.05", batchOnly, perRow)
	}
	var arena vec.Arena
	var rows []Row
	boxed := allocsOfQuery(t, pool, plan, probeRows, func(b *vec.Batch) { rows = b.AppendRows(rows[:0], &arena) })
	if perRow := boxed / decoded; perRow > 0.05 {
		t.Fatalf("materializing the replayed join allocates %.0f: %.3f allocs/decoded row, want <= 0.05 (a value is boxed in place, not copied)", boxed, perRow)
	}
}

// TestBoxlessBuildBoxedOncePerStoredRow pins the box-once rule on the
// build side: a build store fed boxless columns boxes each value in
// place as it stores it, so a build row matched by 50 probe rows
// contributes copied words to all 50 outputs, not 50 fresh boxes — and
// storing it allocates nothing per value either.
func TestBoxlessBuildBoxedOncePerStoredRow(t *testing.T) {
	pool := newNodesT(t, EngineConfig{Workers: 4})
	const buildRows, probeRows = 1_000, 50_000
	build := tbl("b", buildRows, func(i int) any { return 1000 + i }, func(i int) any { return fmt.Sprintf("build-%04d", i) })
	probe := tbl("p", probeRows, func(i int) any { return 1000 + i%buildRows }, func(i int) any { return i })
	plan := Node(&Join{Build: &Scan{Table: fileTable(t, build, 256)}, Probe: &Scan{Table: probe}, BuildKey: 0, ProbeKey: 0})

	var arena vec.Arena
	var got []Row
	avg := allocsOfQuery(t, pool, plan, probeRows, func(b *vec.Batch) { got = b.AppendRows(got, &arena) })
	// The resident probe side copies words, and so does every match of a
	// stored build row: nothing is boxed per stored value or per match.
	if limit := 0.05 * (buildRows + probeRows); avg > limit {
		t.Fatalf("fan-out join over a boxless build side allocates %.0f, want <= %.0f: build values are boxed by copy, per stored row or per match", avg, limit)
	}
	sameRows(t, got[:probeRows], nestedJoin(probe, build, 0, 0))
}
