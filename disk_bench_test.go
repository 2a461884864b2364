package hierdb

// BenchmarkDiskScan prices persistent-table streaming: the same
// filtered scan over a resident table (/resident), over a chunked
// table file streamed from disk (/disk), and over the file with a
// zone-map-prunable range predicate (/disk-pruned) — the pruned leg's
// chunks_skipped/op and disk_B/op metrics document the I/O the zone
// maps save. BenchmarkDiskJoinSpill is the governed acceptance shape
// as a benchmark: a self-join over a table file roughly 10x the
// WithMemory budget, streaming chunks in while Grace-partitioning
// build and probe out. Baselines live in BENCH_engine.json and gate in
// cmd/benchdiff.

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"hierdb/internal/store"
	"hierdb/internal/vec"
)

const (
	diskBenchRows  = 100_000
	diskBenchChunk = 4096
	// diskBenchLo/Hi select ~5% of the key space: with 4096-row chunks
	// over a sorted id column, zone maps prune all but 2-3 chunks.
	diskBenchLo = 50_000
	diskBenchHi = 55_000
)

func diskBenchRowsData() ([]string, []vec.Row) {
	rows := make([]vec.Row, diskBenchRows)
	for i := range rows {
		rows[i] = vec.Row{i, i % 1000, fmt.Sprintf("payload-%06d", i)}
	}
	return []string{"id", "m", "payload"}, rows
}

func diskBenchFile(b *testing.B, chunkRows int) string {
	b.Helper()
	cols, rows := diskBenchRowsData()
	path := filepath.Join(b.TempDir(), "bench.hdb")
	if err := store.WriteTable(path, cols, chunkRows, rows); err != nil {
		b.Fatal(err)
	}
	return path
}

func runDiskScan(b *testing.B, db *DB, pruned bool) {
	b.Helper()
	q := db.Scan("t").Where(Pred{Col: 0, Op: Ge, Val: diskBenchLo}, Pred{Col: 0, Op: Lt, Val: diskBenchHi})
	b.ResetTimer()
	var scanned, skipped, diskB int64
	for n := 0; n < b.N; n++ {
		rows, err := q.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		got := 0
		for rows.Next() {
			got++
		}
		if err := rows.Err(); err != nil {
			b.Fatal(err)
		}
		rows.Close()
		if got != diskBenchHi-diskBenchLo {
			b.Fatalf("scanned %d rows, want %d", got, diskBenchHi-diskBenchLo)
		}
		st := rows.Stats()
		scanned += st.ChunksScanned
		skipped += st.ChunksSkipped
		diskB += st.DiskBytesRead
	}
	b.StopTimer()
	if pruned && skipped == 0 {
		b.Fatal("prunable disk scan never skipped a chunk")
	}
	b.ReportMetric(float64(diskBenchRows*b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(scanned)/float64(b.N), "chunks/op")
	b.ReportMetric(float64(skipped)/float64(b.N), "chunks_skipped/op")
	b.ReportMetric(float64(diskB)/float64(b.N), "disk_B/op")
}

func BenchmarkDiskScan(b *testing.B) {
	b.Run("resident", func(b *testing.B) {
		cols, data := diskBenchRowsData()
		tb := &Table{Name: "t", Cols: cols}
		for _, r := range data {
			tb.Rows = append(tb.Rows, Row(r))
		}
		db := Open(WithWorkers(4))
		b.Cleanup(func() { db.Close() })
		if err := db.Register(tb.Name, FromTable(tb)); err != nil {
			b.Fatal(err)
		}
		runDiskScan(b, db, false)
	})
	// The disk legs differ only in chunk geometry: /disk streams every
	// chunk (the predicate range straddles all of them because the
	// whole table is one chunk), /disk-pruned uses the default 4096-row
	// chunks so the sorted id column's zone maps skip ~97% of the file.
	b.Run("disk", func(b *testing.B) {
		path := diskBenchFile(b, diskBenchRows) // one chunk: nothing prunable
		db := Open(WithWorkers(4))
		b.Cleanup(func() { db.Close() })
		if err := db.Register("t", FromFile(path)); err != nil {
			b.Fatal(err)
		}
		runDiskScan(b, db, false)
	})
	b.Run("disk-pruned", func(b *testing.B) {
		path := diskBenchFile(b, diskBenchChunk)
		db := Open(WithWorkers(4))
		b.Cleanup(func() { db.Close() })
		if err := db.Register("t", FromFile(path)); err != nil {
			b.Fatal(err)
		}
		runDiskScan(b, db, true)
	})
}

// BenchmarkDiskJoinSpill joins a chunk-streamed table file against
// itself under a memory budget ~10x smaller than the file: every run
// decodes chunks under the budget charge and executes the full Grace
// cycle over the spilled partitions.
func BenchmarkDiskJoinSpill(b *testing.B) {
	cols := []string{"id", "k", "payload"}
	const n = 40_000
	rows := make([]vec.Row, n)
	for i := range rows {
		rows[i] = vec.Row{i, i % (n / 2), fmt.Sprintf("payload-%08d", i)}
	}
	path := filepath.Join(b.TempDir(), "join.hdb")
	if err := store.WriteTable(path, cols, diskBenchChunk, rows); err != nil {
		b.Fatal(err)
	}
	// ~880KB file => 88KB budget (10x), far under the 40k-row build side.
	db := Open(WithWorkers(4), WithMemory(88<<10), WithSpillDir(b.TempDir()))
	b.Cleanup(func() { db.Close() })
	if err := db.Register("t", FromFile(path)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var phases, spilled, diskB int64
	for bi := 0; bi < b.N; bi++ {
		rs, err := db.Scan("t").Join(db.Scan("t"), KeyCol(1), KeyCol(1)).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		got := 0
		for rs.Next() {
			got++
		}
		if err := rs.Err(); err != nil {
			b.Fatal(err)
		}
		rs.Close()
		if got != 2*n {
			b.Fatalf("streamed %d rows, want %d", got, 2*n)
		}
		st := rs.Stats()
		phases += st.SpillPhases
		spilled += st.SpilledBytes
		diskB += st.DiskBytesRead
	}
	b.StopTimer()
	if phases == 0 {
		b.Fatal("10x-over-budget disk join never spilled")
	}
	b.ReportMetric(float64(2*n*b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(phases)/float64(b.N), "phases/op")
	b.ReportMetric(float64(spilled)/float64(b.N), "spilled_B/op")
	b.ReportMetric(float64(diskB)/float64(b.N), "disk_B/op")
}
