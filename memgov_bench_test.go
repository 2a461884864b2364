package hierdb

// BenchmarkSpillJoin prices memory governance: the same fact-dim join
// streamed through Rows once with an unlimited budget (the ungoverned
// in-memory hash join) and once under a WithMemory budget far below the
// build side, forcing the full Grace-style cycle — partition build and
// probe inputs to spill files, then join the partitions one at a time.
// Baselines live in BENCH_engine.json and gate in cmd/benchdiff; the
// spilled-bytes metric documents the disk traffic the budget buys.

import (
	"context"
	"fmt"
	"testing"
)

const (
	spillBenchDim  = 10_000
	spillBenchFact = 40_000
)

func spillBenchDB(b *testing.B, opts ...Option) *DB {
	b.Helper()
	dim := &Table{Name: "dim", Cols: []string{"k", "v"}}
	for i := 0; i < spillBenchDim; i++ {
		dim.Rows = append(dim.Rows, Row{i, fmt.Sprintf("d%d", i)})
	}
	fact := &Table{Name: "fact", Cols: []string{"k", "v"}}
	for i := 0; i < spillBenchFact; i++ {
		fact.Rows = append(fact.Rows, Row{i % spillBenchDim, i})
	}
	db := Open(opts...)
	b.Cleanup(func() { db.Close() })
	for _, tb := range []*Table{dim, fact} {
		if err := db.Register(tb.Name, FromTable(tb)); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func runSpillBench(b *testing.B, db *DB, wantSpill bool) {
	b.Helper()
	b.ResetTimer()
	var spilledBytes, phases int64
	for n := 0; n < b.N; n++ {
		rows, err := db.Scan("fact").Join(db.Scan("dim"), KeyCol(0), KeyCol(0)).Run(context.Background())
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
		if got != spillBenchFact {
			b.Fatalf("streamed %d rows, want %d", got, spillBenchFact)
		}
		st := rows.Stats()
		spilledBytes += st.SpilledBytes
		phases += st.SpillPhases
	}
	b.StopTimer()
	if wantSpill && phases == 0 {
		b.Fatal("governed benchmark leg never spilled")
	}
	if !wantSpill && spilledBytes != 0 {
		b.Fatal("ungoverned benchmark leg spilled")
	}
	b.ReportMetric(float64(spillBenchFact*b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(spilledBytes)/float64(b.N), "spilled_B/op")
	b.ReportMetric(float64(phases)/float64(b.N), "phases/op")
}

func BenchmarkSpillJoin(b *testing.B) {
	b.Run("inmem", func(b *testing.B) {
		runSpillBench(b, spillBenchDB(b, WithWorkers(4)), false)
	})
	b.Run("spill", func(b *testing.B) {
		runSpillBench(b, spillBenchDB(b, WithWorkers(4), WithMemory(128<<10), WithSpillDir(b.TempDir())), true)
	})
}
