// Benchmarks for the real-data engine's resident-DB surface: concurrent
// multi-query execution on one shared DP pool vs the same queries one
// at a time, and the streaming-sink path. Baselines are recorded in
// BENCH_engine.json; CI runs these once as a smoke test.
package hierdb

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

const (
	benchQueries   = 8
	benchFactRows  = 60_000
	benchDimRows   = 1_000
	benchBenchWrks = 8
)

func benchTables() (fact, dim *Table) {
	fact = &Table{Name: "fact", Cols: []string{"k", "v"}}
	for i := 0; i < benchFactRows; i++ {
		fact.Rows = append(fact.Rows, Row{i % benchDimRows, i})
	}
	dim = &Table{Name: "dim", Cols: []string{"k", "v"}}
	for i := 0; i < benchDimRows; i++ {
		dim.Rows = append(dim.Rows, Row{i, fmt.Sprintf("d%d", i)})
	}
	return fact, dim
}

// benchFilter gives each of the 8 queries a distinct slice of the fact
// table, so the concurrent queries are genuinely different.
func benchFilter(i int) func(Row) bool {
	return func(r Row) bool { return r[1].(int)%benchQueries == i }
}

// BenchmarkConcurrentQueries/shared runs 8 distinct queries concurrently
// on one resident pool; /sequential runs the same 8 queries on the same
// kind of pool one at a time. The shared run must be at least as fast:
// the pool's workers drain all 8 queries' activation queues at once.
func BenchmarkConcurrentQueries(b *testing.B) {
	fact, dim := benchTables()
	open := func(b *testing.B) *DB {
		db := Open(WithWorkers(benchBenchWrks))
		b.Cleanup(func() { db.Close() })
		if err := db.Register(fact.Name, FromTable(fact)); err != nil {
			b.Fatal(err)
		}
		if err := db.Register(dim.Name, FromTable(dim)); err != nil {
			b.Fatal(err)
		}
		return db
	}

	b.Run("shared", func(b *testing.B) {
		db := open(b)
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			var wg sync.WaitGroup
			for i := 0; i < benchQueries; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					rows, _, err := db.Scan("fact").Filter(benchFilter(i)).
						Join(db.Scan("dim"), KeyCol(0), KeyCol(0)).
						Collect(context.Background())
					if err != nil {
						b.Error(err)
					}
					if len(rows) != benchFactRows/benchQueries {
						b.Errorf("query %d: %d rows", i, len(rows))
					}
				}(i)
			}
			wg.Wait()
		}
		b.ReportMetric(float64(benchQueries)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})

	b.Run("sequential", func(b *testing.B) {
		db := open(b)
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for i := 0; i < benchQueries; i++ {
				rows, _, err := db.Scan("fact").Filter(benchFilter(i)).
					Join(db.Scan("dim"), KeyCol(0), KeyCol(0)).
					Collect(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != benchFactRows/benchQueries {
					b.Fatalf("query %d: %d rows", i, len(rows))
				}
			}
		}
		b.ReportMetric(float64(benchQueries)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
}

// BenchmarkStreamingSink measures the streaming iteration path end to
// end on a resident DB: a probe-heavy join consumed row by row through
// Rows, never materialized.
func BenchmarkStreamingSink(b *testing.B) {
	fact, dim := benchTables()
	db := Open(WithWorkers(4))
	defer db.Close()
	if err := db.Register(fact.Name, FromTable(fact)); err != nil {
		b.Fatal(err)
	}
	if err := db.Register(dim.Name, FromTable(dim)); err != nil {
		b.Fatal(err)
	}
	q := db.Scan("fact").Join(db.Scan("dim"), KeyCol(0), KeyCol(0))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		rows, err := q.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		cnt := 0
		for rows.Next() {
			cnt++
		}
		if err := rows.Err(); err != nil {
			b.Fatal(err)
		}
		rows.Close()
		if cnt != benchFactRows {
			b.Fatalf("streamed %d rows", cnt)
		}
	}
	b.ReportMetric(float64(benchFactRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
