// BenchmarkMultiNodeSkew measures the hierarchical engine under the
// paper's worst case for static placement: every join key owned by one
// node, so redistribution funnels all probe work there while the other
// nodes' pools starve. /steal runs the full two-level protocol (starving
// nodes acquire the hot node's probe queues plus the hash-table buckets
// they need, cached locally); /nosteal pins the backlog on the hot node;
// /1node is the flat single-pool reference. Baselines live in
// BENCH_engine.json; CI's bench-regression gate compares against them.
package hierdb

import (
	"context"
	"fmt"
	"testing"
)

const (
	skewNodes    = 4
	skewWorkers  = 2
	skewStripes  = 32 // per node
	skewDimRows  = 500
	skewFactRows = 120_000
)

func skewBenchTables(b *testing.B) (fact, dim *Table) {
	hot := skewedKeys(b, skewNodes, skewStripes, skewDimRows)
	dim = &Table{Name: "dim", Cols: []string{"k", "v"}}
	for i, k := range hot {
		dim.Rows = append(dim.Rows, Row{k, fmt.Sprintf("d%d", i)})
	}
	fact = &Table{Name: "fact", Cols: []string{"k", "v"}}
	for i := 0; i < skewFactRows; i++ {
		fact.Rows = append(fact.Rows, Row{hot[i%skewDimRows], i})
	}
	return fact, dim
}

func BenchmarkMultiNodeSkew(b *testing.B) {
	fact, dim := skewBenchTables(b)
	run := func(b *testing.B, opts ...Option) {
		db := Open(opts...)
		defer db.Close()
		if err := db.Register(fact.Name, FromTable(fact)); err != nil {
			b.Fatal(err)
		}
		if err := db.Register(dim.Name, FromTable(dim)); err != nil {
			b.Fatal(err)
		}
		q := db.Scan("fact").Join(db.Scan("dim"), KeyCol(0), KeyCol(0))
		b.ResetTimer()
		var steals, stolen int64
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
			if cnt != skewFactRows {
				b.Fatalf("streamed %d rows, want %d", cnt, skewFactRows)
			}
			st := rows.Stats()
			steals += st.Steals
			stolen += st.StolenActivations
		}
		b.ReportMetric(float64(skewFactRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		b.ReportMetric(float64(steals)/float64(b.N), "steals/op")
		b.ReportMetric(float64(stolen)/float64(b.N), "stolen-acts/op")
	}
	b.Run("steal", func(b *testing.B) {
		run(b, WithNodes(skewNodes), WithWorkers(skewWorkers), WithStripes(skewStripes))
	})
	b.Run("nosteal", func(b *testing.B) {
		run(b, WithNodes(skewNodes), WithWorkers(skewWorkers), WithStripes(skewStripes), WithStealing(false))
	})
	b.Run("1node", func(b *testing.B) {
		run(b, WithWorkers(skewWorkers), WithStripes(skewStripes))
	})
}
