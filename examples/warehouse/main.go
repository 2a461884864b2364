// Warehouse: the decision-support workload the paper's introduction
// motivates — a multi-join star query over a resident DB, executed on
// the real-data engine with the DP scheduler. It shows the three things
// the resident API adds over one-shot execution: a registered catalog
// with fluent multi-join queries, concurrent queries sharing one worker
// pool, and the dynamic-vs-static (DP vs FP) scheduling comparison.
//
//	go run ./examples/warehouse
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"sync"
	"time"

	"hierdb"
)

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// buildTables generates the synthetic star schema once; the tables are
// read-only afterwards, so every DB handle can register the same ones.
func buildTables() []*hierdb.Table {
	const (
		nSales     = 400_000
		nProducts  = 2_000
		nStores    = 200
		nSuppliers = 500
	)
	rng := uint64(42)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}

	products := &hierdb.Table{Name: "products", Cols: []string{"id", "category"}}
	for i := 0; i < nProducts; i++ {
		products.Rows = append(products.Rows, hierdb.Row{i, fmt.Sprintf("cat%d", i%17)})
	}
	stores := &hierdb.Table{Name: "stores", Cols: []string{"id", "region"}}
	for i := 0; i < nStores; i++ {
		stores.Rows = append(stores.Rows, hierdb.Row{i, fmt.Sprintf("region%d", i%7)})
	}
	suppliers := &hierdb.Table{Name: "suppliers", Cols: []string{"id", "country"}}
	for i := 0; i < nSuppliers; i++ {
		suppliers.Rows = append(suppliers.Rows, hierdb.Row{i, fmt.Sprintf("country%d", i%11)})
	}
	sales := &hierdb.Table{Name: "sales", Cols: []string{"product", "store", "supplier", "amount"}}
	for i := 0; i < nSales; i++ {
		sales.Rows = append(sales.Rows, hierdb.Row{next(nProducts), next(nStores), next(nSuppliers), 1 + next(500)})
	}
	return []*hierdb.Table{products, stores, suppliers, sales}
}

func register(db *hierdb.DB, tables []*hierdb.Table) {
	for _, t := range tables {
		check(db.Register(t.Name, hierdb.FromTable(t)))
	}
}

// starQuery builds sales x products x stores x suppliers. After three
// joins the row layout is sales ++ product ++ store ++ supplier columns.
func starQuery(db *hierdb.DB) *hierdb.Query {
	return db.Scan("sales").
		Join(db.Scan("products"), hierdb.KeyCol(0), hierdb.KeyCol(0)). // sales.product
		Join(db.Scan("stores"), hierdb.KeyCol(1), hierdb.KeyCol(0)).   // sales.store
		Join(db.Scan("suppliers"), hierdb.KeyCol(2), hierdb.KeyCol(0)) // sales.supplier
}

func main() {
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4 // keep the scheduling comparison meaningful on tiny hosts
	}
	tables := buildTables()
	db := hierdb.Open(hierdb.WithWorkers(workers))
	defer db.Close()
	register(db, tables)

	// Revenue by region: stream the 3-join star through a group-by on
	// the store's region (column 4+2+1 = 7 of the joined row).
	report, _, err := starQuery(db).
		GroupBy(hierdb.KeyCol(7),
			hierdb.Aggregation{Func: hierdb.Count},
			hierdb.Aggregation{Func: hierdb.Sum, Arg: func(r hierdb.Row) float64 { return float64(r[3].(int)) }},
		).
		Collect(context.Background())
	check(err)
	fmt.Println("revenue by region:")
	for _, r := range report {
		fmt.Printf("  %-10v %8d sales  %12.0f revenue\n", r[0], r[1], r[2])
	}
	fmt.Println()

	// Concurrent traffic: per-category revenue queries for 8 categories,
	// all in flight at once on the handle's single worker pool.
	start := time.Now()
	var wg sync.WaitGroup
	results := make([]int64, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cat := fmt.Sprintf("cat%d", i)
			rows, _, err := db.Scan("sales").
				Join(db.Scan("products").Where(hierdb.Pred{Col: 1, Op: hierdb.Eq, Val: cat}),
					hierdb.KeyCol(0), hierdb.KeyCol(0)).
				GroupBy(hierdb.KeyCol(5), hierdb.Aggregation{Func: hierdb.Count}).
				Collect(context.Background())
			check(err)
			for _, r := range rows {
				results[i] += r[1].(int64)
			}
		}(i)
	}
	wg.Wait()
	fmt.Printf("8 concurrent category queries on one shared pool: %v\n", time.Since(start).Round(time.Millisecond))
	for i, n := range results {
		fmt.Printf("  cat%-3d %8d sales\n", i, n)
	}
	fmt.Println()

	// DP vs FP on the same star query: dynamic any-worker-any-operator
	// scheduling against static worker-to-operator binding.
	for _, mode := range []struct {
		label  string
		static bool
	}{
		{"DP (dynamic, any worker any operator)", false},
		{"FP (static worker-to-operator binding)", true},
	} {
		mdb := hierdb.Open(hierdb.WithWorkers(workers), hierdb.WithStatic(mode.static))
		register(mdb, tables)
		start := time.Now()
		rows, stats, err := starQuery(mdb).Collect(context.Background())
		check(err)
		fmt.Printf("%-40s %8d rows  %8v  imbalance %.2f  per-worker %v\n",
			mode.label, len(rows), time.Since(start).Round(time.Millisecond),
			stats.Imbalance(), stats.PerWorker)
		mdb.Close()
	}
}
