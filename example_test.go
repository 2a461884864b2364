package hierdb_test

import (
	"context"
	"fmt"
	"log"

	"hierdb"
)

// ExampleOpen runs a streaming join on a resident DB: register tables
// once, build queries fluently, iterate results through Rows. All
// queries submitted to the handle share its single DP worker pool.
func ExampleOpen() {
	db := hierdb.Open(hierdb.WithWorkers(2))
	defer db.Close()
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(db.Register("users", hierdb.FromTable(&hierdb.Table{
		Cols: []string{"id", "name"},
		Rows: []hierdb.Row{{1, "ada"}, {2, "grace"}},
	})))
	must(db.Register("logins", hierdb.FromTable(&hierdb.Table{
		Cols: []string{"user_id", "day"},
		Rows: []hierdb.Row{{1, "mon"}, {2, "tue"}, {1, "wed"}},
	})))

	rows, err := db.Scan("logins").
		Join(db.Scan("users"), hierdb.KeyCol(0), hierdb.KeyCol(0)).
		Run(context.Background())
	must(err)
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	must(rows.Err())
	fmt.Println(n, "joined rows")
	// Output: 3 joined rows
}

// ExampleQuery_GroupBy aggregates a join result with the builder: the
// group-by folds in parallel on the pool's workers as batches stream.
func ExampleQuery_GroupBy() {
	db := hierdb.Open(hierdb.WithWorkers(2))
	defer db.Close()
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(db.Register("items", hierdb.FromTable(&hierdb.Table{
		Cols: []string{"sku", "price"},
		Rows: []hierdb.Row{{1, 10.0}, {2, 20.0}},
	})))
	must(db.Register("sales", hierdb.FromTable(&hierdb.Table{
		Cols: []string{"sku"},
		Rows: []hierdb.Row{{1}, {1}, {2}},
	})))

	report, _, err := db.Scan("sales").
		Join(db.Scan("items"), hierdb.KeyCol(0), hierdb.KeyCol(0)).
		GroupBy(hierdb.KeyCol(0), // sku
			hierdb.Aggregation{Func: hierdb.Count},
			hierdb.Aggregation{Func: hierdb.Sum, Arg: func(r hierdb.Row) float64 { return r[2].(float64) }},
		).
		Collect(context.Background())
	must(err)
	for _, r := range report {
		fmt.Printf("sku=%v count=%v revenue=%v\n", r[0], r[1], r[2])
	}
	// Output:
	// sku=1 count=2 revenue=20
	// sku=2 count=1 revenue=20
}

// ExampleQuery_Collect materializes a small join result in one call —
// the convenience form of Run for results that fit in memory.
func ExampleQuery_Collect() {
	db := hierdb.Open(hierdb.WithWorkers(2))
	defer db.Close()
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(db.Register("users", hierdb.FromTable(&hierdb.Table{
		Cols: []string{"id", "name"},
		Rows: []hierdb.Row{{1, "ada"}, {2, "grace"}},
	})))
	must(db.Register("logins", hierdb.FromTable(&hierdb.Table{
		Cols: []string{"user_id", "day"},
		Rows: []hierdb.Row{{1, "mon"}, {2, "tue"}, {1, "wed"}},
	})))
	rows, stats, err := db.Scan("logins").
		Join(db.Scan("users"), hierdb.KeyCol(0), hierdb.KeyCol(0)).
		Collect(context.Background())
	must(err)
	fmt.Println(len(rows), "joined rows,", stats.ResultRows, "counted")
	// Output: 3 joined rows, 3 counted
}

// ExampleExecuteDP simulates one generated plan on the paper's machine.
func ExampleExecuteDP() {
	s := hierdb.BenchScale()
	s.Queries = 1
	w := hierdb.GenerateWorkload(s, 1)
	r, err := hierdb.ExecuteDP(w.Plans[0], hierdb.DefaultConfig(1, 8), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(r.Strategy, "produced", r.ResultTuples > 0)
	// Output: DP produced true
}
