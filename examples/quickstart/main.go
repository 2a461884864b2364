// Quickstart: open a resident DB, register two tables, and stream a
// join built with the fluent query API through the DP-scheduled
// parallel hash-join engine.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"hierdb"
)

func main() {
	db := hierdb.Open(hierdb.WithWorkers(4))
	defer db.Close()

	check := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	check(db.Register("customers", hierdb.FromTable(&hierdb.Table{
		Cols: []string{"id", "name"},
		Rows: []hierdb.Row{
			{1, "ada"}, {2, "grace"}, {3, "edsger"}, {4, "barbara"},
		},
	})))
	check(db.Register("orders", hierdb.FromTable(&hierdb.Table{
		Cols: []string{"customer_id", "item"},
		Rows: []hierdb.Row{
			{1, "disk"}, {2, "cpu"}, {2, "ram"}, {4, "nic"}, {4, "rack"}, {4, "tape"},
		},
	})))

	// orders JOIN customers ON orders.customer_id = customers.id.
	// The receiver is the probe side; the argument builds the hash table.
	rows, err := db.Scan("orders").
		Join(db.Scan("customers"), hierdb.KeyCol(0), hierdb.KeyCol(0)).
		Project(3, 1). // customer name, item: columns of order ++ customer
		Run(context.Background())
	check(err)
	defer rows.Close()

	fmt.Println("order lines:")
	for rows.Next() {
		r := rows.Row()
		fmt.Printf("  %-8v bought %v\n", r[0], r[1])
	}
	check(rows.Err())
	stats := rows.Stats()
	fmt.Printf("rows=%d activations=%d per-worker=%v\n",
		stats.ResultRows, stats.Activations, stats.PerWorker)
}
