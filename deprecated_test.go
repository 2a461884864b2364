package hierdb

// Equivalence test for the deprecated builder wrapper: the variadic
// Scan filter must route through exactly the same execution path as its
// replacement, Where, so code still on the old surface keeps the new
// behavior. (Query.Selectivity is gone; Hint{Selectivity} is covered in
// optimizer_test.go.)

import (
	"context"
	"fmt"
	"testing"

	"hierdb/internal/leaktest"
)

// TestDeprecatedScanFilterMatchesWhere runs the same predicate as a
// deprecated Scan closure and as a Where predicate and requires
// identical row multisets — the closure path and the columnar-kernel
// path converge on the same scan node.
func TestDeprecatedScanFilterMatchesWhere(t *testing.T) {
	leaktest.Check(t, 2)
	db := testDB(t, WithWorkers(2))

	old, _, err := db.Scan("orders", func(r Row) bool { return r[0].(int) < 10 }).
		Join(db.Scan("lines"), KeyCol(0), KeyCol(0)).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	niu, _, err := db.Scan("orders").Where(Pred{Col: 0, Op: Lt, Val: 10}).
		Join(db.Scan("lines"), KeyCol(0), KeyCol(0)).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(old) == 0 {
		t.Fatal("filter matched no rows — the test proves nothing")
	}
	a, b := canonRows(old), canonRows(niu)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("deprecated Scan filter and Where diverge: %d vs %d rows", len(a), len(b))
	}
}
