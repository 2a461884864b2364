package hierdb

import (
	"context"
	"slices"
	"strings"
	"testing"

	"hierdb/internal/leaktest"
)

// TestWherePredicates covers the columnar scan-predicate surface: typed
// comparisons, null semantics, AND composition, interplay with a row
// Filter, and builder-clone isolation.
func TestWherePredicates(t *testing.T) {
	leaktest.Check(t, 2)
	db := Open(WithWorkers(2))
	defer db.Close()

	tb := &Table{Name: "t", Cols: []string{"k", "s", "f"}}
	for i := 0; i < 1000; i++ {
		var s any = "odd"
		if i%2 == 0 {
			s = "even"
		}
		if i%100 == 0 {
			s = nil // null string every 100 rows
		}
		tb.Rows = append(tb.Rows, Row{i, s, float64(i) / 10})
	}
	if err := db.Register(tb.Name, FromTable(tb)); err != nil {
		t.Fatal(err)
	}

	collect := func(t *testing.T, q *Query) []Row {
		t.Helper()
		rows, _, err := q.Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}

	t.Run("IntRange", func(t *testing.T) {
		got := collect(t, db.Scan("t").Where(Pred{Col: 0, Op: Ge, Val: 100}, Pred{Col: 0, Op: Lt, Val: 200}))
		if len(got) != 100 {
			t.Fatalf("got %d rows, want 100", len(got))
		}
		for _, r := range got {
			if k := r[0].(int); k < 100 || k >= 200 {
				t.Fatalf("row %v escaped the range", r)
			}
		}
	})

	t.Run("StringEqSkipsNulls", func(t *testing.T) {
		// 500 even rows minus the 10 nulled ones (i%100==0 rows are even).
		got := collect(t, db.Scan("t").Where(Pred{Col: 1, Op: Eq, Val: "even"}))
		if len(got) != 490 {
			t.Fatalf("got %d rows, want 490", len(got))
		}
	})

	t.Run("IsNull", func(t *testing.T) {
		got := collect(t, db.Scan("t").Where(Pred{Col: 1, Op: IsNull}))
		if len(got) != 10 {
			t.Fatalf("got %d rows, want 10", len(got))
		}
	})

	t.Run("NotNull", func(t *testing.T) {
		got := collect(t, db.Scan("t").Where(Pred{Col: 1, Op: NotNull}))
		if len(got) != 990 {
			t.Fatalf("got %d rows, want 990", len(got))
		}
	})

	t.Run("FloatCompare", func(t *testing.T) {
		got := collect(t, db.Scan("t").Where(Pred{Col: 2, Op: Gt, Val: 99.8}))
		if len(got) != 1 { // only i=999 has f=99.9
			t.Fatalf("got %d rows, want 1", len(got))
		}
	})

	t.Run("WrongTypeMatchesNothing", func(t *testing.T) {
		got := collect(t, db.Scan("t").Where(Pred{Col: 0, Op: Eq, Val: "7"}))
		if len(got) != 0 {
			t.Fatalf("got %d rows, want 0", len(got))
		}
	})

	t.Run("ComposesWithFilterAndJoin", func(t *testing.T) {
		dim := &Table{Name: "dim", Cols: []string{"k", "name"}}
		for i := 0; i < 1000; i++ {
			dim.Rows = append(dim.Rows, Row{i, i * 2})
		}
		if err := db.Register(dim.Name, FromTable(dim)); err != nil {
			t.Fatal(err)
		}
		q := db.Scan("t").Filter(func(r Row) bool { return r[0].(int)%2 == 1 }).
			Where(Pred{Col: 0, Op: Lt, Val: 100}).
			Join(db.Scan("dim"), KeyCol(0), KeyCol(0))
		got := collect(t, q)
		if len(got) != 50 { // odd rows below 100
			t.Fatalf("got %d rows, want 50", len(got))
		}
	})

	// The same condition as a Filter closure and as a Where predicate:
	// the row path and the columnar-kernel path return the same rows.
	t.Run("FilterMatchesWhere", func(t *testing.T) {
		join := func(scan *Query) []string {
			return canonRows(collect(t, scan.Join(db.Scan("t"), KeyCol(0), KeyCol(0))))
		}
		byFilter := join(db.Scan("t").Filter(func(r Row) bool { return r[0].(int) < 10 }))
		byWhere := join(db.Scan("t").Where(Pred{Col: 0, Op: Lt, Val: 10}))
		if len(byFilter) != 10 || !slices.Equal(byFilter, byWhere) {
			t.Fatalf("Filter and Where diverge: %d vs %d rows", len(byFilter), len(byWhere))
		}
	})

	t.Run("CloneIsolation", func(t *testing.T) {
		base := db.Scan("t")
		narrowed := base.Where(Pred{Col: 0, Op: Lt, Val: 10})
		if got := collect(t, narrowed); len(got) != 10 {
			t.Fatalf("narrowed query got %d rows, want 10", len(got))
		}
		if got := collect(t, base); len(got) != 1000 {
			t.Fatalf("base query mutated by Where: %d rows, want 1000", len(got))
		}
	})

	t.Run("WhereWithoutScan", func(t *testing.T) {
		q := db.Scan("t").Join(db.Scan("t"), KeyCol(0), KeyCol(0)).Where(Pred{Col: 0, Op: Eq, Val: 1})
		if _, _, err := q.Collect(context.Background()); err == nil ||
			!strings.Contains(err.Error(), "Where must follow Scan, Where or Filter") {
			t.Fatalf("Where after Join reported %v", err)
		}
	})
}
