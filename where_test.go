package hierdb

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hierdb/internal/leaktest"
	"hierdb/internal/store"
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

	// Every operator on every column kind, through scan windows that
	// start past row 0 (a resident table's morsels after the first) and
	// through the chunk decoder (the same rows FromFile), at one and two
	// nodes, against a row-at-a-time reference.
	t.Run("WindowsAcrossMorsels", func(t *testing.T) {
		const morsel = 1024
		n := 3*morsel + 5
		cols := []string{"i", "f", "u", "b", "s", "id"}
		rows := make([]Row, n)
		for r := range rows {
			var i any = r%7 - 3
			if r%5 == 0 {
				i = nil
			}
			f := float64(r%13)/2 - 3
			if r%11 == 0 {
				f = math.NaN()
			}
			rows[r] = Row{i, f, uint64(r%9) << 60, r%3 == 0, fmt.Sprintf("s%02d", r%17), r}
		}
		path := filepath.Join(t.TempDir(), "w.hdb")
		if err := store.WriteTable(path, cols, 64, rows); err != nil {
			t.Fatal(err)
		}
		vals := [][]any{
			{0, int64(-2), 3.0},
			{0.5, math.NaN(), math.Copysign(0, -1), 2},
			{uint64(4) << 60, uint64(1) << 63, 4},
			{true, false},
			{"s08", "", 8},
		}
		// A Filter closure alone walks each window with no selection;
		// behind a predicate it walks the predicate's survivors.
		odd := func(r Row) bool { return r[5].(int)%2 == 1 }
		ge := Pred{Col: 0, Op: Ge, Val: 0}
		var wantOdd, wantBoth []int
		for _, r := range rows {
			if odd(r) {
				wantOdd = append(wantOdd, r[5].(int))
				if refPredHolds(r[0], ge) {
					wantBoth = append(wantBoth, r[5].(int))
				}
			}
		}
		for _, nodes := range []int{1, 2} {
			db := Open(WithNodes(nodes), WithWorkers(2), WithMorsel(morsel))
			t.Cleanup(func() { db.Close() })
			if err := db.Register("mem", FromTable(&Table{Name: "mem", Cols: cols, Rows: rows})); err != nil {
				t.Fatal(err)
			}
			if err := db.Register("file", FromFile(path)); err != nil {
				t.Fatal(err)
			}
			for _, table := range []string{"mem", "file"} {
				for _, c := range []struct {
					q    *Query
					want []int
				}{
					{db.Scan(table).Filter(odd), wantOdd},
					{db.Scan(table).Where(ge).Filter(odd), wantBoth},
				} {
					var got []int
					for _, r := range collect(t, c.q) {
						got = append(got, r[5].(int))
					}
					slices.Sort(got)
					if !slices.Equal(got, c.want) {
						t.Fatalf("%d nodes, %s, Filter: %d rows, want %d", nodes, table, len(got), len(c.want))
					}
				}
			}
			for col, cvals := range vals {
				for op := Eq; op <= NotNull; op++ {
					for _, v := range cvals {
						p := Pred{Col: col, Op: op, Val: v}
						var want []int
						for _, r := range rows {
							if refPredHolds(r[col], p) {
								want = append(want, r[5].(int))
							}
						}
						for _, table := range []string{"mem", "file"} {
							var got []int
							for _, r := range collect(t, db.Scan(table).Where(p)) {
								got = append(got, r[5].(int))
							}
							slices.Sort(got)
							if !slices.Equal(got, want) {
								t.Fatalf("%d nodes, %s, %s %v %v: %d rows, want %d", nodes, table, cols[col], p.Op, v, len(got), len(want))
							}
						}
					}
				}
			}
		}
	})

	t.Run("FilterRaggedRows", func(t *testing.T) {
		// Rows one to four values wide, the width changing every row, so
		// the Filter's row tiles hold rows of every width and the nulls a
		// short row reads as cross every tile edge; across morsel windows,
		// on one node and two, alone and behind a predicate. The closure
		// keeps a row only if it sees exactly the row stored, four wide and
		// null in the columns it lacks: its width, its values, and every
		// third row refused.
		const morsel = 1024
		n := 3*morsel + 5
		rows := make([]Row, n)
		for i := range rows {
			var last any = i * 10
			if i%7 == 0 {
				last = nil
			}
			rows[i] = Row{i, fmt.Sprintf("s%d", i), float64(i) / 2, last}[:1+i%4]
		}
		padded := func(i int) Row {
			return append(rows[i][:len(rows[i]):len(rows[i])], make(Row, 4-len(rows[i]))...)
		}
		seen := func(r Row) bool {
			i := r[0].(int)
			return slices.Equal(r, padded(i)) && i%3 != 0
		}
		for _, nodes := range []int{1, 2} {
			db := Open(WithNodes(nodes), WithWorkers(2), WithMorsel(morsel))
			t.Cleanup(func() { db.Close() })
			if err := db.Register("ragged", FromTable(&Table{Name: "ragged", Rows: rows})); err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				q    *Query
				from int
			}{
				{db.Scan("ragged").Filter(seen), 0},
				{db.Scan("ragged").Where(Pred{Col: 0, Op: Ge, Val: 100}).Filter(seen), 100},
			} {
				got := collect(t, c.q)
				slices.SortFunc(got, func(a, b Row) int { return cmp.Compare(a[0].(int), b[0].(int)) })
				var want []Row
				for i := c.from; i < n; i++ {
					if i%3 != 0 {
						want = append(want, padded(i))
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%d nodes, from row %d: %d rows kept, want %d", nodes, c.from, len(got), len(want))
				}
			}
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

// refPredHolds is Pred's documented semantics one value at a time: a
// null satisfies only IsNull, a constant outside the value's type family
// matches nothing, bools compare Eq/Ne only, and a NaN on either side
// of a float comparison compares equal.
func refPredHolds(v any, p Pred) bool {
	switch p.Op {
	case IsNull:
		return v == nil
	case NotNull:
		return v != nil
	}
	var c int
	switch x := v.(type) {
	case int:
		var w int64
		switch y := p.Val.(type) {
		case int:
			w = int64(y)
		case int32:
			w = int64(y)
		case int64:
			w = y
		default:
			return false
		}
		c = cmp.Compare(int64(x), w)
	case uint64:
		w, ok := p.Val.(uint64)
		if !ok {
			return false
		}
		c = cmp.Compare(x, w)
	case float64:
		w, ok := p.Val.(float64)
		if !ok {
			return false
		}
		switch {
		case x < w:
			c = -1
		case x > w:
			c = 1
		}
	case string:
		w, ok := p.Val.(string)
		if !ok {
			return false
		}
		c = cmp.Compare(x, w)
	case bool:
		w, ok := p.Val.(bool)
		if !ok || (p.Op != Eq && p.Op != Ne) {
			return false
		}
		return (x == w) == (p.Op == Eq)
	default:
		return false
	}
	switch p.Op {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	}
	return c >= 0 // Ge
}

// TestMissingValueIsNull: a row shorter than its table is null in the
// columns it lacks — in a projected join's output, to IsNull and
// NotNull, as a group key and in an aggregate's Arg row — on one node
// and two.
func TestMissingValueIsNull(t *testing.T) {
	leaktest.Check(t, 2)
	p := &Table{Name: "p", Cols: []string{"k", "x"}, Rows: []Row{{1, "p1"}, {2, "p2"}}}
	r := &Table{Name: "r", Cols: []string{"k", "s"}, Rows: []Row{{1, "r1"}, {2}}}
	for _, nodes := range []int{1, 2} {
		db := Open(WithNodes(nodes), WithWorkers(2))
		defer db.Close()
		for _, tb := range []*Table{p, r} {
			if err := db.Register(tb.Name, FromTable(tb)); err != nil {
				t.Fatal(err)
			}
		}
		check := func(what string, q *Query, want ...Row) {
			t.Helper()
			got, _, err := q.Collect(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			slices.SortFunc(got, func(a, b Row) int { return cmp.Compare(fmt.Sprint(a), fmt.Sprint(b)) })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d nodes, %s: got %#v, want %#v", nodes, what, got, want)
			}
		}
		join := db.Scan("p").Join(db.Scan("r"), KeyCol(0), KeyCol(0)).Project(3, 0, 1, 2)
		check("projected join", join, Row{nil, 2, "p2", 2}, Row{"r1", 1, "p1", 1})
		check("IsNull", db.Scan("r").Where(Pred{Col: 1, Op: IsNull}), Row{2, nil})
		check("NotNull", db.Scan("r").Where(Pred{Col: 1, Op: NotNull}), Row{1, "r1"})
		check("group key", db.Scan("r").GroupBy(KeyCol(1), Aggregation{Func: Count}),
			Row{nil, int64(1)}, Row{"r1", int64(1)})
		width := Aggregation{Func: Max, Arg: func(r Row) float64 { return float64(len(r)) }}
		check("Arg row", join.GroupBy(KeyCol(1), width), Row{1, 4.0}, Row{2, 4.0})
	}
}
