package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func aggPlan(n, mod int) Node {
	build := tbl("b", mod, func(i int) any { return i }, func(i int) any { return i })
	probe := tbl("p", n, func(i int) any { return i % mod }, func(i int) any { return i })
	return &Join{Build: &Scan{Table: build}, Probe: &Scan{Table: probe},
		BuildKey: 0, ProbeKey: 0}
}

func TestGroupByCount(t *testing.T) {
	checkQueryHygiene(t)
	plan := aggPlan(100, 4)
	gb := &GroupBy{Key: 0, Aggs: []Aggregation{{Func: Count}}}
	rows, _, err := runOnce(context.Background(), plan, gb, EngineConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d groups, want 4", len(rows))
	}
	var total int64
	for _, r := range rows {
		total += r[1].(int64)
	}
	if total != 100 {
		t.Fatalf("counts sum to %d", total)
	}
}

func TestGroupBySumMinMax(t *testing.T) {
	checkQueryHygiene(t)
	plan := aggPlan(40, 2)
	arg := func(r Row) float64 { return float64(r[1].(int)) } // probe value column
	// Values past the old ±1e308 starting sentinels: a group's first value
	// must replace the starting point whatever it is.
	huge := func(r Row) float64 { return 1.5e308 }
	gb := &GroupBy{Key: 0, Aggs: []Aggregation{
		{Func: Sum, Arg: arg},
		{Func: Min, Arg: arg},
		{Func: Max, Arg: arg},
		{Func: Min, Arg: huge},
		{Func: Max, Arg: func(r Row) float64 { return -huge(r) }},
		{Func: Min, Arg: func(Row) float64 { return math.Inf(1) }},
	}}
	rows, _, err := runOnce(context.Background(), plan, gb, EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d groups", len(rows))
	}
	// Group 0: probe values 0,2,...,38 -> sum 380, min 0, max 38.
	g0 := rows[0]
	if g0[0].(int) != 0 || g0[1].(float64) != 380 || g0[2].(float64) != 0 || g0[3].(float64) != 38 {
		t.Fatalf("group 0 = %v", g0)
	}
	// Group 1: 1,3,...,39 -> sum 400, min 1, max 39.
	g1 := rows[1]
	if g1[1].(float64) != 400 || g1[2].(float64) != 1 || g1[3].(float64) != 39 {
		t.Fatalf("group 1 = %v", g1)
	}
	for _, g := range rows {
		if g[4].(float64) != 1.5e308 || g[5].(float64) != -1.5e308 || !math.IsInf(g[6].(float64), 1) {
			t.Fatalf("min{1.5e308}, max{-1.5e308}, min{+Inf} = %v, %v, %v", g[4], g[5], g[6])
		}
	}
}

func TestGroupByDeterministicOrder(t *testing.T) {
	checkQueryHygiene(t)
	plan := aggPlan(200, 7)
	gb := &GroupBy{Key: 0, Aggs: []Aggregation{{Func: Count}}}
	a, _, err := runOnce(context.Background(), plan, gb, EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := runOnce(context.Background(), plan, gb, EngineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("group counts differ across worker counts")
	}
	for i := range a {
		if a[i][0] != b[i][0] || a[i][1] != b[i][1] {
			t.Fatalf("row %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGroupByErrors(t *testing.T) {
	plan := aggPlan(10, 2)
	arg := func(Row) float64 { return 0 }
	for _, tc := range []struct {
		what string
		agg  Aggregation
	}{
		{"sum without Arg", Aggregation{Func: Sum}},
		{"AggFunc(4)", Aggregation{Func: 4, Arg: arg}},
		{"AggFunc(-1)", Aggregation{Func: -1, Arg: arg}},
	} {
		_, _, err := runOnce(context.Background(), plan, &GroupBy{Key: 0, Aggs: []Aggregation{tc.agg}}, EngineConfig{})
		if err == nil {
			t.Fatalf("%s accepted", tc.what)
		}
		if errors.Is(err, ErrQueryPanic) {
			t.Fatalf("%s failed during execution, not before: %v", tc.what, err)
		}
	}
}

func TestGroupByQuickCountsConserved(t *testing.T) {
	checkQueryHygiene(t)
	f := func(nRaw, modRaw uint8) bool {
		n := int(nRaw%100) + 1
		mod := int(modRaw%9) + 1
		gb := &GroupBy{Key: 0, Aggs: []Aggregation{{Func: Count}}}
		rows, _, err := runOnce(context.Background(), aggPlan(n, mod), gb, EngineConfig{Workers: 3})
		if err != nil {
			return false
		}
		var total int64
		for _, r := range rows {
			total += r[1].(int64)
		}
		return total == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAggFuncString(t *testing.T) {
	if Count.String() != "count" || Sum.String() != "sum" || Min.String() != "min" || Max.String() != "max" {
		t.Error("bad agg names")
	}
}

// TestGroupOrderKeysThatPrintAlike: 1, int64(1) and "1" in an Any column
// are three groups that format alike; they come out ordered by their Go
// type, in the same order on every run and at every node count. 0.0 and
// -0.0 are one key, typed or boxed in an Any column: their group counts
// every zero and prints 0 whichever sign the partial that created it saw,
// while each NaN row is a group of its own.
func TestGroupOrderKeysThatPrintAlike(t *testing.T) {
	checkQueryHygiene(t)
	negZero, nan := math.Copysign(0, -1), math.NaN()
	for _, tc := range []struct {
		name   string
		keys   []any
		morsel int // 0: the default; 2 deals the rows to every worker
		want   string
	}{
		{"print-alike", []any{"1", 1, int64(1), 2, 1, int64(1), 2, 1, 2, 2}, 0,
			"int 1: 3, int64 1: 2, string 1: 1, int 2: 4, "},
		{"signed-zero-nan", []any{negZero, 0.0, nan, negZero, negZero, 1.5, 0.0, nan, negZero, 0.0}, 2,
			"float64 0: 7, float64 1.5: 1, float64 NaN: 1, float64 NaN: 1, "},
		{"signed-zero-any", []any{negZero, 0, "x", 0.0, negZero, negZero, 0.0, negZero}, 2,
			"float64 0: 6, int 0: 1, string x: 1, "},
	} {
		tb := &Table{Name: "a", Cols: []string{"k"}}
		for _, k := range tc.keys {
			tb.Rows = append(tb.Rows, Row{k})
		}
		gb := &GroupBy{Key: 0, Aggs: []Aggregation{{Func: Count}}}
		for _, nodes := range []int{1, 2} {
			for run := 0; run < 20; run++ {
				rows, _, err := runOnce(context.Background(), &Scan{Table: tb}, gb, EngineConfig{Nodes: nodes, Workers: 2, Morsel: tc.morsel})
				if err != nil {
					t.Fatal(err)
				}
				got := ""
				for _, r := range rows {
					got += fmt.Sprintf("%T %v: %v, ", r[0], r[0], r[1])
				}
				if got != tc.want {
					t.Fatalf("%s, nodes=%d run %d:\n got %s\nwant %s", tc.name, nodes, run, got, tc.want)
				}
			}
		}
	}
}
