package exec

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func tbl(name string, n int, key func(i int) any, payload func(i int) any) *Table {
	t := &Table{Name: name, Cols: []string{"k", "v"}}
	for i := 0; i < n; i++ {
		t.Rows = append(t.Rows, Row{key(i), payload(i)})
	}
	return t
}

// nestedJoin is the reference implementation.
func nestedJoin(probe, build *Table, pk, bk int) []Row {
	var out []Row
	for _, p := range probe.Rows {
		for _, b := range build.Rows {
			if p[pk] == b[bk] {
				r := append(append(Row{}, p...), b...)
				out = append(out, r)
			}
		}
	}
	return out
}

func canon(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint([]any(r))
	}
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, got, want []Row) {
	t.Helper()
	g, w := canon(got), canon(want)
	if len(g) != len(w) {
		t.Fatalf("row counts: got %d want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d: got %s want %s", i, g[i], w[i])
		}
	}
}

func TestSingleJoinMatchesNestedLoop(t *testing.T) {
	checkQueryHygiene(t)
	build := tbl("b", 100, func(i int) any { return i % 37 }, func(i int) any { return fmt.Sprintf("b%d", i) })
	probe := tbl("p", 300, func(i int) any { return i % 53 }, func(i int) any { return fmt.Sprintf("p%d", i) })
	plan := &Join{
		Build:    &Scan{Table: build},
		Probe:    &Scan{Table: probe},
		BuildKey: 0,
		ProbeKey: 0,
	}
	got, stats, err := runOnce(context.Background(), plan, nil, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, nestedJoin(probe, build, 0, 0))
	if stats.Activations == 0 {
		t.Fatal("no activations counted")
	}
}

func TestFilterApplied(t *testing.T) {
	checkQueryHygiene(t)
	build := tbl("b", 50, func(i int) any { return i }, func(i int) any { return i })
	probe := tbl("p", 50, func(i int) any { return i }, func(i int) any { return i })
	plan := &Join{
		Build:    &Scan{Table: build},
		Probe:    &Scan{Table: probe, Filter: func(r Row) bool { return r[0].(int) < 10 }},
		BuildKey: 0,
		ProbeKey: 0,
	}
	got, _, err := runOnce(context.Background(), plan, nil, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d rows, want 10", len(got))
	}
}

func TestMultiJoinChain(t *testing.T) {
	checkQueryHygiene(t)
	fact := tbl("f", 500, func(i int) any { return i % 40 }, func(i int) any { return i })
	d1 := tbl("d1", 40, func(i int) any { return i }, func(i int) any { return fmt.Sprintf("x%d", i) })
	d2 := tbl("d2", 40, func(i int) any { return i }, func(i int) any { return fmt.Sprintf("y%d", i) })
	// (fact JOIN d1 on fact.k) JOIN d2 on fact.k (column 0 survives as
	// the first output column of the default combiner).
	plan := &Join{
		Build: &Scan{Table: d2},
		Probe: &Join{
			Build:    &Scan{Table: d1},
			Probe:    &Scan{Table: fact},
			BuildKey: 0,
			ProbeKey: 0,
		},
		BuildKey: 0,
		ProbeKey: 0,
	}
	got, _, err := runOnce(context.Background(), plan, nil, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Every fact row matches exactly one d1 and one d2 row.
	if len(got) != 500 {
		t.Fatalf("got %d rows, want 500", len(got))
	}
	for _, r := range got {
		if len(r) != 6 {
			t.Fatalf("row width %d, want 6", len(r))
		}
	}
}

func TestBushyTree(t *testing.T) {
	checkQueryHygiene(t)
	a := tbl("a", 60, func(i int) any { return i % 20 }, func(i int) any { return i })
	b := tbl("b", 20, func(i int) any { return i }, func(i int) any { return i })
	c := tbl("c", 80, func(i int) any { return i % 20 }, func(i int) any { return i })
	d := tbl("d", 20, func(i int) any { return i }, func(i int) any { return i })
	// (a JOIN b) JOIN (c JOIN d), joined on the shared key in column 0.
	left := &Join{Build: &Scan{Table: b}, Probe: &Scan{Table: a}, BuildKey: 0, ProbeKey: 0}
	right := &Join{Build: &Scan{Table: d}, Probe: &Scan{Table: c}, BuildKey: 0, ProbeKey: 0}
	plan := &Join{Build: right, Probe: left, BuildKey: 0, ProbeKey: 0}
	got, _, err := runOnce(context.Background(), plan, nil, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// a x b: 60 rows (each a matches one b). c x d: 80 rows. Final: each
	// (a,b) row with key k matches the (c,d) rows with key k: a keys are
	// i%20 uniform 3 each; c keys i%20 uniform 4 each -> 60*4 = 240.
	if len(got) != 240 {
		t.Fatalf("got %d rows, want 240", len(got))
	}
}

func TestStaticMatchesDynamic(t *testing.T) {
	checkQueryHygiene(t)
	build := tbl("b", 200, func(i int) any { return i % 31 }, func(i int) any { return i })
	probe := tbl("p", 400, func(i int) any { return i % 31 }, func(i int) any { return i })
	plan := &Join{Build: &Scan{Table: build}, Probe: &Scan{Table: probe}, BuildKey: 0, ProbeKey: 0}
	dyn, _, err := runOnce(context.Background(), plan, nil, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := runOnce(context.Background(), plan, nil, Options{Workers: 4, Static: true})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, st, dyn)
}

func TestEmptyInputs(t *testing.T) {
	checkQueryHygiene(t)
	empty := &Table{Name: "e", Cols: []string{"k"}}
	full := tbl("f", 10, func(i int) any { return i }, func(i int) any { return i })
	for _, plan := range []*Join{
		{Build: &Scan{Table: empty}, Probe: &Scan{Table: full}, BuildKey: 0, ProbeKey: 0},
		{Build: &Scan{Table: full}, Probe: &Scan{Table: empty}, BuildKey: 0, ProbeKey: 0},
	} {
		got, _, err := runOnce(context.Background(), plan, nil, Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("join with empty input returned %d rows", len(got))
		}
	}
}

func TestStringAndMixedKeys(t *testing.T) {
	checkQueryHygiene(t)
	build := tbl("b", 30, func(i int) any { return fmt.Sprintf("k%d", i%10) }, func(i int) any { return i })
	probe := tbl("p", 50, func(i int) any { return fmt.Sprintf("k%d", i%10) }, func(i int) any { return i })
	plan := &Join{Build: &Scan{Table: build}, Probe: &Scan{Table: probe}, BuildKey: 0, ProbeKey: 0}
	got, _, err := runOnce(context.Background(), plan, nil, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, nestedJoin(probe, build, 0, 0))
}

func TestJoinOut(t *testing.T) {
	checkQueryHygiene(t)
	build := tbl("b", 5, func(i int) any { return i }, func(i int) any { return i * 10 })
	probe := tbl("p", 5, func(i int) any { return i }, func(i int) any { return i })
	plan := &Join{
		Build:    &Scan{Table: build},
		Probe:    &Scan{Table: probe},
		BuildKey: 0,
		ProbeKey: 0,
		Out:      []int{0, 3}, // probe k, build v
	}
	got, _, err := runOnce(context.Background(), plan, nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if len(r) != 2 || r[1].(int) != r[0].(int)*10 {
			t.Fatalf("join Out output wrong: %v", r)
		}
	}
}

func TestContextCancel(t *testing.T) {
	checkQueryHygiene(t)
	big := tbl("b", 200000, func(i int) any { return i }, func(i int) any { return i })
	plan := &Join{Build: &Scan{Table: big}, Probe: &Scan{Table: big}, BuildKey: 0, ProbeKey: 0}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := runOnce(ctx, plan, nil, Options{Workers: 2}); err == nil {
		t.Fatal("cancelled context did not error")
	}
}

func TestErrors(t *testing.T) {
	if _, _, err := runOnce(context.Background(), nil, nil, Options{}); err == nil {
		t.Fatal("nil plan accepted")
	}
	if _, _, err := runOnce(context.Background(), &Scan{}, nil, Options{}); err == nil {
		t.Fatal("scan without table accepted")
	}
	if _, _, err := runOnce(context.Background(), &Join{Build: &Scan{Table: &Table{}}, Probe: &Scan{Table: &Table{}}}, nil, Options{}); err == nil {
		t.Fatal("join without keys accepted")
	}
}

func TestQuickJoinEquivalence(t *testing.T) {
	checkQueryHygiene(t)
	f := func(seedB, seedP uint16, nb, np uint8, mod uint8) bool {
		m := int(mod%13) + 1
		build := tbl("b", int(nb%40)+1, func(i int) any { return (i + int(seedB)) % m }, func(i int) any { return i })
		probe := tbl("p", int(np%60)+1, func(i int) any { return (i + int(seedP)) % m }, func(i int) any { return i })
		plan := &Join{Build: &Scan{Table: build}, Probe: &Scan{Table: probe}, BuildKey: 0, ProbeKey: 0}
		got, _, err := runOnce(context.Background(), plan, nil, Options{Workers: 3, Morsel: 7, Batch: 5})
		if err != nil {
			return false
		}
		want := nestedJoin(probe, build, 0, 0)
		g, w := canon(got), canon(want)
		if len(g) != len(w) {
			return false
		}
		for i := range g {
			if g[i] != w[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTableHelpers(t *testing.T) {
	tb := &Table{Name: "t", Cols: []string{"a", "b"}, Rows: []Row{{1, 2}}}
	if tb.NumRows() != 1 {
		t.Fatal("NumRows")
	}
	if tb.Col("b") != 1 || tb.Col("z") != -1 {
		t.Fatal("Col")
	}
}

func TestImbalanceStat(t *testing.T) {
	s := &Stats{PerWorker: []int64{10, 10, 10, 10}}
	if s.Imbalance() != 1 {
		t.Fatalf("balanced imbalance = %v", s.Imbalance())
	}
	s = &Stats{PerWorker: []int64{40, 0, 0, 0}}
	if s.Imbalance() != 4 {
		t.Fatalf("imbalance = %v", s.Imbalance())
	}
}
