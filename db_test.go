package hierdb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"hierdb/internal/exec"
	"hierdb/internal/leaktest"
)

func testDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db := Open(opts...)
	t.Cleanup(func() { db.Close() })
	reg := func(name string, n int, key func(i int) any, payload func(i int) any) {
		tb := &Table{Name: name, Cols: []string{"k", "v"}}
		for i := 0; i < n; i++ {
			tb.Rows = append(tb.Rows, Row{key(i), payload(i)})
		}
		if err := db.Register(tb.Name, FromTable(tb)); err != nil {
			t.Fatal(err)
		}
	}
	reg("orders", 900, func(i int) any { return i % 30 }, func(i int) any { return i })
	reg("lines", 30, func(i int) any { return i }, func(i int) any { return fmt.Sprintf("l%d", i) })
	reg("regions", 30, func(i int) any { return i }, func(i int) any { return fmt.Sprintf("r%d", i%5) })
	return db
}

func canonRows(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint([]any(r))
	}
	sort.Strings(out)
	return out
}

func TestDBQueryBuilder(t *testing.T) {
	leaktest.Check(t, 2)
	db := testDB(t, WithWorkers(4))

	// Streaming join through Rows.
	q := db.Scan("orders").Join(db.Scan("lines"), KeyCol(0), KeyCol(0))
	rows, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		if len(rows.Row()) != 4 {
			t.Fatalf("row width %d", len(rows.Row()))
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 900 {
		t.Fatalf("streamed %d rows, want 900", n)
	}
	st := rows.Stats()
	if st.ResultRows != 900 || st.Activations == 0 {
		t.Fatalf("stats %+v", st)
	}

	// The same query materialized, against the join computed by hand.
	var want []Row
	for i := 0; i < 900; i++ {
		want = append(want, Row{i % 30, i, i % 30, fmt.Sprintf("l%d", i%30)})
	}
	got, _, err := q.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	g, w := canonRows(got), canonRows(want)
	if len(g) != len(w) {
		t.Fatalf("builder %d rows, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d: %s vs %s", i, g[i], w[i])
		}
	}
}

func TestDBWhereProjectGroupBy(t *testing.T) {
	leaktest.Check(t, 2)
	db := testDB(t)
	report, _, err := db.Scan("orders").Where(Pred{Col: 0, Op: Lt, Val: 10}).
		Join(db.Scan("regions"), KeyCol(0), KeyCol(0)).
		Project(3, 1). // region name, order payload: the group key is a projected column
		GroupBy(KeyCol(0), Aggregation{Func: Count}, Aggregation{Func: Sum, Arg: func(r Row) float64 { return float64(r[1].(int)) }}).
		Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Keys 0..9 map onto regions r0..r4, two keys each, 30 orders per
	// pair of keys.
	if len(report) != 5 {
		t.Fatalf("%d groups, want 5", len(report))
	}
	var total int64
	for _, r := range report {
		total += r[1].(int64)
	}
	if total != 300 {
		t.Fatalf("group counts sum to %d, want 300", total)
	}
}

// TestDBConcurrentQueries runs distinct queries from many goroutines on
// one handle and checks results and stats stay isolated (the facade leg
// of the engine's -race concurrency check).
func TestDBConcurrentQueries(t *testing.T) {
	leaktest.Check(t, 2)
	db := testDB(t, WithWorkers(4))
	const n = 8
	want := make([][]string, n)
	queries := make([]*Query, n)
	for i := 0; i < n; i++ {
		lo := i
		queries[i] = db.Scan("orders").Where(Pred{Col: 0, Op: Ge, Val: lo}).
			Join(db.Scan("lines"), KeyCol(0), KeyCol(0))
		ref, _, err := queries[i].Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = canonRows(ref)
	}
	var wg sync.WaitGroup
	got := make([][]string, n)
	stats := make([]*EngineStats, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows, st, err := queries[i].Collect(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			got[i], stats[i] = canonRows(rows), st
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 0; i < n; i++ {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("query %d: %d rows concurrent vs %d alone", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("query %d row %d differs", i, j)
			}
		}
		if stats[i].ResultRows != int64(len(got[i])) {
			t.Fatalf("query %d stats not isolated: %d vs %d rows", i, stats[i].ResultRows, len(got[i]))
		}
	}
}

// TestProject: Project must not mutate the shared join node — two
// refinements of one base query stay independent, and the base keeps the
// whole concatenation — a column may repeat or be dropped, and a later
// Join key counts columns in the projected row.
func TestProject(t *testing.T) {
	leaktest.Check(t, 2)
	db := testDB(t)
	ctx := context.Background()
	base := db.Scan("orders").Join(db.Scan("lines"), KeyCol(0), KeyCol(0))
	narrow := base.Project(0)
	wide := base.Project(0, 1, 3)
	for q, width := range map[*Query]int{base: 4, narrow: 1, wide: 3} {
		rows, _, err := q.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 900 || len(rows[0]) != width {
			t.Fatalf("got %d rows of width %d, want 900 of %d", len(rows), len(rows[0]), width)
		}
	}
	// [order payload, order payload, line name]: one column twice, both
	// key columns dropped.
	rows, _, err := base.Project(1, 1, 3).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r) != 3 || r[0] != r[1] || r[2] != fmt.Sprintf("l%d", r[0].(int)%30) {
			t.Fatalf("Project(1, 1, 3) row %v", r)
		}
	}
	// The next join's probe key is column 1 of the projected row (the
	// order key, column 0 before the projection), on one node and on two.
	for _, nodes := range []int{1, 2} {
		db := testDB(t, WithNodes(nodes), WithWorkers(2))
		rows, _, err := db.Scan("orders").Join(db.Scan("lines"), KeyCol(0), KeyCol(0)).Project(1, 0).
			Join(db.Scan("regions"), KeyCol(1), KeyCol(0)).Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 900 {
			t.Fatalf("%d node(s): %d rows, want 900", nodes, len(rows))
		}
		for _, r := range rows {
			k := r[0].(int) % 30
			if len(r) != 4 || r[1] != k || r[2] != k || r[3] != fmt.Sprintf("r%d", k%5) {
				t.Fatalf("%d node(s): row %v", nodes, r)
			}
		}
	}
}

func TestDBValidationErrors(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"unregistered table", func() error {
			_, err := db.Scan("nosuch").Run(ctx)
			return err
		}, `table "nosuch" not registered`},
		{"unregistered build side", func() error {
			_, err := db.Scan("orders").Join(db.Scan("nosuch"), KeyCol(0), KeyCol(0)).Run(ctx)
			return err
		}, `table "nosuch" not registered`},
		{"probe key past the input", func() error {
			_, err := db.Scan("orders").Join(db.Scan("lines"), KeyCol(9), KeyCol(0)).Run(ctx)
			return err
		}, "ProbeKey column 9 out of range (probe input has 2 columns)"},
		{"key past a projected input", func() error {
			_, err := db.Scan("orders").Join(db.Scan("lines"), KeyCol(0), KeyCol(0)).Project(3).
				Join(db.Scan("regions"), KeyCol(1), KeyCol(0)).Run(ctx)
			return err
		}, "ProbeKey column 1 out of range (probe input has 1 columns)"},
		{"group-by not last", func() error {
			gq := db.Scan("orders").GroupBy(KeyCol(0), Aggregation{Func: Count})
			_, err := gq.Join(db.Scan("lines"), KeyCol(0), KeyCol(0)).Run(ctx)
			return err
		}, "GroupBy must be the final step"},
		{"group-by key past the output", func() error {
			_, err := db.Scan("orders").GroupBy(KeyCol(2)).Run(ctx)
			return err
		}, "group-by Key column 2 out of range (plan output has 2 columns)"},
		{"sum without Arg", func() error {
			_, err := db.Scan("orders").GroupBy(KeyCol(0), Aggregation{Func: Sum}).Run(ctx)
			return err
		}, "without Arg"},
		{"project before join", func() error {
			_, err := db.Scan("orders").Project(0).Run(ctx)
			return err
		}, "Project without a preceding Join"},
		{"project without columns", func() error {
			_, err := db.Scan("orders").Join(db.Scan("lines"), KeyCol(0), KeyCol(0)).Project().Run(ctx)
			return err
		}, "Project without columns"},
		{"project past the concatenation", func() error {
			_, err := db.Scan("orders").Join(db.Scan("lines"), KeyCol(0), KeyCol(0)).Project(0, 4).Run(ctx)
			return err
		}, "Out column 4 out of range"},
		{"filter after join", func() error {
			_, err := db.Scan("orders").Join(db.Scan("lines"), KeyCol(0), KeyCol(0)).Filter(func(Row) bool { return true }).Run(ctx)
			return err
		}, "Filter must follow Scan, Where or Filter"},
		{"two filters", func() error {
			keep := func(Row) bool { return true }
			_, err := db.Scan("orders").Filter(keep).Filter(keep).Run(ctx)
			return err
		}, "Filter applied twice"},
		{"cross-DB join", func() error {
			other := Open()
			defer other.Close()
			if err := other.Register("t", FromTable(&Table{Cols: []string{"k"}, Rows: []Row{{1}}})); err != nil {
				return err
			}
			_, err := db.Scan("orders").Join(other.Scan("t"), KeyCol(0), KeyCol(0)).Run(ctx)
			return err
		}, "different DB handles"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestOpenOptionErrorsDeferred(t *testing.T) {
	db := Open(WithWorkers(-3))
	defer db.Close()
	if err := db.Register("t", FromTable(&Table{Cols: []string{"k"}, Rows: []Row{{1}}})); err == nil ||
		!strings.Contains(err.Error(), "negative Workers") {
		t.Fatalf("Register on invalid DB = %v", err)
	}
	if _, err := db.Scan("t").Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "negative Workers") {
		t.Fatalf("Run on invalid DB = %v", err)
	}
	bad := Open(WithNodes(-2))
	defer bad.Close()
	if _, err := bad.Scan("t").Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "negative Nodes") {
		t.Fatalf("Run on negative-nodes DB = %v", err)
	}
}

func TestRegisterErrors(t *testing.T) {
	db := Open()
	defer db.Close()
	if err := db.Register("t", FromTable(nil)); err == nil || !strings.Contains(err.Error(), "nil table") {
		t.Fatalf("nil table: %v", err)
	}
	if err := db.Register("", FromTable(&Table{})); err == nil {
		t.Fatal("unnamed table accepted")
	}
	tab := &Table{Name: "t", Cols: []string{"k"}}
	if err := db.Register(tab.Name, FromTable(tab)); err != nil {
		t.Fatal(err)
	}
	if err := db.Register(tab.Name, FromTable(tab)); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestRowsCloseEarlyReleasesPool(t *testing.T) {
	leaktest.Check(t, 2)
	db := Open(WithWorkers(2))
	defer db.Close()
	big := &Table{Name: "big", Cols: []string{"k"}}
	for i := 0; i < 300_000; i++ {
		big.Rows = append(big.Rows, Row{i})
	}
	if err := db.Register(big.Name, FromTable(big)); err != nil {
		t.Fatal(err)
	}
	q := db.Scan("big").Join(db.Scan("big"), KeyCol(0), KeyCol(0))
	rows, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Fatal("Next after Close")
	}
	// The abandoned query must not wedge the resident pool.
	n := 0
	small, err := db.Scan("big").Where(Pred{Col: 0, Op: Lt, Val: 100}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for small.Next() {
		n++
	}
	if err := small.Err(); err != nil || n != 100 {
		t.Fatalf("post-Close query: %d rows, err %v", n, err)
	}
}

func TestDBClosedErrors(t *testing.T) {
	db := testDB(t)
	q := db.Scan("orders")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Run on closed DB = %v", err)
	}
	if err := db.Register("x", FromTable(&Table{Cols: []string{"k"}})); err == nil {
		t.Fatal("Register on closed DB accepted")
	}
	if err := db.Close(); err != nil {
		t.Fatal("Close not idempotent")
	}
}

func TestMaxConcurrentQueriesOption(t *testing.T) {
	leaktest.Check(t, 2)
	db := Open(WithWorkers(2), WithMaxConcurrentQueries(1))
	defer db.Close()
	tab := &Table{Name: "t", Cols: []string{"k"}}
	for i := 0; i < 50_000; i++ {
		tab.Rows = append(tab.Rows, Row{i})
	}
	if err := db.Register(tab.Name, FromTable(tab)); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Scan("t").Join(db.Scan("t"), KeyCol(0), KeyCol(0)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The single admission slot is held: a second Run must respect ctx.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Scan("t").Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("admission-blocked Run = %v", err)
	}
	if _, err := rows.Collect(); err != nil {
		t.Fatal(err)
	}
	// Slot free again.
	if _, _, err := db.Scan("t").Where(Pred{Col: 0, Op: Lt, Val: 5}).Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDBMultiNodeSkewedMatchesSingleNode is the facade acceptance test
// for the hierarchical engine: a skewed workload on WithNodes(4) must
// produce exactly the single-node result, with steal counters > 0 in
// Stats; with WithStealing(false) the same workload reports zero steals
// and still the same rows.
func TestDBMultiNodeSkewedMatchesSingleNode(t *testing.T) {
	leaktest.Check(t, 2)
	const (
		nodes    = 4
		stripes  = 32 // per node; global buckets = nodes*stripes
		dimRows  = 400
		factRows = 60_000
	)
	// All join keys owned by node 0: scans stay balanced (partitioning
	// is positional) but every probe batch routes to node 0, starving
	// the other three nodes.
	hot := skewedKeys(t, nodes, stripes, dimRows)
	dim := &Table{Name: "dim", Cols: []string{"k", "v"}}
	for i, k := range hot {
		dim.Rows = append(dim.Rows, Row{k, fmt.Sprintf("d%d", i)})
	}
	fact := &Table{Name: "fact", Cols: []string{"k", "v"}}
	for i := 0; i < factRows; i++ {
		fact.Rows = append(fact.Rows, Row{hot[i%dimRows], i})
	}

	run := func(db *DB) ([]string, *EngineStats) {
		t.Helper()
		if err := db.Register(fact.Name, FromTable(fact)); err != nil {
			t.Fatal(err)
		}
		if err := db.Register(dim.Name, FromTable(dim)); err != nil {
			t.Fatal(err)
		}
		rows, st, err := db.Scan("fact").Join(db.Scan("dim"), KeyCol(0), KeyCol(0)).
			Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return canonRows(rows), st
	}

	single := Open(WithWorkers(2), WithStripes(stripes))
	defer single.Close()
	want, _ := run(single)
	if len(want) != factRows {
		t.Fatalf("single-node reference has %d rows, want %d", len(want), factRows)
	}

	var st *EngineStats
	var got []string
	for attempt := 0; attempt < 5; attempt++ {
		multi := Open(WithNodes(nodes), WithWorkers(2), WithStripes(stripes))
		got, st = run(multi)
		multi.Close()
		if st.Steals > 0 {
			break
		}
	}
	if len(got) != len(want) {
		t.Fatalf("WithNodes(%d): %d rows vs single-node %d", nodes, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d differs: %s vs %s", i, got[i], want[i])
		}
	}
	if st.Steals == 0 || st.StolenActivations == 0 {
		t.Fatalf("skewed 4-node workload fired no steals: %+v", st)
	}
	if len(st.Nodes) != nodes {
		t.Fatalf("Stats.Nodes has %d entries, want %d", len(st.Nodes), nodes)
	}

	noSteal := Open(WithNodes(nodes), WithWorkers(2), WithStripes(stripes), WithStealing(false))
	defer noSteal.Close()
	got, st = run(noSteal)
	if len(got) != len(want) {
		t.Fatalf("WithStealing(false): %d rows vs %d", len(got), len(want))
	}
	if st.Steals != 0 || st.StealRounds != 0 {
		t.Fatalf("WithStealing(false) still stole: %+v", st)
	}
}

// skewedKeys picks count int keys the multi-node engine's routing
// assigns to node 0 (via the engine's published owner rule).
func skewedKeys(t testing.TB, nodes, stripes, count int) []int {
	t.Helper()
	keys := make([]int, 0, count)
	for k := 0; len(keys) < count; k++ {
		if exec.OwnerNode(k, nodes, stripes) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestStaticModeOnDB(t *testing.T) {
	leaktest.Check(t, 2)
	dyn := testDB(t, WithWorkers(4))
	st := testDB(t, WithWorkers(4), WithStatic(true))
	q := func(db *DB) []string {
		rows, _, err := db.Scan("orders").Join(db.Scan("lines"), KeyCol(0), KeyCol(0)).Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return canonRows(rows)
	}
	a, b := q(dyn), q(st)
	if len(a) != len(b) {
		t.Fatalf("dynamic %d rows vs static %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs between scheduling modes", i)
		}
	}
}

// TestPointQueryAllocBytesBound is the point-query fixed-cost gate (run
// by CI): a one-row join through the facade must not pay for the
// streaming path's steady-state buffers — the workers' arenas start
// small and grow with the query, a build-side stripe exists only once a
// row is routed to it and indexes nothing until the seal — so the whole
// query, from Run to Close, allocates under 40 KiB; and what it
// allocates per query whatever the data — coordinator, fragment,
// operator queues, stats, and six objects per touched stripe of the
// 30-row build side (the 16 stripes, each born with a presized map and
// nine objects, were 195 of the 469 before the index moved to the seal)
// — stays within 344 heap objects.
func TestPointQueryAllocBytesBound(t *testing.T) {
	db := testDB(t, WithWorkers(4))
	point := func(k int) {
		rows, _, err := db.Scan("orders").Where(Pred{Col: 1, Op: Eq, Val: k}).
			Join(db.Scan("lines"), KeyCol(0), KeyCol(0)).Collect(context.Background())
		if err != nil || len(rows) != 1 || rows[0][1] != k {
			t.Fatalf("point lookup of %d: %v, %v", k, rows, err)
		}
	}
	point(0) // columnize the tables, start the pool
	const runs = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := 1; k <= runs; k++ {
		point(k)
	}
	runtime.ReadMemStats(&m1)
	if perQuery := (m1.TotalAlloc - m0.TotalAlloc) / runs; perQuery > 40<<10 {
		t.Fatalf("a one-row join allocates %d KiB, want <= 40", perQuery>>10)
	}
	if perQuery := float64(m1.Mallocs-m0.Mallocs) / runs; perQuery > 344 {
		t.Fatalf("a one-row join makes %.1f allocations, want <= 344", perQuery)
	}
	t.Logf("per query: %d B, %.1f mallocs", (m1.TotalAlloc-m0.TotalAlloc)/runs, float64(m1.Mallocs-m0.Mallocs)/runs)
}

// TestNegativeZeroKeyJoins: 0.0 and -0.0 are one join key — Go's == and
// map[any], the engine's semantic reference, equate them — so the two
// must hash alike: route to one node, one stripe, one spill partition,
// one index slot. NaN is no key at all. Resident and spilling under a
// budget, on one node and on two.
func TestNegativeZeroKeyJoins(t *testing.T) {
	negZero := math.Copysign(0, -1)
	a := &Table{Name: "a", Cols: []string{"k", "v"}}
	b := &Table{Name: "b", Cols: []string{"k", "w"}}
	for i := 0; i < 600; i++ {
		a.Rows = append(a.Rows, Row{[]float64{0, negZero, math.NaN(), float64(i)}[i%4], i})
		b.Rows = append(b.Rows, Row{[]float64{negZero, 0, math.NaN(), float64(i) + 0.5}[i%4], fmt.Sprintf("w%d", i)})
	}
	// Each side has 300 zeros of either sign; nothing else meets.
	const want = 300 * 300
	for _, nodes := range []int{1, 2} {
		for _, governed := range []bool{false, true} {
			opts := []Option{WithNodes(nodes), WithWorkers(2)}
			if governed {
				opts = append(opts, WithMemory(8<<10), WithSpillDir(t.TempDir()))
			}
			db := Open(opts...)
			for _, tb := range []*Table{a, b} {
				if err := db.Register(tb.Name, FromTable(tb)); err != nil {
					t.Fatal(err)
				}
			}
			rows, st, err := db.Scan("a").Join(db.Scan("b"), KeyCol(0), KeyCol(0)).Collect(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if r[0] != 0.0 || r[2] != 0.0 {
					t.Fatalf("%d node(s), governed %v: joined keys %v and %v", nodes, governed, r[0], r[2])
				}
			}
			if len(rows) != want || governed != (st.SpillPhases > 0) {
				t.Fatalf("%d node(s), governed %v: %d rows in %d spill phases, want %d", nodes, governed, len(rows), st.SpillPhases, want)
			}
			db.Close()
		}
	}
}
