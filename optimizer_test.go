package hierdb

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"hierdb/internal/exec"
	"hierdb/internal/store"
)

// optTables builds the skewed 3-relation fixture: a large fact, a
// mid-size relation on the same key domain, and a tiny dim covering
// only a fifth of it — so the literal fact⋈mid-first order is
// deliberately bad and the optimizer should join dim early.
func optTables() []*Table {
	fact := &Table{Name: "fact", Cols: []string{"id", "k", "s"}}
	for i := 0; i < 2000; i++ {
		fact.Rows = append(fact.Rows, Row{i, i % 100, "f"})
	}
	mid := &Table{Name: "mid", Cols: []string{"id", "k", "s"}}
	for i := 0; i < 400; i++ {
		mid.Rows = append(mid.Rows, Row{i, i % 100, "m"})
	}
	dim := &Table{Name: "dim", Cols: []string{"id", "k", "s"}}
	for i := 0; i < 20; i++ {
		dim.Rows = append(dim.Rows, Row{i, i, "d"})
	}
	return []*Table{fact, mid, dim}
}

// optDB opens a DB over fresh fixture tables, analyzed at registration.
func optDB(t testing.TB, opts ...Option) *DB {
	db := Open(opts...)
	t.Cleanup(func() { db.Close() })
	for _, tb := range optTables() {
		if err := db.Register(tb.Name, FromTable(tb), WithStats()); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// badFixtureQuery is the literal worst order: (fact ⋈ mid) ⋈ dim.
func badFixtureQuery(db *DB) *Query {
	return db.Scan("fact").
		Join(db.Scan("mid"), KeyCol(1), KeyCol(1)).
		Join(db.Scan("dim"), KeyCol(1), KeyCol(1))
}

func TestWithOptimizerInvalidMode(t *testing.T) {
	db := Open(WithOptimizer(OptimizerMode(7)))
	defer db.Close()
	if _, err := db.Scan("x").Run(context.Background()); err == nil || !strings.Contains(err.Error(), "optimizer mode") {
		t.Fatalf("err = %v, want invalid optimizer mode", err)
	}
}

// TestOptimizerModesIdenticalResults: every mode must return the exact
// same rows — including column order — as the literal plan.
func TestOptimizerModesIdenticalResults(t *testing.T) {
	ctx := context.Background()
	collect := func(mode OptimizerMode) []string {
		db := optDB(t, WithWorkers(4), WithOptimizer(mode))
		rows, _, err := badFixtureQuery(db).Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return canonRows(rows)
	}
	off := collect(OptimizerOff)
	if len(off) == 0 {
		t.Fatal("empty fixture result")
	}
	for _, mode := range []OptimizerMode{OptimizerHints, OptimizerFull} {
		got := collect(mode)
		if len(got) != len(off) {
			t.Fatalf("mode %d: %d rows vs %d", mode, len(got), len(off))
		}
		for i := range got {
			if got[i] != off[i] {
				t.Fatalf("mode %d row %d: %s vs %s", mode, i, got[i], off[i])
			}
		}
	}
}

func TestHintSemantics(t *testing.T) {
	ctx := context.Background()
	db := optDB(t, WithWorkers(2))

	// Scan-step row hint: legal, results unchanged.
	rows, _, err := db.Scan("dim").Hint(Hint{Rows: 3}).Collect(ctx)
	if err != nil || len(rows) != 20 {
		t.Fatalf("scan hint: %d rows, err %v", len(rows), err)
	}
	// Join-step hint subsumes Selectivity and carries the order pin.
	q := db.Scan("fact").Join(db.Scan("dim"), KeyCol(1), KeyCol(1)).
		Hint(Hint{Selectivity: 0.2, Rows: 400, NoReorder: true})
	if _, _, err := q.Collect(ctx); err != nil {
		t.Fatalf("join hint: %v", err)
	}
	// Errors: negative fields, join-only fields on a scan, hint after
	// GroupBy.
	for name, bad := range map[string]*Query{
		"negative-rows":       db.Scan("dim").Hint(Hint{Rows: -1}),
		"negative-sel":        db.Scan("fact").Join(db.Scan("dim"), KeyCol(1), KeyCol(1)).Hint(Hint{Selectivity: -0.5}),
		"scan-selectivity":    db.Scan("dim").Hint(Hint{Selectivity: 0.5}),
		"scan-noreorder":      db.Scan("dim").Hint(Hint{NoReorder: true}),
		"hint-after-group-by": db.Scan("dim").GroupBy(KeyCol(1), Aggregation{Func: Count}).Hint(Hint{Rows: 5}),
	} {
		if _, err := bad.Run(ctx); err == nil {
			t.Fatalf("%s: no error", name)
		}
	}
}

// TestHintNoReorderPinsOrder: a NoReorder hint must keep the bad
// literal order even under the full optimizer.
func TestHintNoReorderPinsOrder(t *testing.T) {
	db := optDB(t, WithWorkers(2), WithOptimizer(OptimizerFull))
	q := db.Scan("fact").
		Join(db.Scan("mid"), KeyCol(1), KeyCol(1)).Hint(Hint{NoReorder: true}).
		Join(db.Scan("dim"), KeyCol(1), KeyCol(1))
	p, err := q.Explain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p.Reordered {
		t.Fatal("NoReorder plan was reordered")
	}
	if !strings.Contains(p.Reason, "NoReorder") {
		t.Fatalf("Reason = %q", p.Reason)
	}
}

func TestRegisterUnified(t *testing.T) {
	ctx := context.Background()
	db := Open(WithWorkers(2), WithOptimizer(OptimizerFull))
	defer db.Close()

	// FromTable with an empty table name takes the registration name.
	unnamed := &Table{Cols: []string{"k"}, Rows: []Row{{1}, {2}}}
	if err := db.Register("anon", FromTable(unnamed)); err != nil {
		t.Fatal(err)
	}
	if unnamed.Name != "anon" {
		t.Fatalf("table name = %q, want anon", unnamed.Name)
	}
	if rows, _, err := db.Scan("anon").Collect(ctx); err != nil || len(rows) != 2 {
		t.Fatalf("anon scan: %d rows, err %v", len(rows), err)
	}
	// Conflicting names are rejected.
	if err := db.Register("other", FromTable(&Table{Name: "named", Cols: []string{"k"}})); err == nil {
		t.Fatal("name conflict accepted")
	}
	// Empty name and empty source are rejected.
	if err := db.Register("", FromTable(unnamed)); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := db.Register("empty", TableSource{}); err == nil {
		t.Fatal("empty source accepted")
	}
	// FromFile with WithStats: registers and analyzes the table file.
	tb := &Table{Name: "ondisk", Cols: []string{"id", "k"}}
	for i := 0; i < 200; i++ {
		tb.Rows = append(tb.Rows, Row{i, i % 10})
	}
	path := filepath.Join(t.TempDir(), "ondisk.hdb")
	if err := store.WriteTable(path, tb.Cols, 64, tb.Rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("ondisk", FromFile(path), WithStats()); err != nil {
		t.Fatal(err)
	}
	st, err := db.Analyze("ondisk")
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 200 || st.Cols[1].Distinct != 10 {
		t.Fatalf("file stats: %+v", st)
	}
	if err := db.Register(unnamed.Name, FromTable(unnamed)); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	// Analyze of unregistered tables fails.
	if _, err := db.Analyze("ghost"); err == nil {
		t.Fatal("Analyze of unregistered table succeeded")
	}
}

// TestGroupByResultRowsCountsOutputRows pins the documented EngineStats
// semantics: on a GroupBy query, ResultRows counts the aggregation's
// output rows (one per group), not the rows folded into it.
func TestGroupByResultRowsCountsOutputRows(t *testing.T) {
	db := Open(WithWorkers(2))
	defer db.Close()
	tb := &Table{Name: "t", Cols: []string{"k", "v"}}
	for i := 0; i < 100; i++ {
		tb.Rows = append(tb.Rows, Row{i % 5, i})
	}
	if err := db.Register(tb.Name, FromTable(tb)); err != nil {
		t.Fatal(err)
	}
	rows, st, err := db.Scan("t").GroupBy(KeyCol(0), Aggregation{Func: Count}).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d groups, want 5", len(rows))
	}
	if st.ResultRows != 5 {
		t.Fatalf("ResultRows = %d, want 5 (output rows, not the 100 folded)", st.ResultRows)
	}
}

// TestExplainGolden pins the stable text rendering under every mode;
// parallel subtests double as the stability-under--parallel check.
func TestExplainGolden(t *testing.T) {
	cases := []struct {
		name string
		mode OptimizerMode
		want string
	}{
		{"off", OptimizerOff, goldenExplainOff},
		{"hints", OptimizerHints, goldenExplainHints},
		{"full", OptimizerFull, goldenExplainFull},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			db := optDB(t, WithWorkers(4), WithOptimizer(tc.mode))
			p, err := badFixtureQuery(db).Explain(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := p.String(); got != tc.want {
				t.Fatalf("explain diverged:\n--- got ---\n%s\n--- want ---\n%s", got, tc.want)
			}
		})
	}
}

// Off mode plans without statistics (the unique-key default makes the
// no-stats join estimates tiny); hints and full read the Analyze'd
// distinct counts (~100 keys), and full flips dim ahead of mid.
const goldenExplainOff = `mode=off
join est=4 act=- [hash]
├─ probe: join est=400 act=- [hash]
│  ├─ probe: scan fact est=2000 act=-
│  └─ build: scan mid est=400 act=-
└─ build: scan dim est=20 act=-`

const goldenExplainHints = `mode=hints
join est=1600 act=- [hash]
├─ probe: join est=8000 act=- [hash]
│  ├─ probe: scan fact est=2000 act=-
│  └─ build: scan mid est=400 act=-
└─ build: scan dim est=20 act=-`

const goldenExplainFull = `mode=full reordered
join est=1600 act=- [hash]
├─ probe: join est=400 act=- [hash]
│  ├─ probe: scan fact est=2000 act=-
│  └─ build: scan dim est=20 act=-
└─ build: scan mid est=400 act=-`

// TestExplainActualize runs the explained query (group-by, multi-node)
// and checks estimated-vs-actual pairing.
func TestExplainActualize(t *testing.T) {
	ctx := context.Background()
	db := optDB(t, WithNodes(2), WithWorkers(2), WithOptimizer(OptimizerFull))
	q := badFixtureQuery(db).GroupBy(KeyCol(1), Aggregation{Func: Count})
	p, err := q.Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.Kind != "groupby" {
		t.Fatalf("root kind = %q", p.Root.Kind)
	}
	if p.IntermediateRows() != -1 {
		t.Fatal("intermediate rows known before the run")
	}
	rows, st, err := q.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p.Actualize(st)
	if p.Root.ActRows != int64(len(rows)) || p.Root.ActRows != st.ResultRows {
		t.Fatalf("groupby ActRows = %d, want %d", p.Root.ActRows, len(rows))
	}
	join := p.Root.Children[0]
	if join.Kind != "join" || join.ActRows < 0 {
		t.Fatalf("root join not actualized: %+v", join)
	}
	if ir := p.IntermediateRows(); ir < 0 {
		t.Fatalf("IntermediateRows = %d after Actualize", ir)
	}
	if p.EstCost <= 0 {
		t.Fatalf("EstCost = %v", p.EstCost)
	}
}

// TestOptimizeOverheadWithinBudget gates planning cost: optimizing the
// 3-join fixture — graph extraction, estimation, DP search, tree rebuild
// — allocates a bounded number of objects (86 when the gate was set; a
// run of the query allocates about ten times that). It counts
// allocations, not time: two wall-clock readings compared under a
// loaded `go test ./...` made the old 5%-of-runtime form flaky.
func TestOptimizeOverheadWithinBudget(t *testing.T) {
	ctx := context.Background()
	db := optDB(t, WithWorkers(4), WithOptimizer(OptimizerFull))
	q := badFixtureQuery(db)
	// Warm the columnization caches planning shares with execution.
	if _, _, err := q.Collect(ctx); err != nil {
		t.Fatal(err)
	}
	if pc := exec.Optimize(q.node, OptimizerFull, db.statsFor); !pc.Reordered {
		t.Fatal("fixture plan no longer reorders")
	}
	plan := testing.AllocsPerRun(50, func() { exec.Optimize(q.node, OptimizerFull, db.statsFor) })
	t.Logf("planning allocates %.0f objects", plan)
	if plan > 128 {
		t.Fatalf("planning the 3-join fixture allocates %.0f objects, want <= 128", plan)
	}
}

// BenchmarkOptimizeOverhead measures the per-query planning path alone
// — graph extraction, estimation, DP search, tree rebuild — on the
// analyzed 3-join fixture (the unit Run adds on top of execution when
// the optimizer is on).
func BenchmarkOptimizeOverhead(b *testing.B) {
	db := optDB(b, WithWorkers(4), WithOptimizer(OptimizerFull))
	q := badFixtureQuery(db)
	if pc := exec.Optimize(q.node, OptimizerFull, db.statsFor); !pc.Reordered {
		b.Fatal("fixture plan no longer reorders")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec.Optimize(q.node, OptimizerFull, db.statsFor)
	}
}
