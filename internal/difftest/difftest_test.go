package difftest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hierdb"
	"hierdb/internal/leaktest"
	"hierdb/internal/store"
	"hierdb/internal/xrand"
)

// tinyBudget forces Grace-style spilling on essentially every build
// side the harness generates.
const tinyBudget = 16 << 10

// legs are the engine configurations every generated query is
// cross-checked across. The first leg is the reference.
func legs(t *testing.T) []struct {
	name    string
	analyze bool
	opts    []hierdb.Option
} {
	return []struct {
		name    string
		analyze bool
		opts    []hierdb.Option
	}{
		{"1node", false, []hierdb.Option{hierdb.WithNodes(1), hierdb.WithWorkers(4)}},
		{"4node", false, []hierdb.Option{hierdb.WithNodes(4), hierdb.WithWorkers(2)}},
		{"static", false, []hierdb.Option{hierdb.WithWorkers(4), hierdb.WithStatic(true)}},
		{"nosteal", false, []hierdb.Option{hierdb.WithNodes(2), hierdb.WithWorkers(2), hierdb.WithStealing(false)}},
		{"tinymem", false, []hierdb.Option{hierdb.WithWorkers(4), hierdb.WithMemory(tinyBudget), hierdb.WithSpillDir(t.TempDir())}},
		{"tinymem-4node", false, []hierdb.Option{hierdb.WithNodes(4), hierdb.WithWorkers(2), hierdb.WithMemory(tinyBudget), hierdb.WithSpillDir(t.TempDir())}},
		// The columnar-kernel legs: tiny batches force constant batch
		// boundaries, padding and selection-vector churn through the vec
		// pipeline, on one node and on four governed nodes. Both are
		// additionally cross-checked against the naive row-at-a-time
		// Reference interpreter (not just the engine reference leg).
		{"vec-1node", false, []hierdb.Option{hierdb.WithWorkers(4), hierdb.WithBatch(16), hierdb.WithMorsel(64)}},
		{"vec-4node-tinymem", false, []hierdb.Option{hierdb.WithNodes(4), hierdb.WithWorkers(2), hierdb.WithBatch(16), hierdb.WithMorsel(64), hierdb.WithMemory(tinyBudget), hierdb.WithSpillDir(t.TempDir())}},
		// The optimizer legs: every table Analyze'd, full cost-based
		// planning on. The DP search may reorder every join, so multiset
		// identity against the literal-order reference leg is the proof
		// that planning never changes results — single-node and on four
		// governed nodes.
		{"opt-1node", true, []hierdb.Option{hierdb.WithWorkers(4), hierdb.WithOptimizer(hierdb.OptimizerFull)}},
		{"opt-4node-tinymem", true, []hierdb.Option{hierdb.WithNodes(4), hierdb.WithWorkers(2), hierdb.WithOptimizer(hierdb.OptimizerFull), hierdb.WithMemory(tinyBudget), hierdb.WithSpillDir(t.TempDir())}},
	}
}

// diskLegs are the disk-backed engine configurations: table files
// streamed chunk-by-chunk under the same tiny budget the in-memory
// tinymem legs run with.
func diskLegs(t *testing.T) []struct {
	name string
	opts []hierdb.Option
} {
	return []struct {
		name string
		opts []hierdb.Option
	}{
		{"disk-tinymem", []hierdb.Option{hierdb.WithWorkers(4), hierdb.WithMemory(tinyBudget), hierdb.WithSpillDir(t.TempDir())}},
		{"disk-4node", []hierdb.Option{hierdb.WithNodes(4), hierdb.WithWorkers(2), hierdb.WithMemory(tinyBudget), hierdb.WithSpillDir(t.TempDir())}},
	}
}

// TestDifferentialQueries is the CI differential run: >= 25 generated
// multi-join queries, each executed under every leg and required to
// return identical row multisets. Seeds are fixed, so a failure is
// reproducible by name.
func TestDifferentialQueries(t *testing.T) {
	leaktest.Check(t, 2)
	const queries = 26
	ctx := context.Background()
	spilled := false
	ran, nonEmpty := 0, 0
	opsSeen := map[hierdb.CmpOp]int{}
	groupsSeen := map[[2]bool]int{} // (key from the build side, projected) -> queries
	for qi := 0; qi < queries; qi++ {
		// 3-5 relations: deep enough for chained redistribution and
		// multiple governed builds, small enough for a tight CI loop.
		nrel := 3 + qi%3
		name := fmt.Sprintf("Q%02d", qi)
		t.Run(name, func(t *testing.T) {
			ran++
			c := Synthesize(0xD1FF+uint64(qi)*7919, name, nrel)
			ls := legs(t)
			ref, _, err := c.RunLeg(ctx, ls[0].opts...)
			if err != nil {
				t.Fatalf("%s reference leg: %v", name, err)
			}
			if len(ref) == 0 {
				t.Logf("%s: empty result (legal but uninformative)", name)
			}
			// The engine reference leg must agree with the naive
			// row-at-a-time interpreter before the engine legs are
			// compared among themselves: this anchors the whole columnar
			// pipeline to row semantics, not just to its own consistency.
			if err := DiffMultisets(ls[0].name, "row-reference", ref, c.Reference()); err != nil {
				t.Fatal(err)
			}
			for _, leg := range ls[1:] {
				run := c.RunLeg
				if leg.analyze {
					run = c.RunAnalyzedLeg
				}
				got, st, err := run(ctx, leg.opts...)
				if err != nil {
					t.Fatalf("%s leg %s: %v", name, leg.name, err)
				}
				if err := DiffMultisets(leg.name, ls[0].name, got, ref); err != nil {
					t.Fatal(err)
				}
				if st.SpillPhases > 0 {
					spilled = true
				}
			}
			// Disk-backed legs: the same case streamed from chunked table
			// files under a tiny budget, single-node and 4-node. 64-row
			// chunks make even these CI-scale relations span many chunks,
			// so chunk boundaries land mid-join everywhere.
			for _, leg := range diskLegs(t) {
				got, st, err := c.RunDiskLeg(ctx, t.TempDir(), 64, leg.opts...)
				if err != nil {
					t.Fatalf("%s leg %s: %v", name, leg.name, err)
				}
				if err := DiffMultisets(leg.name, ls[0].name, got, ref); err != nil {
					t.Fatal(err)
				}
				if st.ChunksScanned == 0 {
					t.Fatalf("%s leg %s: no chunks scanned — the leg did not stream from disk", name, leg.name)
				}
				if st.SpillPhases > 0 {
					spilled = true
				}
			}
			// The disk-filter leg: every scan carries a row-filter closure,
			// so each decoded (boxless) chunk row is boxed transiently
			// through ReadRow before the closure type-asserts it — boxless
			// batches meeting a row-era operator. Anchored to the naive
			// interpreter under the same filter.
			fc := *c
			fc.Filter = func(r hierdb.Row) bool {
				return r[0].(int)%3 != 0 && len(r[len(r)-1].(string)) > 0
			}
			got, st, err := fc.RunDiskLeg(ctx, t.TempDir(), 64, hierdb.WithWorkers(4))
			if err != nil {
				t.Fatalf("%s leg disk-filter: %v", name, err)
			}
			if err := DiffMultisets("disk-filter", "row-reference-filtered", got, fc.Reference()); err != nil {
				t.Fatal(err)
			}
			if st.ChunksScanned == 0 {
				t.Fatalf("%s leg disk-filter: no chunks scanned — the leg did not stream from disk", name)
			}
			// The predicate legs: every scan draws 0-2 column predicates
			// (querygen.ScanPreds), which each leg — resident, static,
			// multi-node, spilling, optimized, disk-backed and disk-backed
			// under the row filter — applies through its own scan path:
			// ApplyPreds over resident morsels, the filtering chunk decoder
			// behind zone-map pruning over files. Anchored to the naive
			// interpreter, which evaluates them with refPred.
			pc := *c
			pc.DrawPreds(0x9ED5 + uint64(qi))
			for _, ps := range pc.Preds {
				for _, p := range ps {
					opsSeen[p.Op]++
				}
			}
			pwant := pc.Reference()
			if len(pwant) > 0 {
				nonEmpty++
			}
			for _, leg := range ls {
				run := pc.RunLeg
				if leg.analyze {
					run = pc.RunAnalyzedLeg
				}
				got, _, err := run(ctx, leg.opts...)
				if err != nil {
					t.Fatalf("%s leg where-%s: %v", name, leg.name, err)
				}
				if err := DiffMultisets("where-"+leg.name, "row-reference-where", got, pwant); err != nil {
					t.Fatalf("%v\npredicates: %+v", err, pc.Preds)
				}
			}
			for _, leg := range diskLegs(t) {
				got, _, err := pc.RunDiskLeg(ctx, t.TempDir(), 64, leg.opts...)
				if err != nil {
					t.Fatalf("%s leg where-%s: %v", name, leg.name, err)
				}
				if err := DiffMultisets("where-"+leg.name, "row-reference-where", got, pwant); err != nil {
					t.Fatalf("%v\npredicates: %+v", err, pc.Preds)
				}
			}
			pfc := pc
			pfc.Filter = fc.Filter
			got, _, err = pfc.RunDiskLeg(ctx, t.TempDir(), 64, hierdb.WithWorkers(4))
			if err != nil {
				t.Fatalf("%s leg where-disk-filter: %v", name, err)
			}
			if err := DiffMultisets("where-disk-filter", "row-reference-where-filtered", got, pfc.Reference()); err != nil {
				t.Fatalf("%v\npredicates: %+v", err, pc.Preds)
			}
			// The group-by legs: the plan ends in the grouped aggregation
			// querygen draws for it — key from the last join's probe side,
			// from its build side (resolved once per build row), or either
			// behind a projection; Count/Sum/Min/Max — which a root probe
			// folds from its match pairs without building the join's output.
			// Every leg runs it: stolen activations fold an owner's store,
			// spilling joins a store per partition, the tiny budgets spill the
			// group partials themselves, the optimizer legs swap the root's
			// sides, the disk legs read boxless probe columns. Anchored to the
			// naive interpreter's plain map over its flattened join.
			gc := *c
			gc.DrawGroup(0x6B0 + uint64(qi))
			groupsSeen[[2]bool{gc.Group.KeyBuild, gc.Group.Project != nil}]++
			gwant := gc.Reference()
			// The same group-by over the ragged build side: the Arg row ends
			// where a short build row does.
			rgc := *gc.Ragged()
			rgwant := rgc.Reference()
			for _, leg := range ls {
				for _, v := range []struct {
					kind string
					c    *Case
					want map[string]int
				}{{"group-", &gc, gwant}, {"group-ragged-", &rgc, rgwant}} {
					run := v.c.RunLeg
					if leg.analyze {
						run = v.c.RunAnalyzedLeg
					}
					got, _, err := run(ctx, leg.opts...)
					if err != nil {
						t.Fatalf("%s leg %s%s: %v", name, v.kind, leg.name, err)
					}
					if err := DiffMultisets(v.kind+leg.name, "row-reference-"+v.kind, got, v.want); err != nil {
						t.Fatalf("%v\ngroup-by: %+v", err, gc.Group)
					}
				}
			}
			for _, leg := range diskLegs(t) {
				got, _, err := gc.RunDiskLeg(ctx, t.TempDir(), 64, leg.opts...)
				if err != nil {
					t.Fatalf("%s leg group-%s: %v", name, leg.name, err)
				}
				if err := DiffMultisets("group-"+leg.name, "row-reference-group", got, gwant); err != nil {
					t.Fatalf("%v\ngroup-by: %+v", err, gc.Group)
				}
			}
			// The ragged legs: the last join's build side is a ragged
			// registered table, most of its rows one column short, so its
			// last column is Absent-padded from the table's columnization
			// on — into the build store, across nodes, through spill
			// files, at batch size 16, and past the optimizer (which leaves
			// a plan over a ragged table in its literal order) — and every
			// row must read back at its own width. Anchored to the naive
			// interpreter over the same tables.
			// The float-key legs: the last join's keys are float64 on both
			// sides, with 0.0 and -0.0 — one key, by ==, that must reach one
			// node, one hash bucket, one spill partition and one index chain — and
			// NaN, which matches nothing. The null-payload legs: the last
			// build side's string payload is null in 63 rows of 64, so most
			// of the batches a governed leg spills of it carry an all-null
			// column, decoded untyped into a typed partition store.
			for _, v := range []struct {
				kind string
				c    *Case
			}{{"ragged-", c.Ragged()}, {"floatkey-", c.FloatKeys()}, {"nullpayload-", c.NullPayload()}} {
				want := v.c.Reference()
				for _, leg := range ls {
					run := v.c.RunLeg
					if leg.analyze {
						run = v.c.RunAnalyzedLeg
					}
					got, _, err := run(ctx, leg.opts...)
					if err != nil {
						t.Fatalf("%s leg %s%s: %v", name, v.kind, leg.name, err)
					}
					if err := DiffMultisets(v.kind+leg.name, "row-reference-"+v.kind, got, want); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
	// Not every generated query is big enough to spill, so the
	// must-have-spilled assertion is aggregate — and only meaningful when
	// the full set ran (a -run filter selecting single subtests must not
	// trip it).
	if ran == queries && !spilled {
		t.Fatal("no differential leg ever spilled: the tiny-memory legs are not exercising governance")
	}
	// Likewise for the generated predicates: most scans must carry some,
	// and most queries must still have rows to disagree about.
	if ran == queries && (len(opsSeen) != int(hierdb.NotNull)+1 || nonEmpty < queries/3) {
		t.Fatalf("predicate draw degenerate: operators drawn %v, %d of %d predicate queries with a result", opsSeen, nonEmpty, queries)
	}
	t.Logf("predicate legs: operators drawn %v, %d of %d queries with a result", opsSeen, nonEmpty, ran)
	if ran == queries && len(groupsSeen) != 4 {
		t.Fatalf("group-by draw degenerate: (build key, projected) -> queries %v", groupsSeen)
	}
}

// TestGroupPartialSpillsMidQuery: a group-by keyed on a build column
// under a budget that holds the join's build side but not the group
// partials beside it — the join stays in memory (no spill phase) while
// the workers' partials spill mid-query, so the groups their slot
// vectors had resolved are gone and must be resolved again. Budgets are
// swept, every run must agree with the naive interpreter, and at least
// one must land in that window.
func TestGroupPartialSpillsMidQuery(t *testing.T) {
	leaktest.Check(t, 2)
	c := Synthesize(29, "G", 2) // 1 580 rows join 1 411: some 900 groups by build id
	pw := len(c.Tables[c.order[0]].Cols)
	c.Group = &Group{Key: pw, KeyBuild: true, Aggs: []hierdb.Aggregation{{Func: hierdb.Count},
		{Func: hierdb.Sum, Arg: func(r hierdb.Row) float64 { return float64(r[0].(int)) }}}}
	want := c.Reference()
	inWindow := 0
	for budget := int64(64 << 10); budget <= 1<<20; budget += budget / 2 {
		for _, nodes := range []int{1, 2} {
			got, st, err := c.RunLeg(context.Background(), hierdb.WithNodes(nodes), hierdb.WithWorkers(2),
				hierdb.WithMemory(budget), hierdb.WithSpillDir(t.TempDir()))
			if err != nil {
				t.Fatalf("budget %d, %d node(s): %v", budget, nodes, err)
			}
			if err := DiffMultisets(fmt.Sprintf("budget-%d-%dnode", budget, nodes), "row-reference-group", got, want); err != nil {
				t.Fatal(err)
			}
			if st.SpillPhases == 0 && st.SpilledBytes > 0 {
				inWindow++
			}
		}
	}
	if inWindow == 0 {
		t.Fatal("no budget spilled the group partials under an in-memory join")
	}
	t.Logf("%d runs spilled group partials under an in-memory join", inWindow)
}

// TestOptimizerBeatsBadOrder is the cost-based planner's acceptance
// gate: over the differential corpus rebuilt with a deliberately bad
// (greedy largest-first) join order, the full optimizer must return the
// identical row multiset on every query and, on at least one, produce
// strictly fewer intermediate rows than the literal bad order — both
// measured from the run's per-operator Stats via Explain/Actualize.
func TestOptimizerBeatsBadOrder(t *testing.T) {
	leaktest.Check(t, 2)
	ctx := context.Background()
	const queries = 26
	improved := 0
	for qi := 0; qi < queries; qi++ {
		nrel := 3 + qi%3
		name := fmt.Sprintf("B%02d", qi)
		c := Synthesize(0xD1FF+uint64(qi)*7919, name, nrel)
		runBad := func(analyze bool, opts ...hierdb.Option) (map[string]int, int64) {
			t.Helper()
			db := hierdb.Open(opts...)
			defer db.Close()
			q, err := c.BuildBad(db)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if analyze {
				if err := c.AnalyzeAll(db); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			p, err := q.Explain(ctx)
			if err != nil {
				t.Fatalf("%s explain: %v", name, err)
			}
			rows, st, err := q.Collect(ctx)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			p.Actualize(st)
			ir := p.IntermediateRows()
			if ir < 0 {
				t.Fatalf("%s: intermediate rows unknown after Actualize", name)
			}
			return Multiset(rows), ir
		}
		off, offIR := runBad(false, hierdb.WithWorkers(4))
		full, fullIR := runBad(true, hierdb.WithWorkers(4), hierdb.WithOptimizer(hierdb.OptimizerFull))
		if err := DiffMultisets("opt-full-bad", "off-bad", full, off); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fullIR < offIR {
			improved++
		} else if fullIR > offIR {
			t.Logf("%s: optimizer chose a worse order (%d vs %d intermediate rows)", name, fullIR, offIR)
		}
	}
	if improved == 0 {
		t.Fatal("the optimizer never reduced intermediate rows against the bad-order corpus")
	}
	t.Logf("optimizer reduced intermediate rows on %d/%d bad-order queries", improved, queries)
}

// TestSynthesizeDeterministic: the same seed must materialize identical
// tables and plans (the harness's reproducibility contract).
func TestSynthesizeDeterministic(t *testing.T) {
	a := Synthesize(42, "Q", 4)
	b := Synthesize(42, "Q", 4)
	if len(a.Tables) != len(b.Tables) {
		t.Fatalf("table counts differ: %d vs %d", len(a.Tables), len(b.Tables))
	}
	for i := range a.Tables {
		if len(a.Tables[i].Rows) != len(b.Tables[i].Rows) {
			t.Fatalf("table %d cardinality differs", i)
		}
		for j := range a.Tables[i].Rows {
			if fmt.Sprint(a.Tables[i].Rows[j]) != fmt.Sprint(b.Tables[i].Rows[j]) {
				t.Fatalf("table %d row %d differs", i, j)
			}
		}
	}
	got, _, err := a.RunLeg(context.Background(), hierdb.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := b.RunLeg(context.Background(), hierdb.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := DiffMultisets("rerun", "first", got, want); err != nil {
		t.Fatal(err)
	}
}

// TestDiskJoinLargerThanMemory is the acceptance gate for governed
// disk streaming: a self-join over a table file at least 10x the
// node's memory budget must spill (SpillPhases > 0) and return the
// identical multiset to the ungoverned in-memory run, on one node and
// on four.
func TestDiskJoinLargerThanMemory(t *testing.T) {
	leaktest.Check(t, 2)
	const n = 30_000
	cols := []string{"id", "k", "payload"}
	tb := &hierdb.Table{Name: "fact", Cols: cols}
	r := xrand.New(0xD15C)
	for i := 0; i < n; i++ {
		tb.Rows = append(tb.Rows, hierdb.Row{i, r.Intn(n / 2), fmt.Sprintf("payload-%08d", i)})
	}
	path := filepath.Join(t.TempDir(), "fact.hdb")
	if err := store.WriteTable(path, cols, 1024, tb.Rows); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	budget := fi.Size() / 10
	t.Logf("file %d bytes, budget %d bytes", fi.Size(), budget)

	ctx := context.Background()
	selfJoin := func(db *hierdb.DB, governed bool) map[string]int {
		t.Helper()
		rows, st, err := db.Scan("fact").Join(db.Scan("fact"), hierdb.KeyCol(1), hierdb.KeyCol(1)).Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if governed {
			if st.SpillPhases == 0 {
				t.Fatalf("10x-over-budget join never spilled: %+v", st)
			}
			if st.DiskBytesRead == 0 {
				t.Fatalf("file-backed join read no chunk bytes: %+v", st)
			}
		}
		return Multiset(rows)
	}

	memDB := hierdb.Open(hierdb.WithWorkers(4))
	defer memDB.Close()
	if err := memDB.Register(tb.Name, hierdb.FromTable(tb)); err != nil {
		t.Fatal(err)
	}
	want := selfJoin(memDB, false)

	for _, leg := range []struct {
		name string
		opts []hierdb.Option
	}{
		{"disk-1node", []hierdb.Option{hierdb.WithWorkers(4)}},
		{"disk-4node", []hierdb.Option{hierdb.WithNodes(4), hierdb.WithWorkers(2)}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			opts := append(leg.opts, hierdb.WithMemory(budget), hierdb.WithSpillDir(t.TempDir()))
			db := hierdb.Open(opts...)
			defer db.Close()
			if err := db.Register("fact", hierdb.FromFile(path)); err != nil {
				t.Fatal(err)
			}
			if err := DiffMultisets(leg.name, "in-memory", selfJoin(db, true), want); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDiffMultisetsReportsDivergence: the comparator itself must catch
// and describe differences (count drift, missing and extra rows).
func TestDiffMultisetsReportsDivergence(t *testing.T) {
	want := map[string]int{"[1 a]": 2, "[2 b]": 1}
	if err := DiffMultisets("x", "ref", map[string]int{"[1 a]": 2, "[2 b]": 1}, want); err != nil {
		t.Fatalf("identical multisets diverged: %v", err)
	}
	cases := []map[string]int{
		{"[1 a]": 1, "[2 b]": 1},              // count drift
		{"[1 a]": 2},                          // missing row
		{"[1 a]": 2, "[2 b]": 1, "[3 c]": 1},  // extra row
		{"[1 a]": 2, "[2 b]": 1, "[3 c]": -1}, // corrupt count
	}
	for i, got := range cases {
		if err := DiffMultisets("x", "ref", got, want); err == nil {
			t.Fatalf("case %d: divergence undetected", i)
		}
	}
}
