package exec

import (
	"context"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hierdb/internal/catalog"
	"hierdb/internal/store"
	"hierdb/internal/vec"
)

// statTable builds a 3-column table: id (all distinct), k (i % keys),
// s (i % 10 strings, nil every 7th row when withNulls).
func statTable(name string, n, keys int, withNulls bool) *Table {
	t := &Table{Name: name, Cols: []string{"id", "k", "s"}}
	for i := 0; i < n; i++ {
		var s any = "s" + string(rune('a'+i%10))
		if withNulls && i%7 == 0 {
			s = nil
		}
		t.Rows = append(t.Rows, Row{i, i % keys, s})
	}
	return t
}

func TestAnalyzeResident(t *testing.T) {
	tb := statTable("a", 1000, 100, true)
	st, err := Analyze(tb)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 1000 {
		t.Fatalf("Rows = %d, want 1000", st.Rows)
	}
	if st.AvgRowBytes <= 0 {
		t.Fatalf("AvgRowBytes = %v, want > 0", st.AvgRowBytes)
	}
	if len(st.Cols) != 3 {
		t.Fatalf("Cols = %d, want 3", len(st.Cols))
	}
	// Linear counting is approximate; allow 5% on the dense column.
	if d := st.Cols[0].Distinct; d < 950 || d > 1050 {
		t.Fatalf("id distinct = %d, want ~1000", d)
	}
	if d := st.Cols[1].Distinct; d < 95 || d > 105 {
		t.Fatalf("k distinct = %d, want ~100", d)
	}
	wantNulls := int64(0)
	for i := 0; i < 1000; i += 7 {
		wantNulls++
	}
	if st.Cols[2].Nulls != wantNulls {
		t.Fatalf("s nulls = %d, want %d", st.Cols[2].Nulls, wantNulls)
	}
}

// The file side is analyzed from boxless decoded chunks, the resident
// side from FromRows columns: the statistics must not tell them apart.
func TestAnalyzeFileMatchesResident(t *testing.T) {
	tb := statTable("f", 500, 25, true)
	for i, r := range tb.Rows {
		// A bool, a float and a mixed (Any) column ride along.
		var mixed any = i % 3
		if i%2 == 0 {
			mixed = "m"
		}
		tb.Rows[i] = append(r, i%4 == 0, float64(i%11)/2, mixed)
	}
	tb.Cols = append(tb.Cols, "b", "f", "m")
	path := filepath.Join(t.TempDir(), "f.hdb")
	if err := store.WriteTable(path, tb.Cols, 64, tb.Rows); err != nil {
		t.Fatal(err)
	}
	f, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ft := &Table{Name: "f", Cols: tb.Cols, File: f}

	mem, err := Analyze(tb)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := Analyze(ft)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Rows != disk.Rows || mem.AvgRowBytes != disk.AvgRowBytes {
		t.Fatalf("rows/avg bytes: mem %d/%v vs disk %d/%v", mem.Rows, mem.AvgRowBytes, disk.Rows, disk.AvgRowBytes)
	}
	for i := range mem.Cols {
		if mem.Cols[i].Distinct != disk.Cols[i].Distinct {
			t.Fatalf("col %d distinct: mem %d vs disk %d", i, mem.Cols[i].Distinct, disk.Cols[i].Distinct)
		}
		if mem.Cols[i].Nulls != disk.Cols[i].Nulls {
			t.Fatalf("col %d nulls: mem %d vs disk %d", i, mem.Cols[i].Nulls, disk.Cols[i].Nulls)
		}
	}
}

func TestAnalyzeNilTable(t *testing.T) {
	if _, err := Analyze(nil); err == nil {
		t.Fatal("Analyze(nil) succeeded")
	}
}

// optStats adapts a fixed map to the planner's StatsFunc.
func optStats(m map[string]*catalog.TableStats) StatsFunc {
	return func(t *Table) *catalog.TableStats { return m[t.Name] }
}

func analyzeAll(t *testing.T, tables ...*Table) StatsFunc {
	t.Helper()
	m := make(map[string]*catalog.TableStats)
	for _, tb := range tables {
		st, err := Analyze(tb)
		if err != nil {
			t.Fatal(err)
		}
		m[tb.Name] = st
	}
	return optStats(m)
}

func TestOptimizeOffPassthrough(t *testing.T) {
	a := tbl("a", 10, func(i int) any { return i }, func(i int) any { return i })
	b := tbl("b", 10, func(i int) any { return i }, func(i int) any { return i })
	root := &Join{Probe: &Scan{Table: a}, Build: &Scan{Table: b}, ProbeKey: 0, BuildKey: 0}
	pc := Optimize(root, OptimizeOff, nil)
	if pc.Root != Node(root) {
		t.Fatal("off mode did not return the literal plan")
	}
	if pc.Reordered || pc.Reason != "" {
		t.Fatalf("off mode: %+v", pc)
	}
}

func TestOptimizeHintsFillsClonesOnly(t *testing.T) {
	a := statTable("a", 400, 40, false)
	b := statTable("b", 50, 50, false)
	sa, sb := &Scan{Table: a, Preds: []vec.Pred{{Col: 1, Op: vec.Eq, Val: 3}}}, &Scan{Table: b}
	root := &Join{Probe: sa, Build: sb, ProbeKey: 1, BuildKey: 1}
	pc := Optimize(root, OptimizeHints, analyzeAll(t, a, b))
	if pc.Reordered {
		t.Fatal("hints mode reordered")
	}
	nj, ok := pc.Root.(*Join)
	if !ok || nj == root {
		t.Fatalf("hints mode must clone the tree, got %T same=%v", pc.Root, nj == root)
	}
	ns := nj.Probe.(*Scan)
	if ns == sa || ns.RowsHint <= 0 {
		t.Fatalf("probe scan not hinted on a clone: same=%v hint=%d", ns == sa, ns.RowsHint)
	}
	// ~400/40 rows pass the Eq predicate.
	if ns.RowsHint < 5 || ns.RowsHint > 20 {
		t.Fatalf("Eq selectivity estimate off: hint=%d, want ~10", ns.RowsHint)
	}
	if sa.RowsHint != 0 || sb.RowsHint != 0 || root.RowsHint != 0 {
		t.Fatal("hint pass mutated the literal plan")
	}
	if nj.RowsHint <= 0 {
		t.Fatal("join not hinted")
	}
}

// badChain builds (big ⋈ mid) ⋈ small — the worst left-deep order for
// relations where small is tiny and filters everything downstream.
func badChain() (root *Join, big, mid, small *Table) {
	big = statTable("big", 2000, 100, false)
	mid = statTable("mid", 400, 100, false)
	small = statTable("small", 20, 20, false)
	j1 := &Join{Probe: &Scan{Table: big}, Build: &Scan{Table: mid}, ProbeKey: 1, BuildKey: 1}
	// small's key domain is 0..19, so the final join drops most rows.
	root = &Join{Probe: j1, Build: &Scan{Table: small}, ProbeKey: 1, BuildKey: 1}
	return root, big, mid, small
}

func TestOptimizeFullReordersIdentically(t *testing.T) {
	root, big, mid, small := badChain()
	stats := analyzeAll(t, big, mid, small)
	pc := Optimize(root, OptimizeFull, stats)
	if !pc.Reordered {
		t.Fatalf("full mode kept the bad order: %q", pc.Reason)
	}
	ctx := context.Background()
	opt := Options{Workers: 2}
	want, _, err := runOnce(ctx, root, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := runOnce(ctx, pc.Root, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Identical rows including column order: the root's Out list is the
	// restoring permutation.
	sameRows(t, got, want)
	if len(pc.Root.(*Join).Out) == 0 {
		t.Fatal("the reordered fixture no longer permutes its output: nothing restored")
	}
	// And an identical schema. Out permutes column headers, so the
	// reordered plan is typed to the root exactly as the literal one is:
	// in both, big streams through every probe (its columns keep their
	// kinds) and the other two relations are build sides.
	lit, err := compile(root)
	if err != nil {
		t.Fatal(err)
	}
	re, err := compile(pc.Root)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(re.root.outKinds, lit.root.outKinds) || lit.root.outKinds[0] != vec.Int {
		t.Fatalf("reordered root kinds %v, literal %v", re.root.outKinds, lit.root.outKinds)
	}
	if len(st.OpRows) == 0 {
		t.Fatalf("no per-operator counters: %+v", st)
	}
}

func TestOptimizeBlockedReasons(t *testing.T) {
	a := tbl("a", 10, func(i int) any { return i }, func(i int) any { return i })
	b := tbl("b", 10, func(i int) any { return i }, func(i int) any { return i })
	c := tbl("c", 10, func(i int) any { return i }, func(i int) any { return i })
	mk := func(mut func(j1, j2 *Join)) Node {
		j1 := &Join{Probe: &Scan{Table: a}, Build: &Scan{Table: b}, ProbeKey: 0, BuildKey: 0}
		j2 := &Join{Probe: j1, Build: &Scan{Table: c}, ProbeKey: 0, BuildKey: 0}
		mut(j1, j2)
		return j2
	}
	cases := []struct {
		name string
		root Node
		want string
	}{
		{"project", mk(func(j1, _ *Join) { j1.Out = []int{0, 1} }), "Project"},
		{"noreorder", mk(func(_, j2 *Join) { j2.NoReorder = true }), "NoReorder"},
		// A key no leaf has cannot be mapped to a graph edge; the plan is
		// left for compile to reject.
		{"bad-key", mk(func(j1, _ *Join) { j1.ProbeKey = 9 }), "out of range"},
		{"single-scan", &Scan{Table: a}, "single-relation"},
	}
	for _, tc := range cases {
		pc := Optimize(tc.root, OptimizeFull, nil)
		if pc.Reordered {
			t.Fatalf("%s: reordered despite blocking condition", tc.name)
		}
		if !strings.Contains(pc.Reason, tc.want) {
			t.Fatalf("%s: Reason = %q, want substring %q", tc.name, pc.Reason, tc.want)
		}
	}
}

func TestOptimizeRaggedTableBlocked(t *testing.T) {
	a := &Table{Name: "ragged", Cols: []string{"k", "v"}}
	a.Rows = append(a.Rows, Row{1, "x"}, Row{2})
	b := tbl("b", 4, func(i int) any { return i }, func(i int) any { return i })
	root := &Join{Probe: &Scan{Table: a}, Build: &Scan{Table: b}, ProbeKey: 0, BuildKey: 0}
	pc := Optimize(root, OptimizeFull, nil)
	if pc.Reordered {
		t.Fatal("reordered a plan over a ragged table")
	}
	if !strings.Contains(pc.Reason, "ragged") && !strings.Contains(pc.Reason, "mixed-type") {
		t.Fatalf("Reason = %q", pc.Reason)
	}
}

func TestDescribeAndActualize(t *testing.T) {
	root, big, mid, small := badChain()
	stats := analyzeAll(t, big, mid, small)
	pc := Optimize(root, OptimizeFull, stats)
	en, err := pc.Describe(nil, Options{Workers: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if en.Kind != "join" || len(en.Children) != 2 {
		t.Fatalf("root: %+v", en)
	}
	if en.ActRows != -1 {
		t.Fatalf("ActRows before run = %d, want -1", en.ActRows)
	}
	rows, st, err := runOnce(context.Background(), pc.Root, nil, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	en.Actualize(st)
	if en.ActRows != int64(len(rows)) {
		t.Fatalf("root ActRows = %d, want %d", en.ActRows, len(rows))
	}
	var checkScan func(n *ExplainNode)
	checkScan = func(n *ExplainNode) {
		if n.Kind == "scan" && n.ActRows < 0 {
			t.Fatalf("scan %s not actualized", n.Table)
		}
		for _, c := range n.Children {
			checkScan(c)
		}
	}
	checkScan(en)
	if en.EstimateCostNs() <= 0 {
		t.Fatal("non-positive cost estimate")
	}
	if s := en.String(); !strings.Contains(s, "probe: ") || !strings.Contains(s, "build: ") {
		t.Fatalf("rendering lost probe/build labels:\n%s", s)
	}
}

func TestDistinctCounterEstimate(t *testing.T) {
	var d catalog.DistinctCounter
	if d.Estimate() != 0 {
		t.Fatal("empty counter must estimate 0")
	}
	for i := 0; i < 5000; i++ {
		d.Add(mix64(uint64(i)))
	}
	// Duplicates must not inflate the estimate.
	for i := 0; i < 5000; i++ {
		d.Add(mix64(uint64(i)))
	}
	if e := d.Estimate(); e < 4700 || e > 5300 {
		t.Fatalf("estimate %d, want ~5000", e)
	}
}

func TestOpRowsCounters(t *testing.T) {
	a := tbl("a", 100, func(i int) any { return i % 10 }, func(i int) any { return i })
	b := tbl("b", 10, func(i int) any { return i }, func(i int) any { return i })
	root := &Join{Probe: &Scan{Table: a}, Build: &Scan{Table: b}, ProbeKey: 0, BuildKey: 0}
	pc := Optimize(root, OptimizeHints, nil)
	en, err := pc.Describe(nil, Options{Workers: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, st, err := runOnce(context.Background(), pc.Root, nil, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	en.Actualize(st)
	if en.ActRows != int64(len(rows)) {
		t.Fatalf("join ActRows = %d, want %d", en.ActRows, len(rows))
	}
	probe, build := en.Children[0], en.Children[1]
	if probe.ActRows != 100 {
		t.Fatalf("probe scan ActRows = %d, want 100", probe.ActRows)
	}
	if build.ActRows != 10 {
		t.Fatalf("build scan ActRows = %d, want 10", build.ActRows)
	}
}
