package exec

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"hierdb/internal/vec"
)

// fanPlan joins probeRows fact rows (k, v) to a dim of keys*fan rows
// (k, g, w): fan rows per key, each in a group of its own — keys*fan
// groups by the build column g. All keys are owned by node 0 of a
// (nodes, stripes) engine, so on two nodes the peer lives on stolen
// probe activations.
func fanPlan(nodes, stripes, keys, fan, probeRows int, out []int) *Join {
	hot := keysOwnedBy(0, nodes, stripes, keys)
	dim := &Table{Name: "dim", Cols: []string{"k", "g", "w"}}
	for i := 0; i < keys*fan; i++ {
		dim.Rows = append(dim.Rows, Row{hot[i%keys], fmt.Sprintf("g%04d", i), float64(i%7) - 3})
	}
	fact := tbl("fact", probeRows, func(i int) any { return hot[i%keys] }, func(i int) any { return i % 1000 })
	return &Join{Build: &Scan{Table: dim}, Probe: &Scan{Table: fact}, BuildKey: 0, ProbeKey: 0, Out: out}
}

// refGroupBy evaluates gb over materialized rows with a plain map, in
// groupTable.result's output order.
func refGroupBy(rows []Row, gb *GroupBy) []Row {
	groups := map[any]Row{}
	for _, r := range rows {
		g := groups[r[gb.Key]]
		if g == nil {
			g = Row{r[gb.Key]}
			for _, a := range gb.Aggs {
				g = append(g, map[AggFunc]any{Count: int64(0), Sum: 0.0, Min: math.Inf(1), Max: math.Inf(-1)}[a.Func])
			}
			groups[r[gb.Key]] = g
		}
		for i, a := range gb.Aggs {
			switch a.Func {
			case Count:
				g[1+i] = g[1+i].(int64) + 1
			case Sum:
				g[1+i] = g[1+i].(float64) + a.Arg(r)
			case Min:
				g[1+i] = math.Min(g[1+i].(float64), a.Arg(r))
			case Max:
				g[1+i] = math.Max(g[1+i].(float64), a.Arg(r))
			}
		}
	}
	out := make([]Row, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i][0]) < fmt.Sprint(out[j][0]) })
	return out
}

// resultRows materializes a partial's output rows, in result's order.
func resultRows(t *groupTable) []Row {
	var rows []Row
	for _, b := range t.result(1024) {
		rows = b.AppendRows(rows, new(vec.Arena))
	}
	return rows
}

// TestGroupFoldMatchesFlattened: a root probe under a group-by folds its
// match pairs without building the join's output, and must answer what
// a plain map over the flattened join answers — with the group key a
// probe column, a build column (the slot vector) and a column behind an
// Out list, aggregates reading both sides, on one node, on two nodes
// where the peer folds the owner's store through stolen activations,
// and under a budget that spills both the join (a new store per
// partition) and the group partial (the slots' groups are gone
// mid-query). The match count stays attributed to the probe operator.
func TestGroupFoldMatchesFlattened(t *testing.T) {
	checkQueryHygiene(t)
	const nodes, stripes, keys, fan, probeRows = 2, 8, 600, 2, 12_000
	for _, tc := range []struct {
		name string
		key  int
		out  []int
		// v and w are the fact value and dim weight columns in the output.
		v, w int
	}{
		{"probe-key", 0, nil, 1, 4},
		{"build-key", 3, nil, 1, 4},
		// Seven groups: the partial stops growing after the first fold and
		// never spills, so each spill partition's store meets live slots.
		{"build-key-few-groups", 4, nil, 1, 4},
		{"out-build-key", 1, []int{4, 3, 1}, 2, 0},
		{"out-probe-key", 2, []int{4, 3, 1}, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := fanPlan(nodes, stripes, keys, fan, probeRows, tc.out)
			v := func(r Row) float64 { return float64(r[tc.v].(int)) }
			w := func(r Row) float64 { return r[tc.w].(float64) }
			gb := &GroupBy{Key: tc.key, Aggs: []Aggregation{
				{Func: Count}, {Func: Sum, Arg: v}, {Func: Min, Arg: w}, {Func: Max, Arg: v}, {Func: Sum, Arg: w}}}
			flat, _, err := runOnce(context.Background(), plan, nil, EngineConfig{Workers: 2, Stripes: stripes})
			if err != nil {
				t.Fatal(err)
			}
			if len(flat) != probeRows*fan {
				t.Fatalf("%d joined rows, want %d", len(flat), probeRows*fan)
			}
			want := fmt.Sprint(refGroupBy(flat, gb))
			check := func(leg string, ns *Nodes) *Stats {
				t.Helper()
				h, err := ns.Submit(context.Background(), plan, gb, "")
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprint(collectHandle(t, h)); got != want {
					t.Fatalf("%s:\n got %.300s\nwant %.300s", leg, got, want)
				}
				st := h.Stats()
				if n := st.OpRows[len(st.OpRows)-1]; n != probeRows*fan {
					t.Fatalf("%s: %d rows attributed to the root probe, want %d", leg, n, probeRows*fan)
				}
				return st
			}
			cfg := EngineConfig{Workers: 2, Stripes: stripes, Batch: 256}
			check("1node", newNodesT(t, cfg))
			cfg.Nodes = nodes
			two := newNodesT(t, cfg)
			stole := false
			for attempt := 0; attempt < 5 && !stole; attempt++ {
				stole = check("2node", two).StolenActivations > 0
			}
			if !stole {
				t.Fatal("no probe activation was stolen on a fully skewed workload")
			}
			// Half the build side holds a spill partition's store beside a few
			// groups, not the build side and not a partial of 1 200 groups.
			cfg.MemoryPerNode, cfg.SpillDir = sideBytes(plan.Build.(*Scan).Table)/2, t.TempDir()
			st := check("spilling", newNodesT(t, cfg))
			if st.SpillPhases == 0 {
				t.Fatalf("the governed join never spilled: %+v", st)
			}
		})
	}
}

// TestGroupPartialSpillDropsSlots: when governGroupPartial spills a
// worker's partial mid-query, the groups its slot vector resolved go
// with it (a governed fold drops its slots with every activation): the
// next fold over the same store must resolve them afresh in the new
// partial, not count into the spilled states.
func TestGroupPartialSpillDropsSlots(t *testing.T) {
	const keys, fan, batch = 1500, 2, 1024 // a batch meets two thirds of the keys
	gb := &GroupBy{Key: 3, Aggs: []Aggregation{{Func: Count}}}
	q, probes := probeFixture(t, fanPlan(1, 8, keys, fan, 3*batch, nil), gb,
		EngineConfig{Workers: 1, Batch: batch, MemoryPerNode: 1 << 20, SpillDir: t.TempDir()})
	defer q.releaseSpill()
	counted := func(tb *groupTable) (n int64) {
		for _, c := range tb.n {
			n += c
		}
		return n
	}
	q.processProbeVec(probes[0], 0)
	q.chargeMem(q.mem.budget) // the next new group finds the budget spent
	q.processProbeVec(probes[1], 0)
	if q.partials[0].file == nil || q.partials[0].t.groups() != 0 {
		t.Fatalf("the second batch's new groups did not spill the partial (%d groups resident)", q.partials[0].t.groups())
	}
	q.unchargeMem(q.mem.budget)
	// The third batch's keys were all resolved by the first two.
	q.processProbeVec(probes[2], 0)
	if got := counted(q.partials[0].t); got != batch*fan {
		t.Fatalf("%d matches folded into the fresh partial, want %d: stale slots", got, batch*fan)
	}
	merged, err := q.mergedGroups()
	if err != nil {
		t.Fatal(err)
	}
	if got := counted(merged); got != 3*batch*fan || merged.groups() != keys*fan {
		t.Fatalf("%d matches in %d groups after the merge, want %d in %d", got, merged.groups(), 3*batch*fan, keys*fan)
	}
}

// TestGroupFoldSlotsFollowTheStore: the slots resolve positions of one
// sealed store. An ungoverned worker that folds a second store (a thief
// with two owners; positions start at zero in each) must resolve its
// rows afresh, a fold too small to pay for resetting the slots must not
// touch them, and back on the first store the groups are the old ones.
func TestGroupFoldSlotsFollowTheStore(t *testing.T) {
	const keys = 8
	gb := &GroupBy{Key: 3, Aggs: []Aggregation{{Func: Count}}}
	q, probes := probeFixture(t, fanPlan(1, 8, keys, 1, keys, nil), gb, EngineConfig{Workers: 1, Batch: keys})
	root := q.mq.phys.root
	a := q.ops[root.partner.id].side.store
	// A second store of the same schema whose group column holds other
	// keys: position p is another group there.
	other := make([]Row, a.N)
	for p := range other {
		other[p] = Row{fmt.Sprintf("h%04d", p)}
	}
	b := &vec.Batch{Cols: []vec.Col{a.Cols[0], vec.FromRows(other).Cols[0], a.Cols[2]}, N: a.N}
	vs, gf := &q.vscratch[0], &q.partials[0]
	fold := func(store *vec.Batch, pairs int) {
		vs.probeRows, vs.bpos = vs.probeRows[:0], vs.bpos[:0]
		for p := 0; p < pairs; p++ {
			vs.probeRows, vs.bpos = append(vs.probeRows, int32(p)), append(vs.bpos, int32(p))
		}
		if n := q.foldGroups(root, 0, probes[0].input(vs), store); n != pairs {
			t.Fatalf("%d rows folded, want %d", n, pairs)
		}
	}
	fold(a, keys)
	fold(b, keys)
	fold(b, 1) // eight rows for one pair: looked up, not slotted
	if gf.store != b {
		t.Fatal("the slots do not belong to the last store they were reset for")
	}
	fold(a, 1)
	if gf.store != b {
		t.Fatal("a one-pair fold reset an eight-row slot vector")
	}
	fold(a, keys)
	byStore := map[string]int64{}
	for g := range gf.t.groups() {
		byStore[gf.t.key.Str[g][:1]] += gf.t.n[g]
	}
	if gf.t.groups() != 2*keys || byStore["g"] != 2*keys+1 || byStore["h"] != keys+1 {
		t.Fatalf("%d groups, matches by store %v: positions of one store counted into the other's groups", gf.t.groups(), byStore)
	}
}

// TestGroupFoldAllocBytesBound is the aggregate-without-flattening alloc
// gate (run by CI): a root probe under a group-by folds its match pairs
// in place, so the same probe input against a build side with 1 and
// with 8 rows per key — eight times the matches — allocates the same
// bytes per pass to within 5 %: nothing is allocated per match.
func TestGroupFoldAllocBytesBound(t *testing.T) {
	const keys, probeRows = 250, 50_000
	arg := func(r Row) float64 { return float64(r[1].(int)) + r[4].(float64) }
	perPass := func(key, fan int) float64 {
		gb := &GroupBy{Key: key, Aggs: []Aggregation{{Func: Count}, {Func: Sum, Arg: arg}, {Func: Max, Arg: arg}}}
		q, probes := probeFixture(t, fanPlan(1, 8, keys, fan, probeRows, nil), gb, EngineConfig{Workers: 1, Batch: 1024})
		run := func() {
			for _, a := range probes {
				if outs, out := q.processProbeVec(a, 0); outs != nil || out != nil {
					t.Fatalf("a root probe under a group-by emitted %d activations and batch %v", len(outs), out)
				}
			}
		}
		run() // seal, create the groups, grow the scratch to steady state
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)
		var n int64
		for _, c := range q.partials[0].t.n {
			n += c
		}
		if want := int64(2 * probeRows * fan); n != want || q.opRows[q.mq.phys.root.id] != want {
			t.Fatalf("fan-out %d: %d matches folded, %d attributed to the probe, want %d", fan, n, q.opRows[q.mq.phys.root.id], want)
		}
		return float64(m1.TotalAlloc - m0.TotalAlloc)
	}
	for _, key := range []int{0, 3} { // a probe column, a build column
		one, eight := perPass(key, 1), perPass(key, 8)
		// 4 KiB of slack: two ReadMemStats calls and a 49-batch pass that
		// allocates nothing still read a few hundred bytes apart.
		if math.Abs(eight-one) > 0.05*one+4096 {
			t.Fatalf("key column %d: %.0f B per pass at 1 row per key, %.0f B at 8: the fold allocates per match", key, one, eight)
		}
	}
}

// BenchmarkJoinGroupFold is BenchmarkJoinProbeGather's fixture ending in
// a group-by (2 000 groups, Count and a Sum reading both sides): the
// probe kernel plus the fold, no output batch between. The width cases
// key on a build column, whose groups the slots resolve once per build
// row; key=probe keys on the probe's join column, looked up in the group
// table once per match.
func BenchmarkJoinGroupFold(b *testing.B) {
	const buildRows, probeRows = 2_000, 100_000
	for _, bc := range []struct {
		name       string
		key, width int
	}{
		{"width=1", 2, 1}, {"width=4", 2, 4}, {"width=16", 2, 16}, {"key=probe", 0, 1},
	} {
		key, width := bc.key, bc.width
		b.Run(bc.name, func(b *testing.B) {
			gb := &GroupBy{Key: key, Aggs: []Aggregation{{Func: Count},
				{Func: Sum, Arg: func(r Row) float64 { return float64(r[1].(int) + r[len(r)-1].(int)) }}}}
			q, probes := probeFixture(b, widePlan(buildRows, probeRows, width), gb, EngineConfig{Workers: 1, Batch: 1024})
			run := func() {
				for _, a := range probes {
					q.processProbeVec(a, 0)
				}
			}
			run()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			matches := float64(probeRows) * float64(b.N)
			if got := float64(q.opRows[q.mq.phys.root.id]); got != matches+probeRows {
				b.Fatalf("%.0f matches folded, want %.0f", got, matches+probeRows)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/matches, "ns/match")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/matches, "B/match")
		})
	}
}

// argF reads a numeric Arg value of the tile fixture: an int or a
// float64, and a null as -1000, below every value the fixtures hold.
func argF(v any) float64 {
	if v == nil {
		return -1000
	}
	if i, ok := v.(int); ok {
		return float64(i)
	}
	return v.(float64)
}

// TestGroupFoldTileBoundaries: foldGroups fills its Arg rows a tile at a
// time, column-major, and must fold what a row-at-a-time fold of the
// same pairs folds — each row built value by value — for 1, tile−1,
// tile, tile+1 and 3·tile+5 matches; with the group key a probe column,
// a build column resolved through the slots and one looked up per match;
// over a probe whose short rows straddle the first tile edge, null in
// the column they lack; for a root scan's own rows; and governed, where
// the slots last one fold. Arg closures read the first, the third and
// the last column of the row they are given — the third, and a root
// scan's last, nil in a short row. Each case folds its pairs twice, so
// slots kept from the first fold serve the second.
func TestGroupFoldTileBoundaries(t *testing.T) {
	const factRows = 64
	tile := tileLen(6) // fact (k, v, w) ++ dim (k, g, x)
	for _, tc := range []struct {
		name     string
		key      int  // group key column of the joined row
		dimRows  int  // 4: slotted at any count; 200: looked up per match
		short    bool // rows tile-2 .. tile+2 of fact lack w
		scan     bool // a root scan of fact, no join
		governed bool
	}{
		{name: "probe-key", key: 1, dimRows: 200},
		{name: "build-key-slotted", key: 4, dimRows: 4},
		{name: "build-key-unslotted", key: 4, dimRows: 200},
		{name: "short-rows", key: 1, dimRows: 4, short: true},
		{name: "root-scan", key: 1, scan: true},
		{name: "root-scan-short-rows", key: 0, scan: true, short: true},
		{name: "governed-slotted", key: 4, dimRows: 4, governed: true},
		{name: "governed-probe-key", key: 1, dimRows: 200, governed: true},
	} {
		fact := &Table{Name: "fact", Cols: []string{"k", "v", "w"}}
		for i := 0; i < factRows; i++ {
			row := Row{i % 4, i, float64(i) / 4}
			if tc.short && i >= tile-2 && i < tile+3 {
				row = row[:2] // rows tile-2 .. tile+2 end before w
			}
			fact.Rows = append(fact.Rows, row)
		}
		dim := &Table{Name: "dim", Cols: []string{"k", "g", "x"}}
		for i := 0; i < tc.dimRows; i++ {
			dim.Rows = append(dim.Rows, Row{i % 4, fmt.Sprintf("g%d", i%5), float64(i) - 3})
		}
		gb := &GroupBy{Key: tc.key, Aggs: []Aggregation{{Func: Count},
			{Func: Sum, Arg: func(r Row) float64 { return argF(r[0]) }},
			{Func: Sum, Arg: func(r Row) float64 { return argF(r[2]) }},
			{Func: Max, Arg: func(r Row) float64 { return argF(r[len(r)-1]) }},
			{Func: Min, Arg: func(r Row) float64 { return argF(r[len(r)-1]) + argF(r[0]) }}}}
		cfg := EngineConfig{Workers: 1, Batch: 1024}
		if tc.governed {
			cfg.MemoryPerNode, cfg.SpillDir = 1<<20, t.TempDir()
		}
		for _, m := range []int{1, tile - 1, tile, tile + 1, 3*tile + 5} {
			var q *query
			var root *pop
			var b, store *vec.Batch
			if tc.scan {
				phys, err := compile(&Scan{Table: fact})
				if err != nil {
					t.Fatal(err)
				}
				q, root = newNodesT(t, cfg).newQuery(context.Background(), phys, gb).mq.frags[0], phys.root
				b = window(fact.Columnar(), 0, m)
			} else {
				var probes []*activation
				q, probes = probeFixture(t, &Join{Build: &Scan{Table: dim}, Probe: &Scan{Table: fact}}, gb, cfg)
				root = q.mq.phys.root
				b, store = probes[0].input(&q.vscratch[0]), q.ops[root.partner.id].side.store
			}
			vs := &q.vscratch[0]
			var want []Row
			for pass := 0; pass < 2; pass++ {
				vs.probeRows, vs.bpos = vs.probeRows[:0], vs.bpos[:0]
				for j := 0; j < m; j++ {
					pr, bp := j, 0
					if store != nil {
						pr, bp = j, j*3%tc.dimRows
						vs.probeRows, vs.bpos = append(vs.probeRows, int32(pr)), append(vs.bpos, int32(bp))
					}
					// The row-at-a-time row: value by value.
					var row Row
					for ci := 0; ci < len(b.Cols); ci++ {
						row = append(row, b.Cols[ci].Value(b.Cols[ci].Pos(pr)))
					}
					if store != nil {
						for ci := range store.Cols {
							row = append(row, store.Cols[ci].Value(bp))
						}
					}
					want = append(want, row)
				}
				if n := q.foldGroups(root, 0, b, store); n != m {
					t.Fatalf("%s, %d matches: %d folded", tc.name, m, n)
				}
			}
			if tc.governed {
				defer q.releaseSpill()
				if q.partials[0].store != nil {
					t.Fatalf("%s: a governed fold kept its slots", tc.name)
				}
			}
			if got, w := fmt.Sprint(resultRows(q.partials[0].t)), fmt.Sprint(refGroupBy(want, gb)); got != w {
				t.Fatalf("%s, %d matches (tile %d):\n got %s\nwant %s", tc.name, m, tile, got, w)
			}
		}
	}
}

// TestProbeFoldZeroAlloc is the batch probe-and-fold alloc gate (run by
// CI): a warm root-probe activation under a group-by — matchAll's typed
// loop, then the tiled fold filling Arg rows from both sides — makes no
// allocation, with the group key a probe column and a build column,
// the typed values boxed in place over the resident and stored mirrors.
func TestProbeFoldZeroAlloc(t *testing.T) {
	for _, key := range []int{0, 3} {
		plan := fanPlan(1, 8, 200, 2, 4096, nil)
		gb := &GroupBy{Key: key, Aggs: []Aggregation{{Func: Count},
			{Func: Sum, Arg: func(r Row) float64 { return float64(r[1].(int)) + r[len(r)-1].(float64) }}}}
		q, probes := probeFixture(t, plan, gb, EngineConfig{Workers: 1, Batch: 1024})
		for _, a := range probes { // create every group, grow the scratch
			q.processProbeVec(a, 0)
		}
		i := 0
		allocs := testing.AllocsPerRun(50, func() {
			q.processProbeVec(probes[i%len(probes)], 0)
			i++
		})
		if allocs != 0 {
			t.Fatalf("key column %d: %.1f allocations per warm probe activation, want 0", key, allocs)
		}
		if got, want := q.opRows[q.mq.phys.root.id], int64(2*(len(probes)+i)*1024); got != want {
			t.Fatalf("key column %d: %d matches folded, want %d", key, got, want)
		}
	}
}

// TestGroupTableAllocAmortized is the group-table alloc gate (run by
// CI): folding G new groups into a partial allocates only the amortized
// growth of the table's columns and index, at most 16·log₂G allocations —
// int keys ≥ 256, which the runtime would box on the heap, go into the
// typed key column, and nothing is allocated per group.
func TestGroupTableAllocAmortized(t *testing.T) {
	const groups = 2000
	tb := tbl("g", groups, func(i int) any { return 256 + i }, func(i int) any { return i })
	phys, err := compile(&Scan{Table: tb})
	if err != nil {
		t.Fatal(err)
	}
	gb := &GroupBy{Key: 0, Aggs: []Aggregation{{Func: Count},
		{Func: Sum, Arg: func(r Row) float64 { return float64(r[1].(int)) }},
		{Func: Max, Arg: func(r Row) float64 { return float64(r[1].(int)) }}}}
	q := newNodesT(t, EngineConfig{Workers: 1}).newQuery(context.Background(), phys, gb).mq.frags[0]
	b := tb.Columnar()
	q.foldGroups(phys.root, 0, b, nil) // grow the worker's scratch
	allocs := testing.AllocsPerRun(20, func() {
		q.partials[0].t = newGroupTable(gb.Aggs, phys.root.outKinds[gb.Key])
		if n := q.foldGroups(phys.root, 0, b, nil); n != groups {
			t.Fatalf("%d rows folded, want %d", n, groups)
		}
	})
	if got := q.partials[0].t.groups(); got != groups {
		t.Fatalf("%d groups, want %d", got, groups)
	}
	if bound := 16 * math.Log2(groups); allocs > bound {
		t.Fatalf("%.0f allocations to fold %d new groups, want at most %.0f", allocs, groups, bound)
	}
	t.Logf("%.0f allocations to fold %d new groups", allocs, groups)
}

// TestNaNGroupKeyFromBuildSide: a NaN group key read from a build column
// equals nothing, so each of its matches is a group of its own — also
// when the fold caches each build row's group (a store of at most four
// rows a match), which must not send every later match of a NaN row to
// its first group.
func TestNaNGroupKeyFromBuildSide(t *testing.T) {
	for _, dimRows := range []int{1, 1000} {
		dim := &Table{Name: "dim", Cols: []string{"k", "g"}}
		dim.Rows = append(dim.Rows, Row{0, math.NaN()})
		for i := 1; i < dimRows; i++ {
			dim.Rows = append(dim.Rows, Row{i, float64(i)})
		}
		fact := tbl("fact", 3, func(int) any { return 0 }, func(i int) any { return i })
		j := &Join{Build: &Scan{Table: dim}, Probe: &Scan{Table: fact}, BuildKey: 0, ProbeKey: 0}
		rows, _, err := runOnce(context.Background(), j, &GroupBy{Key: 3, Aggs: []Aggregation{{Func: Count}}}, EngineConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprint(rows)
		if want := "[[NaN 1] [NaN 1] [NaN 1]]"; got != want {
			t.Fatalf("%d dim rows: got %s, want %s", dimRows, got, want)
		}
	}
}
