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
// groupsToRows' output order.
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
			flat, _, err := runOnce(context.Background(), plan, nil, Options{Workers: 2, Stripes: stripes})
			if err != nil {
				t.Fatal(err)
			}
			if len(flat) != probeRows*fan {
				t.Fatalf("%d joined rows, want %d", len(flat), probeRows*fan)
			}
			want := fmt.Sprint(refGroupBy(flat, gb))
			check := func(leg string, ns *Nodes, opt Options) *Stats {
				t.Helper()
				h, err := ns.SubmitGroupBy(context.Background(), plan, gb, opt)
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
			check("1node", newNodesT(t, 1, 2), Options{Stripes: stripes, Batch: 256})
			two := newNodesT(t, nodes, 2)
			stole := false
			for attempt := 0; attempt < 5 && !stole; attempt++ {
				stole = check("2node", two, Options{Stripes: stripes, Batch: 256}).StolenActivations > 0
			}
			if !stole {
				t.Fatal("no probe activation was stolen on a fully skewed workload")
			}
			// The budget holds a spill partition's store beside a few groups, not
			// the build side and not a partial of 1 200 groups.
			st := check("spilling", two, Options{Stripes: stripes, Batch: 256, MemoryPerNode: 64 << 10, SpillDir: t.TempDir()})
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
		Options{Workers: 1, Batch: batch, MemoryPerNode: 1 << 20, SpillDir: t.TempDir()})
	defer q.releaseSpill()
	counted := func(m map[any]*groupState) (n int64) {
		for _, g := range m {
			n += g.n
		}
		return n
	}
	q.processProbeVec(probes[0], 0)
	q.chargeMem(q.memBudget) // the next new group finds the budget spent
	q.processProbeVec(probes[1], 0)
	if q.gbFiles[0] == nil || len(q.partials[0].m) != 0 {
		t.Fatalf("the second batch's new groups did not spill the partial (%d groups resident)", len(q.partials[0].m))
	}
	q.unchargeMem(q.memBudget)
	// The third batch's keys were all resolved by the first two.
	q.processProbeVec(probes[2], 0)
	if got := counted(q.partials[0].m); got != batch*fan {
		t.Fatalf("%d matches folded into the fresh partial, want %d: stale slots", got, batch*fan)
	}
	merged, err := q.mergedGroups()
	if err != nil {
		t.Fatal(err)
	}
	if got := counted(merged); got != 3*batch*fan || len(merged) != keys*fan {
		t.Fatalf("%d matches in %d groups after the merge, want %d in %d", got, len(merged), 3*batch*fan, keys*fan)
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
	q, probes := probeFixture(t, fanPlan(1, 8, keys, 1, keys, nil), gb, Options{Workers: 1, Batch: keys})
	root := q.mq.phys.root
	side, err := q.ops[root.partner.id].seal(&q.vscratch[0])
	if err != nil {
		t.Fatal(err)
	}
	a := side.store
	// A second store of the same shape whose group column holds the join
	// keys: position p is another group there.
	b := &vec.Batch{Cols: []vec.Col{a.Cols[0], a.Cols[0], a.Cols[2]}, N: a.N}
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
	byKind := map[string]int64{}
	for k, g := range gf.m {
		byKind[fmt.Sprintf("%T", k)] += g.n
	}
	if len(gf.m) != 2*keys || byKind["string"] != 2*keys+1 || byKind["int"] != keys+1 {
		t.Fatalf("%d groups, matches by key type %v: positions of one store counted into the other's groups", len(gf.m), byKind)
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
		q, probes := probeFixture(t, fanPlan(1, 8, keys, fan, probeRows, nil), gb, Options{Workers: 1, Batch: 1024})
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
		for _, g := range q.partials[0].m {
			n += g.n
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
// a group-by on a build column (2 000 groups, Count and a Sum reading
// both sides): the probe kernel plus the fold, no output batch between.
func BenchmarkJoinGroupFold(b *testing.B) {
	const buildRows, probeRows = 2_000, 100_000
	for _, width := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			gb := &GroupBy{Key: 2, Aggs: []Aggregation{{Func: Count},
				{Func: Sum, Arg: func(r Row) float64 { return float64(r[1].(int) + r[len(r)-1].(int)) }}}}
			q, probes := probeFixture(b, widePlan(buildRows, probeRows, width), gb, Options{Workers: 1, Batch: 1024})
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
