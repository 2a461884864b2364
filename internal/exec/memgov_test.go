package exec

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// govPlan is a fact-dim join whose build side is large enough to blow
// any small budget.
func govPlan(buildRows, probeRows int) Node {
	build := tbl("gb", buildRows, func(i int) any { return i }, func(i int) any { return fmt.Sprintf("b%d", i) })
	probe := tbl("gp", probeRows, func(i int) any { return i % buildRows }, func(i int) any { return i })
	return &Join{
		Build:    &Scan{Table: build},
		Probe:    &Scan{Table: probe},
		BuildKey: 0,
		ProbeKey: 0,
	}
}

// runGoverned runs the plan on a fresh engine of configuration cfg (a
// memory budget, typically) and returns rows plus stats.
func runGoverned(t *testing.T, plan Node, cfg EngineConfig) ([]Row, *Stats) {
	t.Helper()
	out, st, err := runOnce(context.Background(), plan, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out, st
}

// TestSpillJoinMatchesUnlimited is the core governance contract: a join
// whose build side exceeds MemoryPerNode completes, spills, and returns
// exactly the unlimited-memory result.
func TestSpillJoinMatchesUnlimited(t *testing.T) {
	checkQueryHygiene(t)
	plan := govPlan(5_000, 20_000)
	want, _, err := runOnce(context.Background(), plan, nil, EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, st := runGoverned(t, plan, EngineConfig{MemoryPerNode: 16 << 10, SpillDir: t.TempDir()})
	sameRows(t, got, want)
	if st.SpillPhases == 0 || st.SpilledPartitions == 0 || st.SpilledBytes == 0 {
		t.Fatalf("build of ~5000 rows under a 16KiB budget did not spill: %+v", st)
	}
}

// TestSpillRecursesOnOversizedPartitions forces re-partitioning: the
// budget is far below one top-level partition's size — and below a
// second-level one's — so loads must recurse at least two levels deep
// (a first-level split alone accounts for two fan-outs) and still
// match.
func TestSpillRecursesOnOversizedPartitions(t *testing.T) {
	checkQueryHygiene(t)
	plan := govPlan(8_000, 8_000)
	want, _, err := runOnce(context.Background(), plan, nil, EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, st := runGoverned(t, plan, EngineConfig{MemoryPerNode: 4 << 10, SpillDir: t.TempDir()})
	sameRows(t, got, want)
	if st.SpilledPartitions < 3*spillFanout {
		t.Fatalf("no two-level re-partitioning under a 4KiB budget: %d partitions", st.SpilledPartitions)
	}
}

// TestSpillChainedJoins: a spilled join feeding another join (whose own
// build may also spill) must still match the unlimited plan.
func TestSpillChainedJoins(t *testing.T) {
	checkQueryHygiene(t)
	dim := tbl("dim", 3_000, func(i int) any { return i }, func(i int) any { return i % 11 })
	mid := tbl("mid", 6_000, func(i int) any { return i % 3_000 }, func(i int) any { return i * 3 })
	fact := tbl("fact", 4_000, func(i int) any { return (i * 3) % 18_000 }, func(i int) any { return i })
	mk := func() Node {
		inner := &Join{Build: &Scan{Table: dim}, Probe: &Scan{Table: mid},
			BuildKey: 0, ProbeKey: 0}
		return &Join{Build: &Scan{Table: fact}, Probe: inner,
			BuildKey: 0, ProbeKey: 1}
	}
	want, _, err := runOnce(context.Background(), mk(), nil, EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, st := runGoverned(t, mk(), EngineConfig{MemoryPerNode: 24 << 10, SpillDir: t.TempDir()})
	sameRows(t, got, want)
	if st.SpillPhases == 0 {
		t.Fatalf("chained plan did not spill under budget: %+v", st)
	}
}

// TestSpillGroupByMatchesUnlimited: group-by partials over a spilled
// join respect the budget by spilling partial maps, and the merged
// output is identical to the unlimited run.
func TestSpillGroupByMatchesUnlimited(t *testing.T) {
	checkQueryHygiene(t)
	plan := govPlan(4_000, 16_000)
	gb := &GroupBy{
		Key: 0, // probe key: 4000 groups — enough to overflow a small budget
		Aggs: []Aggregation{
			{Func: Count},
			{Func: Sum, Arg: func(r Row) float64 { return float64(r[1].(int)) }},
			{Func: Min, Arg: func(r Row) float64 { return float64(r[1].(int)) }},
			{Func: Max, Arg: func(r Row) float64 { return float64(r[1].(int)) }},
		},
	}
	want, _, err := runOnce(context.Background(), plan, gb, EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	pool := newNodesT(t, EngineConfig{MemoryPerNode: 16 << 10, SpillDir: t.TempDir()})
	h, err := pool.Submit(context.Background(), plan, gb, "")
	if err != nil {
		t.Fatal(err)
	}
	got := collectHandle(t, h)
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	for i := range got {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("group %d = %v, want %v", i, got[i], want[i])
		}
	}
	if st := h.Stats(); st.SpilledBytes == 0 {
		t.Fatalf("governed group-by spilled nothing: %+v", st)
	}
}

// TestMultiNodeSpillMatchesUnlimited: every node governs its own
// budget; a 2- and 4-node engine under a tiny budget must match the
// flat unlimited run, with and without stealing enabled.
func TestMultiNodeSpillMatchesUnlimited(t *testing.T) {
	checkQueryHygiene(t)
	plan := govPlan(5_000, 20_000)
	want, _, err := runOnce(context.Background(), plan, nil, EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4} {
		for _, steal := range []bool{true, false} {
			t.Run(fmt.Sprintf("nodes=%d/steal=%v", n, steal), func(t *testing.T) {
				ns := newNodesT(t, EngineConfig{Nodes: n, Workers: 2,
					MemoryPerNode:   8 << 10,
					SpillDir:        t.TempDir(),
					DisableStealing: !steal,
				})
				h, err := ns.Submit(context.Background(), plan, nil, "")
				if err != nil {
					t.Fatal(err)
				}
				got := collectHandle(t, h)
				sameRows(t, got, want)
				st := h.Stats()
				if st.SpillPhases == 0 {
					t.Fatalf("no fragment spilled under an 8KiB per-node budget: %+v", st)
				}
				var parts int64
				for _, nst := range st.Nodes {
					parts += nst.SpilledPartitions
				}
				if parts != st.SpilledPartitions {
					t.Fatalf("per-node spill partitions do not sum: %d vs %d", parts, st.SpilledPartitions)
				}
			})
		}
	}
}

// TestSpillStaticMode: spill-phase activations schedule correctly under
// the static (FP) worker-operator binding too.
func TestSpillStaticMode(t *testing.T) {
	checkQueryHygiene(t)
	plan := govPlan(5_000, 20_000)
	want, _, err := runOnce(context.Background(), plan, nil, EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, st := runGoverned(t, plan, EngineConfig{MemoryPerNode: 16 << 10, SpillDir: t.TempDir(), Static: true})
	sameRows(t, got, want)
	if st.SpillPhases == 0 {
		t.Fatalf("static governed run did not spill: %+v", st)
	}
}

// TestSpillCancellationRemovesTempFiles cancels mid-spill (and
// separately closes the pool mid-spill) and requires prompt abort with
// the spill directory left empty.
func TestSpillCancellationRemovesTempFiles(t *testing.T) {
	checkQueryHygiene(t)
	dir := t.TempDir()
	pool := newNodesT(t, EngineConfig{MemoryPerNode: 32 << 10, SpillDir: dir})
	ctx, cancel := context.WithCancel(context.Background())
	h, err := pool.Submit(ctx, govPlan(60_000, 240_000), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	h.Next() // wait for first output, well into spill-phase execution
	cancel()
	start := time.Now()
	drain(h)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain after mid-spill cancel took %v", elapsed)
	}
	if err := h.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled spilling query reported %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill temp files leaked after cancel: %v", names(ents))
	}
	// Pool-idle check: a fresh governed query on the same pool completes.
	got, st := func() ([]Row, *Stats) {
		h2, err := pool.Submit(context.Background(), govPlan(3_000, 3_000), nil, "")
		if err != nil {
			t.Fatal(err)
		}
		return collectHandle(t, h2), h2.Stats()
	}()
	if len(got) != 3_000 || st.SpillPhases == 0 {
		t.Fatalf("post-cancel governed query: %d rows, stats %+v", len(got), st)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("spill temp files leaked after clean completion: %v", names(ents))
	}
}

func names(ents []os.DirEntry) []string {
	out := make([]string, len(ents))
	for i, e := range ents {
		out[i] = e.Name()
	}
	return out
}

// TestSpillUnsupportedTypeFails: a governed query that must spill rows
// with a non-encodable column reports a descriptive error instead of
// wrong results.
func TestSpillUnsupportedTypeFails(t *testing.T) {
	checkQueryHygiene(t)
	type opaque struct{ x int }
	build := &Table{Name: "b", Cols: []string{"k", "v"}}
	for i := 0; i < 5_000; i++ {
		build.Rows = append(build.Rows, Row{i, opaque{i}})
	}
	probe := tbl("p", 100, func(i int) any { return i }, func(i int) any { return i })
	plan := &Join{Build: &Scan{Table: build}, Probe: &Scan{Table: probe},
		BuildKey: 0, ProbeKey: 0}
	pool := newNodesT(t, EngineConfig{MemoryPerNode: 8 << 10, SpillDir: t.TempDir()})
	h, err := pool.Submit(context.Background(), plan, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	drain(h)
	if err := h.Err(); err == nil || !strings.Contains(err.Error(), "unsupported column type") {
		t.Fatalf("governed query over non-encodable rows reported %v", err)
	}
}

// TestNegativeMemoryRejected: the engine's constructor refuses a
// negative budget.
func TestNegativeMemoryRejected(t *testing.T) {
	_, err := NewNodesConfig(EngineConfig{MemoryPerNode: -1})
	if err == nil || !strings.Contains(err.Error(), "MemoryPerNode") {
		t.Fatalf("negative MemoryPerNode: %v", err)
	}
}

// TestUngovernedHasNoSpillState: the default path must not even
// allocate governance state, and reports zero spill counters.
func TestUngovernedHasNoSpillState(t *testing.T) {
	checkQueryHygiene(t)
	got, st := runGoverned(t, govPlan(500, 500), EngineConfig{})
	if len(got) != 500 {
		t.Fatalf("%d rows", len(got))
	}
	if st.SpilledPartitions != 0 || st.SpilledBytes != 0 || st.SpillPhases != 0 {
		t.Fatalf("ungoverned run reports spill counters: %+v", st)
	}
}
