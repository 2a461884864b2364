package core_test

import (
	"testing"

	"hierdb/internal/baseline"
	"hierdb/internal/cluster"
	"hierdb/internal/core"
	"hierdb/internal/experiments"
	"hierdb/internal/metrics"
)

// TestMultiNodeRunAllocBound gates the multi-node path the one-node
// churn gate never reaches: steal rounds, their network messages,
// pipelined deliveries and credit returns. A 4-node, 2-thread FP run of
// the skewed chain5 — thousands of starving rounds, nearly all of them
// failing — must allocate at most 0.05 times per steal round plus queue
// operation, which leaves room for the per-run setup only.
func TestMultiNodeRunAllocBound(t *testing.T) {
	tree := experiments.ChainPlan(5, 4, 10)
	cfg := cluster.DefaultConfig(4, 2)
	skew := func(o *core.Options) { o.RedistributionSkew = 0.8 }
	run := func() *metrics.Run {
		r, err := baseline.RunFP(tree, cfg, 0, 1, skew)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := run()
	if r.StealRounds < 1000 {
		t.Fatalf("want a run with >= 1000 steal rounds to make the gate meaningful, got %d", r.StealRounds)
	}
	allocs := testing.AllocsPerRun(3, func() { run() })
	per := allocs / float64(r.StealRounds+r.QueueOps)
	t.Logf("%.0f allocations for %d steal rounds and %d queue ops (%.3f each)", allocs, r.StealRounds, r.QueueOps, per)
	if per > 0.05 {
		t.Fatalf("multi-node FP run allocates %.0f times for %d steal rounds and %d queue ops (%.3f each), want <= 0.05",
			allocs, r.StealRounds, r.QueueOps, per)
	}
}
