package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hierdb/internal/baseline"
	"hierdb/internal/cluster"
	"hierdb/internal/core"
	"hierdb/internal/metrics"
	"hierdb/internal/plan"
)

var update = flag.Bool("update", false, "rewrite the simulator golden file from the current simulator")

// simGoldenPath holds every byte the simulator is pinned to: full run
// records and figure renderings. Any change to event order or virtual
// time shows up as a diff against it.
var simGoldenPath = filepath.Join("testdata", "sim_golden.txt")

// benchSimRuns renders the six (plan, strategy) executions the
// benchmark's sim_hier workload measures — chain5, the first two bench
// plans of a 4-node workload, each under DP and under FP at error rate 0,
// all with redistribution skew 0.8 on 4 nodes × 2 processors — as full
// run records.
func benchSimRuns(t *testing.T) string {
	const nodes, procs = 4, 2
	gen := BuildWorkload(BenchScale(), nodes)
	cfg := cluster.DefaultConfig(nodes, procs)
	skew := func(o *core.Options) { o.RedistributionSkew = 0.8 }
	var b strings.Builder
	for _, tree := range []*plan.Tree{ChainPlan(5, nodes, 10), gen.Plans[0], gen.Plans[1]} {
		dp, err := baseline.RunDP(tree, cfg, skew)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := baseline.RunFP(tree, cfg, 0, 1, skew)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(runRecord(dp))
		b.WriteString(runRecord(fp))
	}
	return b.String()
}

// runRecord renders every field of a run record on one line, integers
// (virtual times included) exactly, in nanoseconds.
func runRecord(r *metrics.Run) string {
	v := reflect.ValueOf(*r)
	var b strings.Builder
	for i := 0; i < v.NumField(); i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		f := v.Field(i)
		if f.Kind() == reflect.Int64 {
			fmt.Fprintf(&b, "%s=%d", v.Type().Field(i).Name, f.Int())
		} else {
			fmt.Fprintf(&b, "%s=%v", v.Type().Field(i).Name, f.Interface())
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// TestSimulatorGolden pins the simulator's output across commits: the
// benchmark's six run records and the nine tiny-scale figures must
// reproduce the golden file byte for byte. Rewrite it with
// `go test -run TestSimulatorGolden ./internal/experiments/ -args -update`
// only when a change to the simulated results is meant.
func TestSimulatorGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("== sim_hier runs\n")
	b.WriteString(benchSimRuns(t))
	for _, d := range []struct {
		name string
		run  func(Scale, Progress) *Figure
	}{
		{"fig6", Fig6}, {"fig7", Fig7}, {"fig8", Fig8}, {"fig9", Fig9}, {"fig10", Fig10},
		{"transfer", Transfer}, {"shapes", Shapes}, {"placement", PlacementSkew}, {"chains", ConcurrentChains},
	} {
		fmt.Fprintf(&b, "== %s\n", d.name)
		b.WriteString(d.run(tinyScale(), nil).String())
	}
	got := b.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(simGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(simGoldenPath)
	if err != nil {
		t.Fatalf("%v (create it with -args -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("simulator output differs from %s at line %d:\n got: %s\nwant: %s", simGoldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("simulator output differs from %s in length: %d lines, want %d", simGoldenPath, len(gl), len(wl))
	}
}
