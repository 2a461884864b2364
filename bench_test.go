// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5) at bench scale, plus ablations of the design decisions
// DESIGN.md calls out. Custom metrics report the interesting simulated
// quantities; wall-clock ns/op measures harness cost only.
//
// Run everything:
//
//	go test -bench=. -benchmem
package hierdb

import (
	"context"
	"fmt"
	"testing"
)

func tinyScale() Scale {
	s := BenchScale()
	s.Queries = 2
	return s
}

// BenchmarkParamsTables regenerates the §5.1.1 parameter tables (T1, T2).
func BenchmarkParamsTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ParamTables() == "" {
			b.Fatal("empty tables")
		}
	}
}

// BenchmarkFig6 regenerates Figure 6 (relative performance of SP, DP, FP).
func BenchmarkFig6(b *testing.B) {
	s := tinyScale()
	s.Fig6Procs = []int{4, 8}
	var fig *Figure
	for i := 0; i < b.N; i++ {
		fig = Fig6(s, nil)
	}
	report(b, fig, map[string]int{"dp_rel_vs_sp": 1, "fp_rel_vs_sp": 2})
}

// BenchmarkFig7 regenerates Figure 7 (cost-model errors on FP).
func BenchmarkFig7(b *testing.B) {
	s := tinyScale()
	s.Fig7Procs = []int{8}
	s.Fig7Rates = []float64{0, 0.30}
	var fig *Figure
	for i := 0; i < b.N; i++ {
		fig = Fig7(s, nil)
	}
	if fig != nil && len(fig.Series) > 0 {
		ys := fig.Series[0].Y
		b.ReportMetric(ys[len(ys)-1]/ys[0], "fp_degradation_30pct")
	}
}

// BenchmarkFig8 regenerates Figure 8 (speedup of SP, FP, DP).
func BenchmarkFig8(b *testing.B) {
	s := tinyScale()
	s.Fig8Procs = []int{1, 8}
	var fig *Figure
	for i := 0; i < b.N; i++ {
		fig = Fig8(s, nil)
	}
	if fig != nil {
		for _, series := range fig.Series {
			b.ReportMetric(series.Y[len(series.Y)-1], "speedup8_"+series.Label)
		}
	}
}

// BenchmarkFig9 regenerates Figure 9 (skew impact on DP).
func BenchmarkFig9(b *testing.B) {
	s := tinyScale()
	s.Fig9Skews = []float64{0, 1}
	s.Fig9Procs = 8
	var fig *Figure
	for i := 0; i < b.N; i++ {
		fig = Fig9(s, nil)
	}
	if fig != nil {
		ys := fig.Series[0].Y
		b.ReportMetric(ys[len(ys)-1], "dp_rel_at_zipf1")
	}
}

// BenchmarkTransferVolume regenerates the §5.3 in-text data-volume table.
func BenchmarkTransferVolume(b *testing.B) {
	s := BenchScale()
	var fig *Figure
	for i := 0; i < b.N; i++ {
		fig = Transfer(s, nil)
	}
	if fig != nil {
		dp, fp := fig.Series[0].Y[0], fig.Series[0].Y[1]
		b.ReportMetric(dp, "dp_lb_bytes")
		b.ReportMetric(fp, "fp_lb_bytes")
		if dp > 0 {
			b.ReportMetric(fp/dp, "fp_over_dp")
		}
	}
}

// BenchmarkFig10 regenerates Figure 10 (hierarchical FP vs DP).
func BenchmarkFig10(b *testing.B) {
	s := tinyScale()
	s.Fig10PPN = []int{2}
	var fig *Figure
	for i := 0; i < b.N; i++ {
		fig = Fig10(s, nil)
	}
	if fig != nil && len(fig.Series) == 2 {
		b.ReportMetric(fig.Series[1].Y[0], "fp_rel_vs_dp")
	}
}

func report(b *testing.B, fig *Figure, series map[string]int) {
	if fig == nil {
		return
	}
	for name, idx := range series {
		if idx < len(fig.Series) {
			ys := fig.Series[idx].Y
			b.ReportMetric(ys[len(ys)-1], name)
		}
	}
}

// ---------------------------------------------------------------------
// Ablation benches (DESIGN.md §5): each reports the simulated response
// time of one DP run with a design decision toggled.
// ---------------------------------------------------------------------

func ablationPlan(b *testing.B) (*Plan, Config) {
	b.Helper()
	s := tinyScale()
	w := GenerateWorkload(s, 1)
	return w.Plans[0], DefaultConfig(1, 8)
}

func runAblation(b *testing.B, tree *Plan, cfg Config, mutate func(*SimOptions)) {
	b.Helper()
	var rt float64
	for i := 0; i < b.N; i++ {
		r, err := ExecuteDP(tree, cfg, mutate)
		if err != nil {
			b.Fatal(err)
		}
		rt = r.ResponseTime.Seconds()
	}
	b.ReportMetric(rt, "vrt_seconds")
}

func BenchmarkAblationBaselineDP(b *testing.B) {
	tree, cfg := ablationPlan(b)
	runAblation(b, tree, cfg, nil)
}

func BenchmarkAblationQueuePerThread(b *testing.B) {
	tree, cfg := ablationPlan(b)
	runAblation(b, tree, cfg, func(o *SimOptions) { o.QueuePerThread = false })
}

func BenchmarkAblationPrimaryQueues(b *testing.B) {
	tree, cfg := ablationPlan(b)
	runAblation(b, tree, cfg, func(o *SimOptions) { o.PrimaryQueues = false })
}

func BenchmarkAblationFragmentation(b *testing.B) {
	tree, cfg := ablationPlan(b)
	for _, factor := range []int{1, 8, 32} {
		factor := factor
		b.Run(fmt.Sprintf("factor%d", factor), func(b *testing.B) {
			runAblation(b, tree, cfg, func(o *SimOptions) { o.FragmentationFactor = factor })
		})
	}
}

func BenchmarkAblationGranularity(b *testing.B) {
	tree, cfg := ablationPlan(b)
	for _, pages := range []int{1, 4, 16} {
		pages := pages
		b.Run(fmt.Sprintf("pages%d", pages), func(b *testing.B) {
			runAblation(b, tree, cfg, func(o *SimOptions) { o.PagesPerTrigger = pages })
		})
	}
}

func BenchmarkAblationConcurrentChains(b *testing.B) {
	// §3.2: executing more pipeline chains concurrently gives load
	// balancing more options at the price of memory.
	s := tinyScale()
	for _, mode := range []struct {
		label string
		sched PlanSchedule
	}{
		{"oneAtATime", DefaultSchedule()},
		{"fullParallel", FullParallelSchedule()},
	} {
		mode := mode
		b.Run(mode.label, func(b *testing.B) {
			w := GenerateWorkloadSchedule(s, 1, mode.sched)
			cfg := DefaultConfig(1, 8)
			var rt float64
			for i := 0; i < b.N; i++ {
				r, err := ExecuteDP(w.Plans[0], cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				rt = r.ResponseTime.Seconds()
			}
			b.ReportMetric(rt, "vrt_seconds")
		})
	}
}

func BenchmarkAblationNoGlobalLB(b *testing.B) {
	tree := ChainPlan(5, 4, 10)
	cfg := DefaultConfig(4, 2)
	for _, lb := range []bool{true, false} {
		lb := lb
		b.Run(fmt.Sprintf("globalLB=%v", lb), func(b *testing.B) {
			var rt float64
			for i := 0; i < b.N; i++ {
				r, err := ExecuteDP(tree, cfg, func(o *SimOptions) {
					o.RedistributionSkew = 0.8
					o.GlobalLB = lb
				})
				if err != nil {
					b.Fatal(err)
				}
				rt = r.ResponseTime.Seconds()
			}
			b.ReportMetric(rt, "vrt_seconds")
		})
	}
}

func BenchmarkAblationStealCache(b *testing.B) {
	tree := ChainPlan(5, 4, 10)
	cfg := DefaultConfig(4, 2)
	for _, cache := range []bool{true, false} {
		cache := cache
		b.Run(fmt.Sprintf("cache=%v", cache), func(b *testing.B) {
			var bytes float64
			for i := 0; i < b.N; i++ {
				r, err := ExecuteDP(tree, cfg, func(o *SimOptions) {
					o.RedistributionSkew = 0.8
					o.StealCache = cache
				})
				if err != nil {
					b.Fatal(err)
				}
				bytes = float64(r.BalanceBytes)
			}
			b.ReportMetric(bytes, "lb_bytes")
		})
	}
}

// ---------------------------------------------------------------------
// Real-data engine benches
// ---------------------------------------------------------------------

func buildBenchTables(n int) (*Table, *Table) {
	build := &Table{Name: "dim", Cols: []string{"k", "v"}}
	for i := 0; i < n/10; i++ {
		build.Rows = append(build.Rows, Row{i, i})
	}
	probe := &Table{Name: "fact", Cols: []string{"k", "v"}}
	for i := 0; i < n; i++ {
		probe.Rows = append(probe.Rows, Row{i % (n / 10), i})
	}
	return build, probe
}

// benchEngineJoin materializes a 100k-row join per iteration on a
// resident one-node DB, dynamic (DP) or statically bound (FP).
func benchEngineJoin(b *testing.B, static bool) {
	db := Open(WithWorkers(4), WithStatic(static))
	defer db.Close()
	build, probe := buildBenchTables(100_000)
	for _, tb := range []*Table{build, probe} {
		if err := db.Register(tb.Name, FromTable(tb)); err != nil {
			b.Fatal(err)
		}
	}
	q := db.Scan("fact").Join(db.Scan("dim"), KeyCol(0), KeyCol(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _, err := q.Collect(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 100_000 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

func BenchmarkEngineJoinDP(b *testing.B)     { benchEngineJoin(b, false) }
func BenchmarkEngineJoinStatic(b *testing.B) { benchEngineJoin(b, true) }
