package hierdb

import (
	"context"
	"strings"
	"testing"
)

// The facade tests exercise the public API end to end the way a library
// user would.

func TestPublicSimulationAPI(t *testing.T) {
	s := BenchScale()
	s.Queries = 1
	w := GenerateWorkload(s, 1)
	if len(w.Plans) != 1 {
		t.Fatalf("%d plans", len(w.Plans))
	}
	cfg := DefaultConfig(1, 4)
	sp, err := ExecuteSP(w.Plans[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := ExecuteDP(w.Plans[0], cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := ExecuteFP(w.Plans[0], cfg, 0.1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Run{sp, dp, fp} {
		if r.ResponseTime <= 0 || r.ResultTuples <= 0 {
			t.Fatalf("bad run %+v", r)
		}
	}
	if dp.Relative(sp) < 0.9 {
		t.Fatalf("DP dramatically beat SP (%v vs %v): simulation shape broken", dp.ResponseTime, sp.ResponseTime)
	}
}

func TestPublicHierarchicalAPI(t *testing.T) {
	chain := ChainPlan(5, 2, 10)
	cfg := DefaultConfig(2, 2)
	r, err := ExecuteDP(chain, cfg, func(o *SimOptions) { o.RedistributionSkew = 0.5 })
	if err != nil {
		t.Fatal(err)
	}
	if r.PipelineBytes == 0 {
		t.Fatal("no pipeline traffic on a 2-node run")
	}
}

func TestPublicEngineAPI(t *testing.T) {
	left := &Table{Name: "l", Cols: []string{"k"}, Rows: []Row{{1}, {2}, {3}}}
	right := &Table{Name: "r", Cols: []string{"k"}, Rows: []Row{{2}, {3}, {4}}}
	db := Open(WithWorkers(2))
	defer db.Close()
	for _, tb := range []*Table{left, right} {
		if err := db.Register(tb.Name, FromTable(tb)); err != nil {
			t.Fatal(err)
		}
	}
	rows, stats, err := db.Scan("r").Join(db.Scan("l"), KeyCol(0), KeyCol(0)).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	if stats.ResultRows != 2 {
		t.Fatalf("stats.ResultRows = %d", stats.ResultRows)
	}
}

func TestParamTablesPublic(t *testing.T) {
	out := ParamTables()
	if !strings.Contains(out, "network parameters") || !strings.Contains(out, "disk parameters") {
		t.Fatalf("param tables missing sections:\n%s", out)
	}
}

func TestFigureDriversSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure drivers covered by benchmarks")
	}
	s := BenchScale()
	s.Queries = 1
	s.Fig6Procs = []int{4}
	fig := Fig6(s, nil)
	if fig.ID != "fig6" || len(fig.Series) != 3 {
		t.Fatalf("bad fig6: %+v", fig)
	}
}
