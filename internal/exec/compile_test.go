package exec

import (
	"fmt"
	"testing"

	"hierdb/internal/vec"
)

// pointPlan is the point lookup's plan: an Eq-filtered account scan
// probing a small region table's build side — scan, scan, build, probe.
func pointPlan() *Join {
	acct := &Table{Name: "acct", Cols: []string{"id", "region", "balance", "owner"}}
	for i := 0; i < 4096; i++ {
		acct.Rows = append(acct.Rows, Row{i, i % 64, i * 7, fmt.Sprintf("owner-%06x", i)})
	}
	region := &Table{Name: "region", Cols: []string{"r", "name"}}
	for i := 0; i < 64; i++ {
		region.Rows = append(region.Rows, Row{i, fmt.Sprintf("region-%02d", i)})
	}
	acct.Columnar()
	region.Columnar()
	return &Join{
		Probe:    &Scan{Table: acct, Preds: []vec.Pred{{Col: 0, Op: vec.Eq, Val: 17}}},
		Build:    &Scan{Table: region},
		ProbeKey: 1,
		BuildKey: 0,
	}
}

// BenchmarkCompile is compile alone on the point lookup's plan: the
// operators, their schemas and the topologically ordered chains.
func BenchmarkCompile(b *testing.B) {
	root := pointPlan()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compile(root); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCompileAllocBound gates compile's allocations on the point plan
// (24 when every operator, chain, kinds slice and sort scratch slice was
// an allocation of its own).
func TestCompileAllocBound(t *testing.T) {
	root := pointPlan()
	n := testing.AllocsPerRun(100, func() {
		if _, err := compile(root); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("compile allocates %.0f objects", n)
	if n > 10 {
		t.Fatalf("compiling the point plan allocates %.0f objects, want <= 10", n)
	}
}
