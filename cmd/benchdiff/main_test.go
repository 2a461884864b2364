package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: hierdb
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkKernelDelay-4        	78090435	        14.03 ns/op	       0 B/op	       0 allocs/op
BenchmarkMultiNodeSkew/steal-4	      20	  32868772 ns/op	   3650936 rows/s	        22.40 steals/op	20037969 B/op	    8433 allocs/op
BenchmarkMultiNodeSkew/steal-4	      20	  30000000 ns/op	   3650936 rows/s	        21.00 steals/op	20037969 B/op	    8500 allocs/op
PASS
ok  	hierdb	1.745s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
	kd := got["BenchmarkKernelDelay"]
	if kd == nil || kd.NsOp != 14.03 || kd.AllocsOp != 0 {
		t.Fatalf("KernelDelay parsed as %+v", kd)
	}
	ms := got["BenchmarkMultiNodeSkew/steal"]
	if ms == nil {
		t.Fatal("sub-benchmark name not parsed")
	}
	// Repeated runs keep the minimum of each quantity independently.
	if ms.NsOp != 30000000 || ms.AllocsOp != 8433 {
		t.Fatalf("merged repeat = %+v, want min ns 3e7 and min allocs 8433", ms)
	}
	// Custom metrics come wholesale from the fastest (min ns/op) run —
	// the second one here.
	if ms.Metrics["rows/s"] != 3650936 || ms.Metrics["steals/op"] != 21 {
		t.Fatalf("custom metrics should follow the fastest run: %v", ms.Metrics)
	}
}

func TestLoadBaselinesBothSchemas(t *testing.T) {
	dir := t.TempDir()
	kernel := filepath.Join(dir, "kernel.json")
	engine := filepath.Join(dir, "engine.json")
	os.WriteFile(kernel, []byte(`{"benchmarks": {
		"BenchmarkKernelDelay": {"before": {"ns_op": 599, "allocs_op": 2}, "after": {"allocs_op": 0}}
	}}`), 0o644)
	os.WriteFile(engine, []byte(`{"benchmarks": {
		"BenchmarkMultiNodeSkew/steal": {"baseline": {"allocs_op": 8433}}
	}}`), 0o644)
	base, err := loadBaselines([]string{kernel, engine})
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := base["BenchmarkKernelDelay"]; !ok || b.AllocsOp != 0 {
		t.Fatalf("kernel baseline gates against %+v, want the after numbers", b)
	}
	if b := base["BenchmarkMultiNodeSkew/steal"]; b.AllocsOp != 8433 {
		t.Fatalf("engine baseline = %+v", b)
	}
}

func TestCompareGate(t *testing.T) {
	base := map[string]baseline{
		"BenchmarkA":    {AllocsOp: 100},
		"BenchmarkZero": {AllocsOp: 0},
		"BenchmarkGone": {AllocsOp: 1},
	}
	fresh := map[string]*benchResult{
		"BenchmarkA":    {NsOp: 1249, AllocsOp: 125}, // within ±25%
		"BenchmarkZero": {NsOp: 9, AllocsOp: 0},
	}
	probs := compare(base, fresh, 0.25, false)
	if len(probs) != 1 || !strings.Contains(probs[0], "BenchmarkGone") {
		t.Fatalf("want only the missing-benchmark failure, got %v", probs)
	}
	if probs := compare(base, fresh, 0.25, true); len(probs) != 0 {
		t.Fatalf("skip-missing still failed: %v", probs)
	}

	// An allocs/op regression beyond tolerance fails, and a zero-alloc
	// baseline fails on any allocation at all; ns/op is never gated,
	// however far it moves.
	fresh["BenchmarkA"].NsOp = 1e9
	fresh["BenchmarkA"].AllocsOp = 126
	fresh["BenchmarkZero"].AllocsOp = 1
	probs = compare(base, fresh, 0.25, true)
	if len(probs) != 2 {
		t.Fatalf("want two allocs/op regressions, got %v", probs)
	}
	for _, p := range probs {
		if !strings.Contains(p, "allocs/op regressed") {
			t.Fatalf("unexpected problems: %v", probs)
		}
	}

	// Improvements never fail.
	fresh["BenchmarkA"] = &benchResult{NsOp: 10, AllocsOp: 1}
	fresh["BenchmarkZero"] = &benchResult{NsOp: 1, AllocsOp: 0}
	if probs := compare(base, fresh, 0.25, true); len(probs) != 0 {
		t.Fatalf("improvement flagged: %v", probs)
	}

	// The tolerance is one fraction for every benchmark: at the default
	// 1.0 a quantity fails only beyond twice its baseline.
	fresh["BenchmarkA"] = &benchResult{NsOp: 1999, AllocsOp: 200}
	if probs := compare(base, fresh, 1.0, true); len(probs) != 0 {
		t.Fatalf("within 2x flagged at tolerance 1.0: %v", probs)
	}
	fresh["BenchmarkA"].AllocsOp = 201
	if probs := compare(base, fresh, 1.0, true); len(probs) != 1 {
		t.Fatalf("beyond 2x not flagged at tolerance 1.0: %v", probs)
	}
}
