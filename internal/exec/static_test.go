package exec

import (
	"context"
	"fmt"
	"testing"
)

// TestStaticMoreOpsThanWorkers exercises the LPT packing path: a chain of
// several operators on fewer workers must still cover every operator.
func TestStaticMoreOpsThanWorkers(t *testing.T) {
	checkQueryHygiene(t)
	fact := tbl("f", 2000, func(i int) any { return i % 50 }, func(i int) any { return i })
	plan := Node(&Scan{Table: fact})
	for d := 0; d < 4; d++ {
		dim := tbl(fmt.Sprintf("d%d", d), 50, func(i int) any { return i }, func(i int) any { return i })
		plan = &Join{
			Build:    &Scan{Table: dim},
			Probe:    plan,
			BuildKey: 0,
			ProbeKey: 0,
		}
	}
	// Final chain: scan + 4 probes = 5 operators; 2 workers force
	// multi-operator packing.
	rows, _, err := runOnce(context.Background(), plan, nil, Options{Workers: 2, Static: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2000 {
		t.Fatalf("%d rows, want 2000", len(rows))
	}
	dyn, _, err := runOnce(context.Background(), plan, nil, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn) != len(rows) {
		t.Fatalf("static %d vs dynamic %d rows", len(rows), len(dyn))
	}
}

// TestSingleWorker runs the whole pipeline on one worker (degenerate but
// legal).
func TestSingleWorker(t *testing.T) {
	checkQueryHygiene(t)
	b := tbl("b", 100, func(i int) any { return i % 10 }, func(i int) any { return i })
	p := tbl("p", 100, func(i int) any { return i % 10 }, func(i int) any { return i })
	plan := &Join{Build: &Scan{Table: b}, Probe: &Scan{Table: p}, BuildKey: 0, ProbeKey: 0}
	rows, stats, err := runOnce(context.Background(), plan, nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1000 {
		t.Fatalf("%d rows", len(rows))
	}
	if len(stats.PerWorker) != 1 || stats.PerWorker[0] != stats.Activations {
		t.Fatalf("per-worker accounting wrong: %+v", stats)
	}
}

// TestManyWorkersFewRows checks over-provisioned executions terminate.
func TestManyWorkersFewRows(t *testing.T) {
	checkQueryHygiene(t)
	b := tbl("b", 3, func(i int) any { return i }, func(i int) any { return i })
	p := tbl("p", 3, func(i int) any { return i }, func(i int) any { return i })
	plan := &Join{Build: &Scan{Table: b}, Probe: &Scan{Table: p}, BuildKey: 0, ProbeKey: 0}
	rows, _, err := runOnce(context.Background(), plan, nil, Options{Workers: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
}
