package exec

import (
	"context"
	"strings"
	"testing"
)

// TestInputValidation is the table-driven check that malformed engine
// inputs — a plan the compiler refuses, or a configuration the engine's
// constructor refuses — return descriptive errors instead of panicking.
func TestInputValidation(t *testing.T) {
	valid := tbl("v", 10, func(i int) any { return i }, func(i int) any { return i })
	wide := &Table{Name: "w", Rows: []Row{{1, 2, 3}}}
	cases := []struct {
		name string
		root Node
		gb   *GroupBy
		cfg  EngineConfig
		want string // substring of the error
	}{
		{"nil root", nil, nil, EngineConfig{}, "nil plan"},
		{"scan without table", &Scan{}, nil, EngineConfig{}, "scan without table"},
		{"nil join input", &Join{Build: &Scan{Table: valid}, Probe: nil}, nil, EngineConfig{}, "nil plan node"},
		{"negative BuildKey", &Join{Build: &Scan{Table: valid}, Probe: &Scan{Table: valid}, BuildKey: -1},
			nil, EngineConfig{}, "BuildKey column -1 out of range"},
		{"BuildKey past the build width", &Join{Build: &Scan{Table: valid}, Probe: &Scan{Table: wide}, BuildKey: 2},
			nil, EngineConfig{}, "BuildKey column 2 out of range (build input has 2 columns)"},
		{"negative ProbeKey", &Join{Build: &Scan{Table: valid}, Probe: &Scan{Table: valid}, ProbeKey: -1},
			nil, EngineConfig{}, "ProbeKey column -1 out of range"},
		{"ProbeKey past the probe width", &Join{Build: &Scan{Table: wide}, Probe: &Scan{Table: valid}, ProbeKey: 2},
			nil, EngineConfig{}, "ProbeKey column 2 out of range (probe input has 2 columns)"},
		{"key past a projected input", &Join{Build: &Scan{Table: valid}, ProbeKey: 1,
			Probe: &Join{Build: &Scan{Table: valid}, Probe: &Scan{Table: valid}, Out: []int{3}}},
			nil, EngineConfig{}, "ProbeKey column 1 out of range (probe input has 1 columns)"},
		{"Out past the concatenation", &Join{Build: &Scan{Table: valid}, Probe: &Scan{Table: valid}, Out: []int{0, 4}},
			nil, EngineConfig{}, "Out column 4 out of range (probe ++ build has 4 columns)"},
		{"negative Out", &Join{Build: &Scan{Table: valid}, Probe: &Scan{Table: valid}, Out: []int{-1}},
			nil, EngineConfig{}, "Out column -1 out of range"},
		{"group key past the root width", &Scan{Table: valid}, &GroupBy{Key: 2},
			EngineConfig{}, "group-by Key column 2 out of range (plan output has 2 columns)"},
		{"negative group key", &Scan{Table: valid}, &GroupBy{Key: -1}, EngineConfig{}, "group-by Key column -1 out of range"},
		{"negative Workers", &Scan{Table: valid}, nil, EngineConfig{Workers: -2}, "negative Workers (-2)"},
		{"negative Stripes", &Scan{Table: valid}, nil, EngineConfig{Stripes: -1}, "negative Stripes (-1)"},
		{"negative Morsel", &Scan{Table: valid}, nil, EngineConfig{Morsel: -8}, "negative Morsel (-8)"},
		{"negative Batch", &Scan{Table: valid}, nil, EngineConfig{Batch: -3}, "negative Batch (-3)"},
		{"negative MemoryPerNode", &Scan{Table: valid}, nil, EngineConfig{MemoryPerNode: -1}, "negative MemoryPerNode (-1)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := runOnce(context.Background(), tc.root, tc.gb, tc.cfg)
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidationOnPoolSubmit checks the same contract on the resident
// surface, plus group-by validation and engine construction errors.
func TestValidationOnPoolSubmit(t *testing.T) {
	checkQueryHygiene(t)
	if _, err := NewNodesConfig(EngineConfig{Workers: -1}); err == nil || !strings.Contains(err.Error(), "negative Workers") {
		t.Fatalf("Workers -1: %v", err)
	}
	if _, err := NewNodesConfig(EngineConfig{MaxConcurrentQueries: -4}); err == nil || !strings.Contains(err.Error(), "negative MaxConcurrentQueries") {
		t.Fatalf("MaxConcurrentQueries -4: %v", err)
	}
	pool := newNodesT(t, EngineConfig{Workers: 2})
	valid := tbl("v", 10, func(i int) any { return i }, func(i int) any { return i })
	if _, err := pool.Submit(context.Background(), nil, nil, ""); err == nil {
		t.Fatal("nil root accepted by Submit")
	}
	if _, err := pool.Submit(context.Background(), &Scan{Table: valid},
		&GroupBy{Aggs: []Aggregation{{Func: Sum}}}, ""); err == nil ||
		!strings.Contains(err.Error(), "without Arg") {
		t.Fatalf("sum without Arg: %v", err)
	}
	// A probe key its input does not have is refused before the query
	// exists — on two nodes too, where the probe key is what a steal round
	// prices, outside any activation — and the engine serves the next one.
	two := newNodesT(t, EngineConfig{Nodes: 2, Workers: 2})
	bad := &Join{Build: &Scan{Table: valid}, Probe: &Scan{Table: valid}, ProbeKey: 9}
	if _, err := two.Submit(context.Background(), bad, nil, ""); err == nil || !strings.Contains(err.Error(), "ProbeKey column 9 out of range") {
		t.Fatalf("out-of-range probe key on two nodes: %v", err)
	}
	verifyIdle(t, two)
	// Zero still means default, not an error.
	h, err := pool.Submit(context.Background(), &Scan{Table: valid}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	drain(h)
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
}
