package exec

import (
	"context"
	"strings"
	"testing"
)

// TestInputValidation is the table-driven check that malformed engine
// inputs return descriptive errors instead of panicking.
func TestInputValidation(t *testing.T) {
	valid := tbl("v", 10, func(i int) any { return i }, func(i int) any { return i })
	cases := []struct {
		name string
		root Node
		opt  Options
		want string // substring of the error
	}{
		{"nil root", nil, Options{}, "nil plan"},
		{"scan without table", &Scan{}, Options{}, "scan without table"},
		{"nil join input", &Join{Build: &Scan{Table: valid}, Probe: nil,
			BuildKey: KeyCol(0), ProbeKey: KeyCol(0)}, Options{}, "nil plan node"},
		{"nil BuildKey", &Join{Build: &Scan{Table: valid}, Probe: &Scan{Table: valid},
			ProbeKey: KeyCol(0)}, Options{}, "nil BuildKey"},
		{"nil ProbeKey", &Join{Build: &Scan{Table: valid}, Probe: &Scan{Table: valid},
			BuildKey: KeyCol(0)}, Options{}, "nil ProbeKey"},
		{"negative Workers", &Scan{Table: valid}, Options{Workers: -2}, "negative Workers (-2)"},
		{"negative Stripes", &Scan{Table: valid}, Options{Stripes: -1}, "negative Stripes (-1)"},
		{"negative Morsel", &Scan{Table: valid}, Options{Morsel: -8}, "negative Morsel (-8)"},
		{"negative Batch", &Scan{Table: valid}, Options{Batch: -3}, "negative Batch (-3)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := runOnce(context.Background(), tc.root, nil, tc.opt)
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
// surface, plus group-by validation and pool construction errors.
func TestValidationOnPoolSubmit(t *testing.T) {
	if _, err := NewNodes(1, -1, 0); err == nil || !strings.Contains(err.Error(), "negative Workers") {
		t.Fatalf("NewNodes(1, -1, 0) = %v", err)
	}
	if _, err := NewNodes(1, 2, -4); err == nil || !strings.Contains(err.Error(), "negative MaxConcurrentQueries") {
		t.Fatalf("NewNodes(1, 2, -4) = %v", err)
	}
	pool, err := NewNodes(1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	valid := tbl("v", 10, func(i int) any { return i }, func(i int) any { return i })
	if _, err := pool.Submit(context.Background(), nil, Options{}); err == nil {
		t.Fatal("nil root accepted by Submit")
	}
	if _, err := pool.Submit(context.Background(), &Scan{Table: valid}, Options{Workers: -1}); err == nil {
		t.Fatal("negative Workers accepted by Submit")
	}
	if _, err := pool.SubmitGroupBy(context.Background(), &Scan{Table: valid}, nil, Options{}); err == nil ||
		!strings.Contains(err.Error(), "group-by without key") {
		t.Fatalf("nil group-by: %v", err)
	}
	if _, err := pool.SubmitGroupBy(context.Background(), &Scan{Table: valid},
		&GroupBy{Key: KeyCol(0), Aggs: []Aggregation{{Func: Sum}}}, Options{}); err == nil ||
		!strings.Contains(err.Error(), "without Arg") {
		t.Fatalf("sum without Arg: %v", err)
	}
	// Zero still means default, not an error.
	h, err := pool.Submit(context.Background(), &Scan{Table: valid}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for range h.Out() {
	}
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
}
