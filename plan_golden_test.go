package hierdb_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hierdb"
	"hierdb/internal/difftest"
	"hierdb/internal/exec"
)

var update = flag.Bool("update", false, "rewrite the golden plan file from the current planner")

// planString renders an exec plan exactly: leaf order and hints, every
// join's probe and build sides, keys, hint and Out list.
func planString(n exec.Node) string {
	switch v := n.(type) {
	case *exec.Scan:
		return v.Table.Name + "#" + strconv.FormatInt(v.RowsHint, 10)
	case *exec.Join:
		s := "(" + planString(v.Probe) + " ⋈ " + planString(v.Build) +
			fmt.Sprintf(" k=%d,%d #%d", v.ProbeKey, v.BuildKey, v.RowsHint)
		if len(v.Out) > 0 {
			s += fmt.Sprintf(" out=%v", v.Out)
		}
		return s + ")"
	}
	return fmt.Sprintf("%T", n)
}

// TestBridgePlansGolden pins the plan the full optimizer chooses for the
// differential corpus — literal order, the greedy bad order, with drawn
// scan predicates, and ending in a drawn group-by — analyzed as the
// corpus's opt legs run it. The golden strings were recorded before the
// bridge stopped building optimizer relations to call the search.
func TestBridgePlansGolden(t *testing.T) {
	var got []string
	for qi := 0; qi < 26; qi++ {
		seed := 0xD1FF + uint64(qi)*7919
		for _, variant := range []string{"literal", "bad", "preds", "group"} {
			c := difftest.Synthesize(seed, fmt.Sprintf("Q%02d", qi), 3+qi%3)
			db := hierdb.Open(hierdb.WithOptimizer(hierdb.OptimizerFull))
			var q *hierdb.Query
			var err error
			switch variant {
			case "bad":
				q, err = c.BuildBad(db)
			case "preds":
				c.DrawPreds(seed)
				q, err = c.Build(db)
			case "group":
				c.DrawGroup(seed)
				q, err = c.Build(db)
			default:
				q, err = c.Build(db)
			}
			if err == nil {
				err = c.AnalyzeAll(db)
			}
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("Q%02d %s %s", qi, variant, planString(hierdb.PlanRoot(q))))
			db.Close()
		}
	}
	path := filepath.Join("testdata", "bridge_plans.golden")
	text := strings.Join(got, "\n") + "\n"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d plans, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("plan %d diverged:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
