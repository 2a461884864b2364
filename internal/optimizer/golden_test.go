package optimizer_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hierdb/internal/catalog"
	"hierdb/internal/cluster"
	"hierdb/internal/experiments"
	"hierdb/internal/optimizer"
	"hierdb/internal/plan"
	"hierdb/internal/querygen"
	"hierdb/internal/xrand"
)

var update = flag.Bool("update", false, "rewrite the golden plan files from the current search")

// treeString renders a join tree exactly: leaf order, every join's
// selectivity and estimated cardinality (which fix the expansion's build
// sides), so two searches agree on the string only if they chose the same
// tree with the same estimates.
func treeString(n *plan.JoinNode) string {
	if n.IsLeaf() {
		return n.Rel.Name
	}
	return "(" + treeString(n.Left) + " " + treeString(n.Right) +
		" s=" + strconv.FormatFloat(n.Selectivity, 'g', -1, 64) +
		" c=" + strconv.FormatInt(n.Card, 10) + ")"
}

// shapedQuery draws a chain or a star of n relations: cardinalities from
// the paper's size classes, selectivities as querygen draws them, and
// relation indices shuffled so the shape does not follow the DP's bit
// order.
func shapedQuery(seed uint64, shape string, n int) *querygen.Query {
	r := xrand.New(seed)
	q := &querygen.Query{Name: fmt.Sprintf("%s%02d_%d", shape, n, seed)}
	for i := 0; i < n; i++ {
		class := catalog.SizeClass(r.Intn(3))
		q.Relations = append(q.Relations, catalog.Random(r, fmt.Sprintf("R%02d", i), class, []int{0}))
	}
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		a, b := perm[i], perm[i-1]
		if shape == "star" {
			b = perm[0]
		}
		ra, rb := q.Relations[a], q.Relations[b]
		big := max(ra.Cardinality, rb.Cardinality)
		sel := r.Range(0.5, 1.5) * float64(big) / (float64(ra.Cardinality) * float64(rb.Cardinality))
		q.Edges = append(q.Edges, querygen.Edge{A: a, B: b, Selectivity: sel})
	}
	return q
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
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

// TestBestTreesGolden pins the trees the search returns, for one and two
// trees, over the simulator's workload and over seeded chains and stars
// of 2-12 relations: the golden strings were recorded before the search
// lost its per-relation neighbour maps and its root-split re-enumeration.
func TestBestTreesGolden(t *testing.T) {
	o := optimizer.New(plan.DefaultCosts(), cluster.DefaultConfig(1, 1))
	var queries []*querygen.Query
	for _, p := range experiments.BuildWorkload(experiments.BenchScale(), 4).Plans {
		if strings.HasSuffix(p.Name, ".t1") {
			queries = append(queries, p.Query)
		}
	}
	if len(queries) == 0 {
		t.Fatal("workload has no queries")
	}
	for n := 2; n <= 12; n++ {
		for seed := uint64(1); seed <= 3; seed++ {
			queries = append(queries, shapedQuery(seed, "chain", n), shapedQuery(seed, "star", n))
		}
	}
	var got []string
	for _, q := range queries {
		for k := 1; k <= 2; k++ {
			for i, tr := range o.BestTrees(q, k) {
				got = append(got, fmt.Sprintf("%s k=%d t%d %s", q.Name, k, i+1, treeString(tr)))
			}
		}
	}
	checkGolden(t, "best_trees.golden", got)
}
