package hierdb

import (
	"fmt"
	"testing"

	"hierdb/internal/exec"
)

// pointDB is the point-lookup shape: a 4 096-row account table keyed by
// id with a region column, and a 64-row region table, both analyzed at
// registration.
func pointDB(tb testing.TB, opts ...Option) *DB {
	db := Open(opts...)
	tb.Cleanup(func() { db.Close() })
	acct := &Table{Name: "acct", Cols: []string{"id", "region", "balance", "owner"}}
	for i := 0; i < 4096; i++ {
		acct.Rows = append(acct.Rows, Row{i, i % 64, i * 7, fmt.Sprintf("owner-%06x", i)})
	}
	region := &Table{Name: "region", Cols: []string{"r", "name"}}
	for i := 0; i < 64; i++ {
		region.Rows = append(region.Rows, Row{i, fmt.Sprintf("region-%02d", i)})
	}
	for _, t := range []*Table{acct, region} {
		if err := db.Register(t.Name, FromTable(t), WithStats()); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// pointQuery looks one account up and joins its region.
func pointQuery(db *DB, id int) *Query {
	return db.Scan("acct").Where(Pred{Col: 0, Op: Eq, Val: id}).
		Join(db.Scan("region"), KeyCol(1), KeyCol(0))
}

// BenchmarkPlanPoint is the per-query planning cost of a point lookup:
// optimize is the full cost-based pass (estimation, DP search, tree
// rebuild), hints the same call stopping at statistics-derived hints —
// the floor the full pass adds its search to.
func BenchmarkPlanPoint(b *testing.B) {
	db := pointDB(b)
	q := pointQuery(db, 17)
	for _, mode := range []struct {
		name string
		mode OptimizerMode
	}{{"optimize", OptimizerFull}, {"hints", OptimizerHints}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				exec.Optimize(q.node, mode.mode, db.statsFor)
			}
		})
	}
}

// TestPlanAllocBound gates the point lookup's planning allocations: the
// full pass analyzes two leaves, searches a two-relation graph and
// rebuilds a one-join tree (55 allocations when each search built
// optimizer relations, neighbour maps and a second validation).
func TestPlanAllocBound(t *testing.T) {
	db := pointDB(t)
	q := pointQuery(db, 17)
	if pc := exec.Optimize(q.node, OptimizerFull, db.statsFor); pc.Reason != "" {
		t.Fatalf("point plan not searched: %s", pc.Reason)
	}
	n := testing.AllocsPerRun(100, func() { exec.Optimize(q.node, OptimizerFull, db.statsFor) })
	t.Logf("full-mode planning allocates %.0f objects", n)
	if n > 20 {
		t.Fatalf("planning the point lookup allocates %.0f objects, want <= 20", n)
	}
}
