package difftest

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"hierdb"
	"hierdb/internal/leaktest"
)

// scanCase is a one-relation case: tb (renamed) scanned under preds, then
// grouped by g when it is set.
func scanCase(name string, tb *hierdb.Table, preds []hierdb.Pred, g *Group) *Case {
	tb = &hierdb.Table{Name: name + "_t", Cols: tb.Cols, Rows: tb.Rows}
	return &Case{Name: name, Tables: []*hierdb.Table{tb}, Preds: [][]hierdb.Pred{preds}, Group: g,
		order: []int{0}, attachEdge: []int{-1}}
}

// TestRetainedRowsSurviveLaterQueries proves the write-once invariant
// that boxing in place rests on: a value delivered from a decoded batch
// points into that batch's mirror, so a row retained past its query
// reads whatever that memory holds later. Rows of a predicated file
// scan, a governed join that spills and a group-by over a file scan are
// kept — through Rows.Row and through Collect — while twenty more
// queries on the same DB reuse the decoders' scratch, the read buffers,
// the spill write buffers and the arenas; after two collections every
// kept row must still be the reference's.
func TestRetainedRowsSurviveLaterQueries(t *testing.T) {
	leaktest.Check(t, 2)
	ctx := context.Background()
	join := Synthesize(0xD1FF, "RJ", 3)
	base := join.Tables[0]
	cases := []*Case{
		scanCase("RS", base, []hierdb.Pred{{Col: 0, Op: hierdb.Ge, Val: len(base.Rows) / 3}, {Col: 1, Op: hierdb.Ne, Val: 0}}, nil),
		join,
		scanCase("RG", base, []hierdb.Pred{{Col: 0, Op: hierdb.Lt, Val: 2 * len(base.Rows) / 3}}, &Group{Key: 1, Aggs: []hierdb.Aggregation{
			{Func: hierdb.Count}, {Func: hierdb.Sum, Arg: func(r hierdb.Row) float64 { return float64(r[0].(int)) }}}}),
	}
	for _, nodes := range []int{1, 2} {
		t.Run(fmt.Sprintf("%dnode", nodes), func(t *testing.T) {
			db := hierdb.Open(hierdb.WithNodes(nodes), hierdb.WithWorkers(2),
				hierdb.WithMemory(tinyBudget), hierdb.WithSpillDir(t.TempDir()))
			defer db.Close()
			dir := t.TempDir()
			queries := make([]*hierdb.Query, len(cases))
			for i, c := range cases {
				var err error
				if queries[i], err = c.BuildDisk(db, dir, 64); err != nil {
					t.Fatal(err)
				}
			}
			type kept struct {
				name string
				rows []hierdb.Row
				want map[string]int
			}
			var held []kept
			for i, c := range cases {
				want := c.Reference()
				if len(want) == 0 {
					t.Fatalf("%s: empty reference, nothing to retain", c.Name)
				}
				rows, err := queries[i].Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				var byRow []hierdb.Row
				for rows.Next() {
					byRow = append(byRow, rows.Row())
				}
				if err := rows.Close(); err != nil {
					t.Fatal(err)
				}
				collected, st, err := queries[i].Collect(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if c == join && st.SpillPhases == 0 {
					t.Fatalf("%s: the governed join never spilled: %+v", c.Name, st)
				}
				held = append(held, kept{c.Name + "/Row", byRow, want}, kept{c.Name + "/Collect", collected, want})
			}
			for i := 0; i < 20; i++ {
				if _, _, err := queries[i%len(queries)].Collect(ctx); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC()
			runtime.GC()
			for _, k := range held {
				if err := DiffMultisets(k.name, "row-reference", Multiset(k.rows), k.want); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
