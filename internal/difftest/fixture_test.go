package difftest

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hierdb"
	"hierdb/internal/store"
)

// fixtureRows are the rows of testdata/pr15_table.hdb, a table file
// written (128-row chunks) by the commit before the chunk decoder
// learned to filter: ints, a nullable string, floats with NaNs, a column
// whose first two chunks are pure ints under an Any schema, a column
// whose first chunk is all-null under an int64 schema, bools, uint64s.
func fixtureRows() []hierdb.Row {
	rows := make([]hierdb.Row, 1000)
	for i := range rows {
		var s any = fmt.Sprintf("s%03d", i%37)
		if i%11 == 0 {
			s = nil
		}
		f := float64(i) / 4
		if i%53 == 0 {
			f = math.NaN()
		}
		var mixed any = i % 13
		if i >= 256 && i%3 == 0 {
			mixed = fmt.Sprintf("m%02d", i%13)
		}
		var sparse any
		if i >= 128 {
			sparse = int64(i) * 1_000_003
		}
		rows[i] = hierdb.Row{i, i % 7, s, f, mixed, sparse, i%5 == 0, uint64(i) << 40}
	}
	return rows
}

// TestParentWrittenFileScansIdentically: no file-format change rode in
// with the filtering decoder. The fixture reads back as its source rows,
// answers predicate scans exactly like an in-memory twin, and is byte
// for byte what today's writer produces from the same rows.
func TestParentWrittenFileScansIdentically(t *testing.T) {
	const fixture = "testdata/pr15_table.hdb"
	cols := []string{"id", "m", "s", "f", "mixed", "sparse", "b", "u"}
	rows := fixtureRows()

	rewritten := filepath.Join(t.TempDir(), "now.hdb")
	if err := store.WriteTable(rewritten, cols, 128, rows); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(rewritten); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("today's writer no longer produces the fixture's bytes (err %v): the file format moved", err)
	}

	db := hierdb.Open(hierdb.WithWorkers(2))
	defer db.Close()
	if err := db.Register("f", hierdb.FromFile(fixture)); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("m", hierdb.FromTable(&hierdb.Table{Name: "m", Cols: cols, Rows: rows})); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, preds := range [][]hierdb.Pred{
		nil,
		{{Col: 0, Op: hierdb.Ge, Val: 500}, {Col: 1, Op: hierdb.Lt, Val: 2}},
		{{Col: 2, Op: hierdb.Ge, Val: "s020"}, {Col: 3, Op: hierdb.Le, Val: 100.0}},
		{{Col: 4, Op: hierdb.Eq, Val: 5}},
		{{Col: 4, Op: hierdb.Gt, Val: "m05"}, {Col: 6, Op: hierdb.Eq, Val: true}},
		{{Col: 5, Op: hierdb.IsNull}},
		{{Col: 5, Op: hierdb.Gt, Val: int64(500_000_000)}, {Col: 7, Op: hierdb.Lt, Val: uint64(900) << 40}},
		{{Col: 3, Op: hierdb.Eq, Val: math.NaN()}, {Col: 2, Op: hierdb.NotNull}},
	} {
		got, _, err := db.Scan("f").Where(preds...).Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		twin, _, err := db.Scan("m").Where(preds...).Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(twin) == 0 {
			t.Fatalf("predicates %+v select nothing: broken fixture", preds)
		}
		if err := DiffMultisets("fixture-file", "in-memory-twin", Multiset(got), Multiset(twin)); err != nil {
			t.Fatalf("%v\npredicates %+v", err, preds)
		}
	}
}
