package difftest

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"hierdb"
	"hierdb/internal/leaktest"
	"hierdb/internal/store"
	"hierdb/internal/vec"
	"hierdb/internal/xrand"
)

// FuzzTableFileRoundTrip writes a randomly shaped relation — random
// column kinds (including constant columns, whose every chunk has
// min==max zones, all-null columns, and columns mixing ints and strings,
// whose pure chunks are typed under an Any schema), random null density
// (so typed columns get all-null chunks, encoded Any), random chunk
// size — to a table file, streams it back through the engine, and
// requires the multiset to match the source rows exactly. Then random
// predicate sets — one to three predicates, every operator, constants
// inside and outside each kind's family, columns out of range — go
// through every way the file can answer them: chunk by chunk,
// ReadChunkWhere must return row for row, in order, what ApplyPreds
// selects from the fully decoded chunk (zone-map pruning, predicate
// dropping and the filtering decoder against the plain kernel); and
// engine scans of the file and of an in-memory twin, with and without
// a row filter, must agree.
func FuzzTableFileRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint16(100), uint8(4), uint8(16), uint8(30))      // mixed kinds, modest chunks, some nulls
	f.Add(uint64(2), uint16(1), uint8(1), uint8(1), uint8(0))          // single row: every chunk zone has min==max
	f.Add(uint64(3), uint16(200), uint8(3), uint8(64), uint8(255))     // null-saturated: all-null columns and chunks
	f.Add(uint64(0xC0457), uint16(500), uint8(6), uint8(7), uint8(40)) // odd chunk size, null-heavy
	f.Add(uint64(5)<<32|9, uint16(300), uint8(2), uint8(64), uint8(0)) // constant columns across many chunks
	f.Fuzz(func(t *testing.T, seed uint64, nrows16 uint16, ncols8, chunk8, nullDen uint8) {
		leaktest.Check(t, 2)
		nrows := int(nrows16) % 2000
		ncols := int(ncols8)%6 + 1
		chunkRows := int(chunk8)%512 + 1
		r := xrand.New(seed)

		// Per-column value generators; kind 3 is a constant column
		// (min==max in every chunk zone), kind 4 is all-null, kind 5
		// mixes ints and strings so the column degrades to a boxed kind.
		kinds := make([]int, ncols)
		cols := make([]string, ncols)
		for i := range kinds {
			kinds[i] = r.Intn(8)
			cols[i] = fmt.Sprintf("c%d", i)
		}
		cell := func(ci int) any {
			if kinds[ci] != 3 && kinds[ci] != 4 && nullDen > 0 && r.Intn(256) < int(nullDen) {
				return nil
			}
			switch kinds[ci] {
			case 0:
				return r.Intn(1000) - 500
			case 1:
				if r.Intn(64) == 0 {
					return math.NaN()
				}
				return float64(r.Intn(4000))/8 - 250
			case 2:
				return fmt.Sprintf("v%03d", r.Intn(500))
			case 3:
				return 42
			case 4:
				return nil
			case 6:
				return r.Intn(3) == 0
			case 7:
				return uint64(r.Intn(50)) << 58
			default:
				if r.Intn(2) == 0 {
					return r.Intn(100)
				}
				return fmt.Sprintf("m%02d", r.Intn(100))
			}
		}
		rows := make([]hierdb.Row, nrows)
		for i := range rows {
			row := make(hierdb.Row, ncols)
			for ci := range row {
				row[ci] = cell(ci)
			}
			rows[i] = row
		}

		path := filepath.Join(t.TempDir(), "fuzz.hdb")
		if err := store.WriteTable(path, cols, chunkRows, rows); err != nil {
			t.Fatal(err)
		}
		db := hierdb.Open(hierdb.WithWorkers(2))
		defer db.Close()
		if err := db.Register("f", hierdb.FromFile(path)); err != nil {
			t.Fatal(err)
		}
		mem := &hierdb.Table{Name: "m", Cols: cols, Rows: rows}
		if err := db.Register(mem.Name, hierdb.FromTable(mem)); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()

		got, _, err := db.Scan("f").Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := DiffMultisets("file-scan", "source-rows", Multiset(got), Multiset(rows)); err != nil {
			t.Fatal(err)
		}

		// Random predicate sets. A constant is usually one of the column's
		// own values (so Eq and the range ends hit), else drawn from a pool
		// spanning every family.
		pool := []any{0, -500, 42, int32(7), int64(42), uint64(3) << 58, uint64(0), 0.0, -250.0, math.NaN(), true, false, "", "m50", "v250", nil}
		drawPreds := func() []hierdb.Pred {
			preds := make([]hierdb.Pred, 1+r.Intn(3))
			for i := range preds {
				p := hierdb.Pred{Col: r.Intn(ncols), Op: hierdb.CmpOp(r.Intn(int(hierdb.NotNull) + 1)), Val: pool[r.Intn(len(pool))]}
				if nrows > 0 && r.Intn(3) > 0 {
					p.Val = rows[r.Intn(nrows)][p.Col]
				}
				if r.Intn(24) == 0 {
					p.Col = ncols + r.Intn(2) - r.Intn(2)*(ncols+2) // just past either end
				}
				preds[i] = p
			}
			return preds
		}
		tf, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer tf.Close()
		var sc store.Scanner
		var arena vec.Arena
		filter := func(r hierdb.Row) bool { return len(r) > 0 && r[0] != nil }
		for trial := 0; trial < 6; trial++ {
			preds := drawPreds()
			for ci := 0; ci < tf.NumChunks(); ci++ {
				full, err := tf.ReadChunk(ci)
				if err != nil {
					t.Fatal(err)
				}
				want := vec.Select(full, vec.ApplyPreds(full, preds, nil, nil), &arena).AppendRows(nil, &arena)
				gotB, err := tf.ReadChunkWhere(ci, preds, &sc)
				if err != nil {
					t.Fatal(err)
				}
				got := gotB.AppendRows(nil, &arena)
				if len(got) != len(want) {
					t.Fatalf("chunk %d under %+v: %d rows, want %d", ci, preds, len(got), len(want))
				}
				for i := range want {
					if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
						t.Fatalf("chunk %d under %+v: row %d = %v, want %v", ci, preds, i, got[i], want[i])
					}
				}
				for ki, k := range tf.Kinds() {
					if gotB.N > 0 && gotB.Cols[ki].Kind != k {
						t.Fatalf("chunk %d column %d: kind %v, schema says %v", ci, ki, gotB.Cols[ki].Kind, k)
					}
				}
			}
			for _, f := range []func(hierdb.Row) bool{nil, filter} {
				scan := func(name string) map[string]int {
					q := db.Scan(name)
					if f != nil {
						q = q.Filter(f)
					}
					got, _, err := q.Where(preds...).Collect(ctx)
					if err != nil {
						t.Fatal(err)
					}
					return Multiset(got)
				}
				if err := DiffMultisets("file-pred-scan", "memory-pred-scan", scan("f"), scan("m")); err != nil {
					t.Fatalf("%v\npredicates %+v, filter %v", err, preds, f != nil)
				}
			}
		}
	})
}
