package store

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"hierdb/internal/vec"
)

func tmpTable(t *testing.T, cols []string, chunkRows int, rows []vec.Row) *TableFile {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.hdbt")
	if err := WriteTable(path, cols, chunkRows, rows); err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// scanAll decodes every chunk and materializes all rows.
func scanAll(t *testing.T, f *TableFile) []vec.Row {
	t.Helper()
	var a vec.Arena
	var out []vec.Row
	for i := 0; i < f.NumChunks(); i++ {
		b, err := f.ReadChunk(i)
		if err != nil {
			t.Fatalf("ReadChunk(%d): %v", i, err)
		}
		out = b.AppendRows(out, &a)
	}
	return out
}

func TestRoundTripTypedAndMixed(t *testing.T) {
	rows := []vec.Row{
		{int64(1), "alpha", 1.5, uint64(7), true, nil},
		{int64(2), "beta", math.NaN(), uint64(8), false, "x"},
		{nil, "gamma", -2.25, nil, nil, int32(9)},
		{int64(4), nil, 0.0, uint64(0), true, 3.5},
	}
	f := tmpTable(t, []string{"a", "b", "c", "d", "e", "f"}, 2, rows)
	if f.NumRows() != 4 || f.NumChunks() != 2 {
		t.Fatalf("rows=%d chunks=%d, want 4/2", f.NumRows(), f.NumChunks())
	}
	wantKinds := []vec.Kind{vec.Int64, vec.String, vec.Float64, vec.Uint64, vec.Bool, vec.Any}
	if !reflect.DeepEqual(f.Kinds(), wantKinds) {
		t.Fatalf("kinds = %v, want %v", f.Kinds(), wantKinds)
	}
	got := scanAll(t, f)
	if len(got) != len(rows) {
		t.Fatalf("got %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		for j := range rows[i] {
			gv, wv := got[i][j], rows[i][j]
			if fv, ok := wv.(float64); ok && math.IsNaN(fv) {
				if gf, ok := gv.(float64); !ok || !math.IsNaN(gf) {
					t.Fatalf("row %d col %d: got %v, want NaN", i, j, gv)
				}
				continue
			}
			if !reflect.DeepEqual(gv, wv) {
				t.Fatalf("row %d col %d: got %#v, want %#v", i, j, gv, wv)
			}
		}
	}
}

// An all-null chunk of a typed column must decode as a typed all-null
// column (kind promotion), and an all-null column across every chunk
// must stay Any — matching what vec.FromRows over the whole table
// resolves.
func TestKindCoercion(t *testing.T) {
	rows := []vec.Row{
		// chunk 0: col a typed, col b all null
		{int64(1), nil},
		{int64(2), nil},
		// chunk 1: col a all null, col b all null
		{nil, nil},
		{nil, nil},
	}
	f := tmpTable(t, []string{"a", "b"}, 2, rows)
	wantKinds := []vec.Kind{vec.Int64, vec.Any}
	if !reflect.DeepEqual(f.Kinds(), wantKinds) {
		t.Fatalf("kinds = %v, want %v", f.Kinds(), wantKinds)
	}
	b, err := f.ReadChunk(1)
	if err != nil {
		t.Fatal(err)
	}
	c := &b.Cols[0]
	if c.Kind != vec.Int64 || c.I64 == nil {
		t.Fatalf("all-null chunk of typed column: kind=%v I64=%v, want promoted Int64 mirror", c.Kind, c.I64)
	}
	if c.Box != nil {
		t.Fatal("promoted column kept the all-null chunk's Box, want boxless like any decoded typed column")
	}
	for i := 0; i < b.N; i++ {
		if !c.NullAt(i) || c.Value(i) != nil {
			t.Fatalf("promoted row %d not null (Value %v)", i, c.Value(i))
		}
	}
	if got := scanAll(t, f); !reflect.DeepEqual(got, rows) {
		t.Fatalf("rows through promotion = %v, want %v", got, rows)
	}
	// Mixed kinds across chunks degrade the schema to Any, and typed
	// chunks degrade on read.
	rows2 := []vec.Row{{int64(1)}, {nil}, {"x"}, {"y"}}
	f2 := tmpTable(t, []string{"a"}, 2, rows2)
	if f2.Kinds()[0] != vec.Any {
		t.Fatalf("mixed-chunk column kind = %v, want Any", f2.Kinds()[0])
	}
	b0, err := f2.ReadChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	if b0.Cols[0].Kind != vec.Any || b0.Cols[0].I64 != nil {
		t.Fatalf("typed chunk under Any schema: kind=%v, want degraded Any", b0.Cols[0].Kind)
	}
	// The degraded column must have boxed its decoded mirror first: an
	// Any column has nothing but its Box to read values from.
	if got := scanAll(t, f2); !reflect.DeepEqual(got, rows2) {
		t.Fatalf("rows through Any degrade = %v, want %v", got, rows2)
	}
	if c0 := &b0.Cols[0]; c0.Value(0) != int64(1) || !c0.NullAt(1) || c0.Value(1) != nil {
		t.Fatalf("degraded column reads %v, %v; want 1, <nil>", c0.Value(0), c0.Value(1))
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.hdbt")
	rows := []vec.Row{{int64(1), "a"}, {int64(2), "b"}, {int64(3), "c"}}
	if err := WriteTable(path, []string{"x", "y"}, 2, rows); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, f func([]byte) []byte) {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, f(append([]byte(nil), data...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(p); err == nil {
			t.Fatalf("%s: Open accepted a corrupt file", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
	mutate("truncated", func(b []byte) []byte { return b[:len(b)/2] })
	mutate("badmagic", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b })
	mutate("badcrc", func(b []byte) []byte { b[len(b)-24] ^= 0xff; return b }) // inside the footer
	mutate("badflen", func(b []byte) []byte { b[len(b)-12] = 0xee; return b })
	mutate("empty", func(b []byte) []byte { return nil })
	// A writer that never Closed leaves no trailer at all.
	w, err := Create(filepath.Join(dir, "unclosed"), []string{"x"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(vec.Row{int64(1)}); err != nil {
		t.Fatal(err)
	}
	w.f.Close() // abandon without footer
	if _, err := Open(filepath.Join(dir, "unclosed")); err == nil {
		t.Fatal("Open accepted a footerless file")
	}
}

func TestWriterRejectsRaggedRows(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "t"), []string{"a", "b"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(vec.Row{int64(1)}); err == nil {
		t.Fatal("Append accepted a narrow row")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close after a sticky error should report it")
	}
}

func TestZoneMapSkippable(t *testing.T) {
	// One chunk per scenario (chunkRows 2).
	rows := []vec.Row{
		// chunk 0: ints 10..20
		{int64(10), "m", 1.0},
		{int64(20), "p", 2.0},
		// chunk 1: ints 100..200, strings q..z
		{int64(100), "q", 3.0},
		{int64(200), "z", 4.5},
		// chunk 2: all nulls in every column
		{nil, nil, nil},
		{nil, nil, nil},
		// chunk 3: constant int 42, NaN floats
		{int64(42), "q", math.NaN()},
		{int64(42), "q", math.NaN()},
	}
	f := tmpTable(t, []string{"i", "s", "f"}, 2, rows)
	if f.NumChunks() != 4 {
		t.Fatalf("chunks = %d, want 4", f.NumChunks())
	}
	cases := []struct {
		name string
		pred vec.Pred
		want [4]bool // skippable per chunk
	}{
		{"eq-15", vec.Pred{Col: 0, Op: vec.Eq, Val: int64(15)}, [4]bool{false, true, true, true}},
		{"eq-42", vec.Pred{Col: 0, Op: vec.Eq, Val: 42}, [4]bool{true, true, true, false}},
		{"ne-42", vec.Pred{Col: 0, Op: vec.Ne, Val: int64(42)}, [4]bool{false, false, true, true}},
		{"lt-10", vec.Pred{Col: 0, Op: vec.Lt, Val: int64(10)}, [4]bool{true, true, true, true}},
		{"le-10", vec.Pred{Col: 0, Op: vec.Le, Val: int64(10)}, [4]bool{false, true, true, true}},
		{"gt-200", vec.Pred{Col: 0, Op: vec.Gt, Val: int64(200)}, [4]bool{true, true, true, true}},
		{"ge-200", vec.Pred{Col: 0, Op: vec.Ge, Val: int64(200)}, [4]bool{true, false, true, true}},
		{"isnull", vec.Pred{Col: 0, Op: vec.IsNull}, [4]bool{true, true, false, true}},
		{"notnull", vec.Pred{Col: 0, Op: vec.NotNull}, [4]bool{false, false, true, false}},
		{"str-eq", vec.Pred{Col: 1, Op: vec.Eq, Val: "q"}, [4]bool{true, false, true, false}},
		{"str-gt-z", vec.Pred{Col: 1, Op: vec.Gt, Val: "z"}, [4]bool{true, true, true, true}},
		{"wrong-family", vec.Pred{Col: 0, Op: vec.Eq, Val: "15"}, [4]bool{true, true, true, true}},
		{"col-oob", vec.Pred{Col: 9, Op: vec.Eq, Val: int64(1)}, [4]bool{true, true, true, true}},
		// NaN rows satisfy Eq/Le/Ge against any constant, never Ne/Lt/Gt.
		{"f-eq-99", vec.Pred{Col: 2, Op: vec.Eq, Val: 99.0}, [4]bool{true, true, true, false}},
		{"f-gt-99", vec.Pred{Col: 2, Op: vec.Gt, Val: 99.0}, [4]bool{true, true, true, true}},
		// A NaN constant matches all non-null floats under Eq/Le/Ge.
		{"f-eq-nan", vec.Pred{Col: 2, Op: vec.Eq, Val: math.NaN()}, [4]bool{false, false, true, false}},
		{"f-lt-nan", vec.Pred{Col: 2, Op: vec.Lt, Val: math.NaN()}, [4]bool{true, true, true, true}},
	}
	for _, tc := range cases {
		for ci := 0; ci < 4; ci++ {
			if got := f.Skippable(ci, []vec.Pred{tc.pred}); got != tc.want[ci] {
				t.Errorf("%s chunk %d: Skippable = %v, want %v", tc.name, ci, got, tc.want[ci])
			}
		}
	}
	// AND semantics: any one unmatchable predicate skips.
	and := []vec.Pred{
		{Col: 0, Op: vec.Ge, Val: int64(0)},
		{Col: 1, Op: vec.Eq, Val: "zzz"}, // above every chunk's string max
	}
	for ci := 0; ci < 4; ci++ {
		if !f.Skippable(ci, and) {
			t.Errorf("AND with unmatchable leg: chunk %d not skipped", ci)
		}
	}
	if f.Skippable(0, nil) {
		t.Error("empty predicate list must never skip")
	}
}

// Soundness property of the zone-map classifier, over random data and
// random predicates including null-heavy, constant and NaN-laced
// columns: a chunk classified matchNone is one ApplyPreds selects zero
// rows from, a predicate classified matchAll selects every row — and
// whatever the classification, ReadChunkWhere returns exactly the rows
// ApplyPreds selects from the fully decoded chunk.
func TestZoneMatchSound(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	var a vec.Arena
	var sc Scanner
	seen := map[match]int{}
	for iter := 0; iter < 200; iter++ {
		nrows := 1 + rnd.Intn(40)
		rows := make([]vec.Row, nrows)
		mode := rnd.Intn(5)
		nullEvery := 2 + rnd.Intn(12)
		for i := range rows {
			var v any
			switch {
			case rnd.Intn(nullEvery) == 0:
				v = nil
			case mode == 0:
				v = int64(rnd.Intn(20) - 10)
			case mode == 1:
				v = rnd.Float64()*20 - 10
				if rnd.Intn(5) == 0 {
					v = math.NaN()
				}
			case mode == 2:
				v = fmt.Sprintf("s%02d", rnd.Intn(20))
			case mode == 3:
				v = rnd.Intn(2) == 0
			default:
				v = uint64(rnd.Intn(20))
			}
			rows[i] = vec.Row{v, i}
		}
		f := tmpTable(t, []string{"c", "i"}, 8, rows)
		ops := []vec.CmpOp{vec.Eq, vec.Ne, vec.Lt, vec.Le, vec.Gt, vec.Ge, vec.IsNull, vec.NotNull}
		for trial := 0; trial < 30; trial++ {
			var val any
			switch rnd.Intn(6) {
			case 0:
				val = int64(rnd.Intn(24) - 12)
			case 1:
				val = rnd.Float64()*24 - 12
			case 2:
				val = fmt.Sprintf("s%02d", rnd.Intn(24))
			case 3:
				val = rnd.Intn(2) == 0
			case 4:
				val = math.NaN()
			default:
				val = uint64(rnd.Intn(24))
			}
			p := vec.Pred{Col: 0, Op: ops[rnd.Intn(len(ops))], Val: val}
			for ci := 0; ci < f.NumChunks(); ci++ {
				b, err := f.ReadChunk(ci)
				if err != nil {
					t.Fatal(err)
				}
				sel := vec.ApplyPreds(b, []vec.Pred{p}, nil, a.I32(b.N))
				m := f.zoneMatch(f.Chunk(ci), &p)
				seen[m]++
				if m == matchNone && len(sel) != 0 || m == matchAll && len(sel) != b.N {
					t.Fatalf("iter %d mode %d chunk %d: pred %+v classified %d but matches %d of %d rows", iter, mode, ci, p, m, len(sel), b.N)
				}
				if f.Skippable(ci, []vec.Pred{p}) != (m == matchNone) {
					t.Fatalf("Skippable disagrees with the classifier on %+v", p)
				}
				got, err := f.ReadChunkWhere(ci, []vec.Pred{p, {Col: 1, Op: vec.Ge, Val: 0}}, &sc)
				if err != nil {
					t.Fatal(err)
				}
				want := vec.Select(b, sel, &a).AppendRows(nil, &a)
				if rows := got.AppendRows(nil, &a); fmt.Sprint(rows) != fmt.Sprint(want) {
					t.Fatalf("iter %d chunk %d pred %+v: ReadChunkWhere = %v, want %v", iter, ci, p, rows, want)
				}
			}
		}
	}
	if seen[matchNone] == 0 || seen[matchAll] == 0 || seen[matchSome] == 0 {
		t.Fatalf("classifier outcomes not all exercised: %v", seen)
	}
}

func TestConcurrentReadChunk(t *testing.T) {
	rows := make([]vec.Row, 3000)
	for i := range rows {
		rows[i] = vec.Row{int64(i), fmt.Sprintf("r%d", i)}
	}
	f := tmpTable(t, []string{"id", "name"}, 128, rows)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var a vec.Arena
			total := 0
			for i := 0; i < f.NumChunks(); i++ {
				b, err := f.ReadChunk(i)
				if err != nil {
					t.Error(err)
					return
				}
				total += b.N
			}
			_ = a
			if total != len(rows) {
				t.Errorf("scanned %d rows, want %d", total, len(rows))
			}
		}()
	}
	wg.Wait()
}

func TestReadChunkAfterClose(t *testing.T) {
	rows := []vec.Row{{int64(1)}, {int64(2)}}
	f := tmpTable(t, []string{"a"}, 2, rows)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := f.ReadChunk(0); !errors.Is(err, ErrTableFile) {
		t.Fatalf("ReadChunk after Close: %v, want a table-file error", err)
	}
}

// TestChunkErrorTyped: a chunk that can no longer be read (file cut
// after Open) or decoded (bytes overwritten) fails as a *ChunkError
// naming the file and the chunk, under predicates or not, and leaves
// the chunks before it readable.
func TestChunkErrorTyped(t *testing.T) {
	rows := make([]vec.Row, 600)
	for i := range rows {
		rows[i] = vec.Row{i, i % 7, fmt.Sprintf("r%d", i)}
	}
	f := tmpTable(t, []string{"id", "m", "name"}, 100, rows)
	last := f.NumChunks() - 1
	corrupt, err := os.OpenFile(f.Path(), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Chunk 2's header now claims another row count; the last chunk loses its tail.
	if _, err := corrupt.WriteAt([]byte{0xff, 0xff}, f.Chunk(2).Off); err != nil {
		t.Fatal(err)
	}
	corrupt.Close()
	if err := os.Truncate(f.Path(), f.Chunk(last).Off+f.Chunk(last).Len/2); err != nil {
		t.Fatal(err)
	}
	var sc Scanner
	for _, preds := range [][]vec.Pred{nil, {{Col: 1, Op: vec.Lt, Val: 3}}} {
		for _, ci := range []int{2, last} {
			_, err := f.ReadChunkWhere(ci, preds, &sc)
			var ce *ChunkError
			if !errors.Is(err, ErrTableFile) || !errors.As(err, &ce) || ce.Path != f.Path() || ce.Chunk != ci || ce.Err == nil {
				t.Fatalf("chunk %d under %v: error %v is not the typed chunk error", ci, preds, err)
			}
		}
		if b, err := f.ReadChunkWhere(1, preds, &sc); err != nil || b.N == 0 {
			t.Fatalf("intact chunk 1 under %v: %v", preds, err)
		}
	}
}
