package spill

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hierdb/internal/vec"
)

func colFile(t *testing.T) *File {
	t.Helper()
	f, err := Create(t.TempDir(), "cols")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func materialize(t *testing.T, b *vec.Batch) []Row {
	t.Helper()
	var a vec.Arena
	return b.AppendRows(nil, &a)
}

func TestColCodecRoundTrip(t *testing.T) {
	cases := [][]Row{
		{{1, "a", 1.5, true, int64(-9), uint64(7), int32(3)}, {2, "b", 2.5, false, int64(8), uint64(0), int32(-1)}},
		{{nil, "x"}, {4, nil}, {nil, nil}},
		{{1}, {2, "ragged"}, {3}},
		{{"only"}, {"strings"}, {""}},
		{{true}, {nil}, {false}},
		{{1, 2.5}, {"mixed", true}}, // Any columns
	}
	f := colFile(t)
	var refs []Ref
	for _, rows := range cases {
		ref, err := f.AppendCols(vec.FromRows(rows))
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	for i, rows := range cases {
		got, err := f.ReadCols(refs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(materialize(t, got), rows) {
			t.Fatalf("case %d: got %v want %v", i, materialize(t, got), rows)
		}
	}
}

func TestColCodecHonorsSelection(t *testing.T) {
	rows := []Row{{0, "a"}, {1, "b"}, {2, "c"}, {3, "d"}}
	b := vec.FromRows(rows)
	var a vec.Arena
	view := vec.Select(b, []int32{3, 1}, &a)
	f := colFile(t)
	ref, err := f.AppendCols(view)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadCols(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{{3, "d"}, {1, "b"}}
	if !reflect.DeepEqual(materialize(t, got), want) {
		t.Fatalf("got %v want %v", materialize(t, got), want)
	}
}

func TestColCodecKindsSurvive(t *testing.T) {
	rows := []Row{{1, "a", 2.5, true, uint64(9)}, {nil, "b", nil, nil, uint64(1)}}
	f := colFile(t)
	ref, err := f.AppendCols(vec.FromRows(rows))
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadCols(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := []vec.Kind{vec.Int, vec.String, vec.Float64, vec.Bool, vec.Uint64}
	for i, k := range want {
		if got.Cols[i].Kind != k {
			t.Fatalf("col %d: kind %v want %v", i, got.Cols[i].Kind, k)
		}
	}
	if !got.Cols[0].NullAt(1) || got.Cols[0].NullAt(0) {
		t.Fatal("null bitmap lost in round trip")
	}
}

func TestColCodecUnsupportedType(t *testing.T) {
	f := colFile(t)
	_, err := f.AppendCols(vec.FromRows([]Row{{struct{ X int }{1}}}))
	if err == nil {
		t.Fatal("expected unsupported-type error")
	}
}

// TestColCodecConcurrentReads exercises the Ref/ReadAt contract: once
// appends stop, any number of readers may decode any batch in parallel.
func TestColCodecConcurrentReads(t *testing.T) {
	f := colFile(t)
	var batches [][]Row
	var refs []Ref
	for i := 0; i < 16; i++ {
		var rows []Row
		for j := 0; j < 64; j++ {
			rows = append(rows, Row{i*64 + j, "p", float64(j) / 2})
		}
		ref, err := f.AppendCols(vec.FromRows(rows))
		if err != nil {
			t.Fatal(err)
		}
		batches, refs = append(batches, rows), append(refs, ref)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ref := range refs {
				got, err := f.ReadCols(ref)
				if err != nil {
					errs <- err
					return
				}
				var a vec.Arena
				if !reflect.DeepEqual(got.AppendRows(nil, &a), batches[i]) {
					errs <- errMismatch
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = errBatch("columnar batch mismatch under concurrent reads")

type errBatch string

func (e errBatch) Error() string { return string(e) }

// sameValue is reflect.DeepEqual with NaN equal to NaN (by bits).
func sameValue(a, b any) bool {
	if fa, ok := a.(float64); ok {
		fb, ok := b.(float64)
		return ok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return reflect.DeepEqual(a, b)
}

// checkBoxless asserts that b — a freshly decoded batch — reads back as
// exactly want through every boxing entry point (Value, ReadRow,
// AppendRows), and that its typed columns were decoded without a Box.
func checkBoxless(t *testing.T, name string, b *vec.Batch, want []Row) {
	t.Helper()
	if b.N != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, b.N, len(want))
	}
	for ci := range b.Cols {
		c := &b.Cols[ci]
		if (c.Kind == vec.Any) != (c.Box != nil) {
			t.Fatalf("%s: col %d kind %v has Box=%v, want Box only on Any columns", name, ci, c.Kind, c.Box != nil)
		}
		for i, r := range want {
			if ci < len(r) && !sameValue(c.Value(c.Pos(i)), r[ci]) {
				t.Fatalf("%s: Value(row %d, col %d) = %#v, want %#v", name, i, ci, c.Value(c.Pos(i)), r[ci])
			}
		}
	}
	var a vec.Arena
	all := b.AppendRows(nil, &a)
	for i, r := range want {
		for _, got := range []Row{all[i], b.ReadRow(i, make(Row, 0, len(b.Cols)))} {
			if len(got) != len(r) {
				t.Fatalf("%s: row %d = %v, want %v", name, i, got, r)
			}
			for ci := range r {
				if !sameValue(got[ci], r[ci]) {
					t.Fatalf("%s: row %d col %d = %#v, want %#v", name, i, ci, got[ci], r[ci])
				}
			}
		}
	}
}

// TestBoxlessDecodeEqualsRows is the codec's property test: for every
// kind and null shape, decode(encode(rows)) comes back boxless and
// boxes on demand to exactly the source rows — what the boxing decoder
// it replaced produced eagerly.
func TestBoxlessDecodeEqualsRows(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for name, gen := range kindGens {
		for _, nullPct := range []int{0, 30, 100} {
			for _, n := range []int{1, 63, 64, 65, 200} {
				rows := make([]Row, n)
				for i := range rows {
					var v any
					if r.Intn(100) >= nullPct {
						v = gen(r)
					}
					rows[i] = Row{i, v}
				}
				buf, err := EncodeCols(nil, vec.FromRows(rows))
				if err != nil {
					t.Fatal(err)
				}
				b, err := DecodeCols(buf, n)
				if err != nil {
					t.Fatal(err)
				}
				checkBoxless(t, fmt.Sprintf("%s/nulls%d/n%d", name, nullPct, n), b, rows)
			}
		}
	}
	// Ragged rows: Absent tails force Any columns, which keep their Box.
	ragged := []Row{{1}, {2, "two", 2.5}, {3, "three"}, {}}
	buf, err := EncodeCols(nil, vec.FromRows(ragged))
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeCols(buf, len(ragged))
	if err != nil {
		t.Fatal(err)
	}
	checkBoxless(t, "ragged", b, ragged)
}
