package vec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// genValue draws one non-null value of the given kind (Any mixes types).
func genValue(r *rand.Rand, k Kind) any {
	switch k {
	case Int:
		return r.Intn(1000) - 500
	case Int32:
		return int32(r.Intn(1000) - 500)
	case Int64:
		return int64(r.Intn(1000)) << 33
	case Uint64:
		return uint64(r.Intn(1000)) | 1<<63
	case Float64:
		return r.Float64()
	case Bool:
		return r.Intn(2) == 0
	case String:
		return fmt.Sprintf("s%d", r.Intn(50))
	}
	if r.Intn(2) == 0 {
		return r.Intn(9)
	}
	return fmt.Sprintf("m%d", r.Intn(9))
}

// genBatch columnizes n rows with one column per kind, each value null
// with probability density. boxless strips the Box of every typed
// column, the shape a decoded chunk or spill batch arrives in.
func genBatch(r *rand.Rand, kinds []Kind, n int, density float64, boxless bool) *Batch {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = make(Row, len(kinds))
		for ci, k := range kinds {
			if r.Float64() >= density {
				rows[i][ci] = genValue(r, k)
			}
		}
	}
	b := FromRows(rows)
	if boxless {
		for ci := range b.Cols {
			if b.Cols[ci].Kind != Any {
				b.Cols[ci].Box = nil
			}
		}
	}
	return b
}

// checkConcat seals one appender per input batch with Concat and
// compares the result, position by position, with a single appender fed
// the same batches in order. The appenders are pre-shaped for kinds, as
// a join's build parts are (nil: each discovers its schema): only then does
// a part that saw nothing but an all-null batch of a column agree with
// the parts that saw its values.
func checkConcat(t *testing.T, kinds []Kind, batches []*Batch) *Batch {
	t.Helper()
	ref := NewAppender(kinds, 0)
	parts := make([]*Appender, len(batches))
	for i, b := range batches {
		ref.AppendBatch(b)
		parts[i] = NewAppender(kinds, 0)
		parts[i].AppendBatch(b)
	}
	want := ref.Batch()
	got := Concat(parts)
	if got.N != want.N || len(got.Cols) != len(want.Cols) {
		t.Fatalf("shape %dx%d, want %dx%d", got.N, len(got.Cols), want.N, len(want.Cols))
	}
	for ci := range want.Cols {
		g, w := &got.Cols[ci], &want.Cols[ci]
		if g.Kind != w.Kind {
			t.Fatalf("col %d: kind %v, want %v", ci, g.Kind, w.Kind)
		}
		if g.Idx != nil || len(g.Box) != got.N {
			t.Fatalf("col %d: not a dense column with its Box (Idx %v, %d boxes for %d rows)", ci, g.Idx, len(g.Box), got.N)
		}
		if g.Kind != Any && g.Len() != got.N {
			t.Fatalf("col %d: mirror of %d for %d rows", ci, g.Len(), got.N)
		}
		for pos := 0; pos < got.N; pos++ {
			if !reflect.DeepEqual(g.Box[pos], w.Box[pos]) {
				t.Fatalf("col %d pos %d: box %v, want %v", ci, pos, g.Box[pos], w.Box[pos])
			}
			if g.NullAt(pos) != w.NullAt(pos) {
				t.Fatalf("col %d pos %d: null %v, want %v", ci, pos, g.NullAt(pos), w.NullAt(pos))
			}
			if g.Kind != Any {
				// The mirror must agree with the Box it travels with.
				mirror := *g
				mirror.Box = nil
				if !reflect.DeepEqual(mirror.Value(pos), w.Box[pos]) {
					t.Fatalf("col %d pos %d: mirror %v, want %v", ci, pos, mirror.Value(pos), w.Box[pos])
				}
			}
		}
	}
	var a Arena
	rowsEq(t, got.AppendRows(nil, &a), want.AppendRows(nil, &a))
	return got
}

// TestConcatMatchesAppender is Concat's property test: every kind at
// several null densities, part sizes that put every later part's base
// off a 64-bit word boundary (and one on it), boxed and boxless sources.
func TestConcatMatchesAppender(t *testing.T) {
	kinds := []Kind{Int, Int32, Int64, Uint64, Float64, Bool, String, Any}
	sizes := [][]int{{1, 1}, {63, 2, 70}, {64, 64, 1}, {65, 0, 127, 3}, {7, 200, 0, 64, 9}}
	for _, density := range []float64{0, 0.1, 0.5, 1} {
		for si, ns := range sizes {
			for _, boxless := range []bool{false, true} {
				r := rand.New(rand.NewSource(int64(si)*7 + int64(density*100)))
				var batches []*Batch
				for _, n := range ns {
					batches = append(batches, genBatch(r, kinds, n, density, boxless))
				}
				got := checkConcat(t, kinds, batches)
				for ci := range got.Cols {
					if c := &got.Cols[ci]; cap(c.Box) != got.N {
						t.Fatalf("density %v sizes %v: col %d has capacity %d for %d rows", density, ns, ci, cap(c.Box), got.N)
					}
				}
			}
		}
	}
}

// TestConcatDegrades: a kind disagreement between parts and a ragged
// width across parts both end as the Appender ends them — the column
// boxed (Any), the short rows padded with Absent and read back at their
// own width.
func TestConcatDegrades(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ints := genBatch(r, []Kind{Int, Int}, 70, 0.2, false)
	strs := genBatch(r, []Kind{Int, String}, 5, 0.2, true)
	got := checkConcat(t, nil, []*Batch{ints, strs, ints})
	if got.Cols[0].Kind != Int || got.Cols[1].Kind != Any || got.Cols[1].Null != nil {
		t.Fatalf("kinds %v %v (null bitmap %v), want int and a bitmap-free any", got.Cols[0].Kind, got.Cols[1].Kind, got.Cols[1].Null)
	}

	narrow := genBatch(r, []Kind{Int, String}, 66, 0, false)
	wide := genBatch(r, []Kind{Int, String, Float64}, 3, 0, true)
	for _, batches := range [][]*Batch{{narrow, wide}, {wide, narrow}, {narrow, wide, narrow}} {
		got := checkConcat(t, nil, batches)
		if len(got.Cols) != 3 || got.Cols[2].Kind != Any {
			t.Fatalf("ragged parts: %d cols, tail kind %v", len(got.Cols), got.Cols[2].Kind)
		}
		var a Arena
		for _, row := range got.AppendRows(nil, &a) {
			if len(row) != 2 && len(row) != 3 {
				t.Fatalf("row of width %d", len(row))
			}
		}
	}
}

// TestConcatAliasesSinglePart: with one non-empty part nothing is
// copied; with several, every part's storage is let go.
func TestConcatAliasesSinglePart(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	b := genBatch(r, []Kind{Int, String}, 100, 0.1, false)
	ap := NewAppender(nil, 0)
	ap.AppendBatch(b)
	box, mirror := &ap.cols[0].Box[0], &ap.cols[0].I64[0]
	got := Concat([]*Appender{NewAppender([]Kind{Int, String}, 8), ap, NewAppender(nil, 0)})
	if got.N != 100 || &got.Cols[0].Box[0] != box || &got.Cols[0].I64[0] != mirror {
		t.Fatal("a single non-empty part was copied, not aliased")
	}
	if empty := Concat([]*Appender{NewAppender(nil, 0)}); empty.N != 0 {
		t.Fatalf("empty parts concatenate to %d rows", empty.N)
	}

	p0, p1 := NewAppender(nil, 0), NewAppender(nil, 0)
	p0.AppendBatch(b)
	p1.AppendBatch(b)
	Concat([]*Appender{p0, p1})
	for _, p := range []*Appender{p0, p1} {
		for ci := range p.cols {
			if c := &p.cols[ci]; c.Box != nil || c.I64 != nil || c.Str != nil || c.Null != nil {
				t.Fatalf("part still holds column %d after Concat", ci)
			}
		}
	}
}

// TestArenaChunksGrow: the first chunk is small and chunks grow to the
// steady-state size, so a short query zeroes little and a long one still
// carves O(1) chunks per batch.
func TestArenaChunksGrow(t *testing.T) {
	var a chunkArena[int32]
	var sizes []int
	for len(sizes) < 5 {
		a.carve(1)
		if c := cap(a.chunk); len(sizes) == 0 || len(a.chunk) == 1 {
			sizes = append(sizes, c)
		}
	}
	want := []int{arenaFirst, 4 * arenaFirst, 16 * arenaFirst, arenaChunk, arenaChunk}
	if !reflect.DeepEqual(sizes, want) {
		t.Fatalf("chunk sizes %v, want %v", sizes, want)
	}
	if big := a.carve(3 * arenaChunk); len(big) != 3*arenaChunk {
		t.Fatalf("oversized carve returned %d", len(big))
	}
}

// TestAppenderAllNullAnyKeepsKind: a batch column with no value in it is
// spilled and decoded as Any. A store pre-shaped for the column's kind
// takes it in as nulls and stays typed — mirror, bitmap and Box agreeing
// — for every kind, from a dense, an indexed and a selected source,
// whether the all-null batch comes first, in the middle or last. One
// value in an Any batch column still degrades the store column, and so
// does a value-less one when the schema is left to be discovered.
func TestAppenderAllNullAnyKeepsKind(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	nulls := func(shape int) (*Batch, []int32) {
		b := &Batch{Cols: []Col{{Kind: Any, Box: make([]any, 9)}}, N: 9}
		switch shape {
		case 1: // indexed
			b.Cols[0].Idx, b.N = []int32{8, 0, 3, 3}, 4
		case 2: // selected
			return b, []int32{7, 1}
		}
		return b, nil
	}
	for _, k := range []Kind{Int, Int32, Int64, Uint64, Float64, Bool, String} {
		for shape := 0; shape < 3; shape++ {
			for at := 0; at < 3; at++ {
				ap := NewAppender([]Kind{k}, 0)
				var want []any
				for bi := 0; bi < 3; bi++ {
					b, sel := genBatch(r, []Kind{k}, 70, 0.2, bi == 1), []int32(nil)
					if bi == at {
						b, sel = nulls(shape)
					}
					ap.AppendRowsSel(b, sel)
					for i := 0; i < b.N && sel == nil; i++ {
						want = append(want, b.Cols[0].Value(b.Cols[0].Pos(i)))
					}
					want = append(want, make([]any, len(sel))...)
				}
				got := ap.Batch()
				c := got.Cols[0]
				if c.Kind != k || got.N != len(want) || len(c.Box) != got.N {
					t.Fatalf("%v shape %d at %d: kind %v, %d rows, %d boxes, want %d rows of %v", k, shape, at, c.Kind, got.N, len(c.Box), len(want), k)
				}
				mirror := c
				mirror.Box = nil
				for pos, w := range want {
					if c.Box[pos] != w || mirror.Value(pos) != w || c.NullAt(pos) != (w == nil) {
						t.Fatalf("%v shape %d at %d, pos %d: box %v mirror %v null %v, want %v", k, shape, at, pos, c.Box[pos], mirror.Value(pos), c.NullAt(pos), w)
					}
				}
			}
		}
	}
	oneValue, _ := nulls(0)
	oneValue.Cols[0].Box[4] = "x"
	ap := NewAppender([]Kind{Int}, 0)
	ap.AppendBatch(FromRows([]Row{{1}}))
	ap.AppendBatch(oneValue)
	if got := ap.Batch(); got.Cols[0].Kind != Any || got.Cols[0].Box[5] != "x" {
		t.Fatalf("an Any batch column holding a value left the store column %v", got.Cols[0].Kind)
	}
	allNull, _ := nulls(0)
	ap = NewAppender(nil, 0)
	ap.AppendBatch(allNull)
	ap.AppendBatch(FromRows([]Row{{1}}))
	if got := ap.Batch(); got.Cols[0].Kind != Any {
		t.Fatalf("a discovered schema resolved an all-null first batch to %v", got.Cols[0].Kind)
	}
}
