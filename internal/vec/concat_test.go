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
// with probability density.
func genBatch(r *rand.Rand, kinds []Kind, n int, density float64) *Batch {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = make(Row, len(kinds))
		for ci, k := range kinds {
			if r.Float64() >= density {
				rows[i][ci] = genValue(r, k)
			}
		}
	}
	return FromRows(rows)
}

// checkBoxIffAny fails unless every column of b obeys the layout rule: a
// column has a Box if and only if it is Any. A typed column is its
// mirror — the one of its kind, covering every storage position b's rows
// reach — and at most a null bitmap as long; an Any column is its Box,
// covering them, with no mirror and no bitmap.
func checkBoxIffAny(t testing.TB, what string, b *Batch) {
	t.Helper()
	for ci := range b.Cols {
		c := &b.Cols[ci]
		reach := 0
		for i := 0; i < b.N; i++ {
			reach = max(reach, c.Pos(i)+1)
		}
		mirrors := map[string]int{"I64": len(c.I64), "F64": len(c.F64), "Str": len(c.Str), "B": len(c.B)}
		own := ""
		switch {
		case c.Kind == Any:
			if len(c.Box) < reach || c.Null != nil {
				t.Fatalf("%s: Any column %d has %d boxes for %d positions, bitmap %v", what, ci, len(c.Box), reach, c.Null)
			}
		case c.Box != nil:
			t.Fatalf("%s: %v column %d carries a Box", what, c.Kind, ci)
		case c.Kind.IntFamily():
			own = "I64"
		case c.Kind == Float64:
			own = "F64"
		case c.Kind == String:
			own = "Str"
		default:
			own = "B"
		}
		for name, n := range mirrors {
			if name != own && n != 0 {
				t.Fatalf("%s: %v column %d carries a %s mirror", what, c.Kind, ci, name)
			}
		}
		if own != "" && (mirrors[own] < reach || c.Null != nil && len(c.Null)*64 < reach) {
			t.Fatalf("%s: %v column %d: mirror of %d, bitmap of %d words for %d positions", what, c.Kind, ci, mirrors[own], len(c.Null), reach)
		}
	}
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
	checkBoxIffAny(t, "Appender", want)
	checkBoxIffAny(t, "Concat", got)
	if got.N != want.N || len(got.Cols) != len(want.Cols) {
		t.Fatalf("shape %dx%d, want %dx%d", got.N, len(got.Cols), want.N, len(want.Cols))
	}
	for ci := range want.Cols {
		g, w := &got.Cols[ci], &want.Cols[ci]
		if g.Kind != w.Kind {
			t.Fatalf("col %d: kind %v, want %v", ci, g.Kind, w.Kind)
		}
		if g.Idx != nil || g.Len() != got.N {
			t.Fatalf("col %d: not a dense column (Idx %v, %d positions for %d rows)", ci, g.Idx, g.Len(), got.N)
		}
		for pos := 0; pos < got.N; pos++ {
			if !reflect.DeepEqual(g.Value(pos), w.Value(pos)) {
				t.Fatalf("col %d pos %d: value %v, want %v", ci, pos, g.Value(pos), w.Value(pos))
			}
			if g.NullAt(pos) != w.NullAt(pos) {
				t.Fatalf("col %d pos %d: null %v, want %v", ci, pos, g.NullAt(pos), w.NullAt(pos))
			}
		}
	}
	var a Arena
	rowsEq(t, got.AppendRows(nil, &a), want.AppendRows(nil, &a))
	return got
}

// storageCap is the capacity of c's storage: its Box, or its mirror.
func storageCap(c *Col) int {
	switch {
	case c.Kind == Any:
		return cap(c.Box)
	case c.Kind.IntFamily():
		return cap(c.I64)
	case c.Kind == Float64:
		return cap(c.F64)
	case c.Kind == Bool:
		return cap(c.B)
	}
	return cap(c.Str)
}

// TestConcatMatchesAppender is Concat's property test: every kind at
// several null densities, part sizes that put every later part's base
// off a 64-bit word boundary (and one on it). Every column is allocated
// at its exact size: a typed one its mirror, an Any one its Box.
func TestConcatMatchesAppender(t *testing.T) {
	kinds := []Kind{Int, Int32, Int64, Uint64, Float64, Bool, String, Any}
	sizes := [][]int{{1, 1}, {63, 2, 70}, {64, 64, 1}, {65, 0, 127, 3}, {7, 200, 0, 64, 9}}
	for _, density := range []float64{0, 0.1, 0.5, 1} {
		for si, ns := range sizes {
			r := rand.New(rand.NewSource(int64(si)*7 + int64(density*100)))
			var batches []*Batch
			for _, n := range ns {
				batches = append(batches, genBatch(r, kinds, n, density))
			}
			got := checkConcat(t, kinds, batches)
			for ci := range got.Cols {
				if c := &got.Cols[ci]; storageCap(c) != got.N {
					t.Fatalf("density %v sizes %v: col %d has capacity %d for %d rows", density, ns, ci, storageCap(c), got.N)
				}
			}
		}
	}
}

// TestConcatDegrades: a kind disagreement between parts and a width
// disagreement across parts both end as the Appender ends them — the
// column boxed (Any, its Box boxed in place over the typed parts'
// mirrors), the narrower part's rows null in the column they lack and
// read back as wide as the widest.
func TestConcatDegrades(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ints := genBatch(r, []Kind{Int, Int}, 70, 0.2)
	strs := genBatch(r, []Kind{Int, String}, 5, 0.2)
	got := checkConcat(t, nil, []*Batch{ints, strs, ints})
	if got.Cols[0].Kind != Int || got.Cols[1].Kind != Any || got.Cols[1].Null != nil {
		t.Fatalf("kinds %v %v (null bitmap %v), want int and a bitmap-free any", got.Cols[0].Kind, got.Cols[1].Kind, got.Cols[1].Null)
	}

	narrow := genBatch(r, []Kind{Int, String}, 66, 0)
	wide := genBatch(r, []Kind{Int, String, Float64}, 3, 0)
	for _, batches := range [][]*Batch{{narrow, wide}, {wide, narrow}, {narrow, wide, narrow}} {
		got := checkConcat(t, nil, batches)
		if len(got.Cols) != 3 || got.Cols[2].Kind != Any {
			t.Fatalf("parts of two widths: %d cols, tail kind %v", len(got.Cols), got.Cols[2].Kind)
		}
		var a Arena
		nulls := 0
		for _, row := range got.AppendRows(nil, &a) {
			if len(row) != 3 {
				t.Fatalf("row of width %d", len(row))
			}
			if row[2] == nil {
				nulls++
			}
		}
		if want := got.N - wide.N*(len(batches)/2); nulls != want {
			t.Fatalf("%d rows null in the tail column, want %d", nulls, want)
		}
	}
}

// TestConcatAliasesSinglePart: with one non-empty part nothing is
// copied — the result shares the part's mirrors, and no Box appears
// beside them; with several, every part's storage is let go.
func TestConcatAliasesSinglePart(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	b := genBatch(r, []Kind{Int, String}, 100, 0.1)
	ap := NewAppender(nil, 0)
	ap.AppendBatch(b)
	ints, strs := &ap.cols[0].I64[0], &ap.cols[1].Str[0]
	got := Concat([]*Appender{NewAppender([]Kind{Int, String}, 8), ap, NewAppender(nil, 0)})
	checkBoxIffAny(t, "Concat of one part", got)
	if got.N != 100 || &got.Cols[0].I64[0] != ints || &got.Cols[1].Str[0] != strs {
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
// takes it in as nulls and stays typed — mirror and bitmap, no Box — for
// every kind, from a dense, an indexed and a selected source, whether
// the all-null batch comes first, in the middle or last. One value in an
// Any batch column still degrades the store column, and so does a
// value-less one when the schema is left to be discovered.
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
					b, sel := genBatch(r, []Kind{k}, 70, 0.2), []int32(nil)
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
				checkBoxIffAny(t, "Appender", got)
				c := got.Cols[0]
				if c.Kind != k || got.N != len(want) || c.Len() != got.N {
					t.Fatalf("%v shape %d at %d: kind %v, %d rows, %d positions, want %d rows of %v", k, shape, at, c.Kind, got.N, c.Len(), len(want), k)
				}
				for pos, w := range want {
					if c.Value(pos) != w || c.NullAt(pos) != (w == nil) {
						t.Fatalf("%v shape %d at %d, pos %d: value %v null %v, want %v", k, shape, at, pos, c.Value(pos), c.NullAt(pos), w)
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
	if got := ap.Batch(); got.Cols[0].Kind != Any || got.Cols[0].Box[5] != "x" || got.Cols[0].Box[0] != 1 {
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

// FuzzConcat seals 1–4 appenders with Concat and checks that the result
// obeys the Box-iff-Any rule and materializes, through AppendRows,
// exactly the rows appended, part after part. The parts are pre-shaped
// (or left to discover their schema) and fed 0–3 batches each, whole or
// through a selection; a batch mixes kinds per column — so parts disagree
// and columns degrade — null bitmaps, all-null columns (columnized Any,
// landing as nulls in a pre-shaped typed column), and short rows, zero
// to four wide. The oracle reads every row null in the columns it lacks:
// each input batch's rows padded with nil to the concatenation's width.
func FuzzConcat(f *testing.F) {
	for seed := range int64(24) {
		f.Add(seed, uint8(seed*11))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		r := rand.New(rand.NewSource(seed))
		kinds := []Kind{Int, Int32, Int64, Uint64, Float64, Bool, String, Any}
		schema := make([]Kind, 1+r.Intn(3))
		for ci := range schema {
			schema[ci] = kinds[r.Intn(len(kinds))]
		}
		var shaped []Kind // nil: every part discovers its schema
		if shape&1 != 0 {
			shaped = schema
		}
		parts := make([]*Appender, 1+int(shape>>1)%4)
		var want []Row
		var a Arena
		for p := range parts {
			parts[p] = NewAppender(shaped, r.Intn(70))
			for range r.Intn(4) {
				b := fuzzBatch(r, schema, kinds, shape&8 != 0)
				var sel []int32
				if b.N > 0 && r.Intn(3) == 0 {
					sel = []int32{}
					for i := range b.N {
						if r.Intn(2) == 0 {
							sel = append(sel, int32(i))
						}
					}
				}
				parts[p].AppendRowsSel(b, sel)
				if sel != nil {
					b = Select(b, sel, &a)
				}
				want = b.AppendRows(want, &a)
			}
		}
		got := Concat(parts)
		checkBoxIffAny(t, "Concat", got)
		for i, row := range want {
			want[i] = append(row[:len(row):len(row)], make(Row, len(got.Cols)-len(row))...)
		}
		rowsEq(t, got.AppendRows(nil, &a), want)
	})
}

// fuzzBatch columnizes up to 130 rows as wide as schema, or a column
// narrower or wider. Column ci holds values of schema[ci] or, one time in
// four, of a kind drawn afresh, null at a density of 0, ½ or 1; with
// short set, some rows stop short.
func fuzzBatch(r *rand.Rand, schema, kinds []Kind, short bool) *Batch {
	w := len(schema) + r.Intn(3) - 1
	ks := make([]Kind, w)
	density := make([]float64, w)
	for ci := range ks {
		if ci < len(schema) && r.Intn(4) != 0 {
			ks[ci] = schema[ci]
		} else {
			ks[ci] = kinds[r.Intn(len(kinds))]
		}
		density[ci] = float64(r.Intn(3)) / 2
	}
	rows := make([]Row, r.Intn(131))
	for i := range rows {
		rw := w
		if short && r.Intn(4) == 0 {
			rw = r.Intn(w + 1)
		}
		rows[i] = make(Row, rw)
		for ci := range rows[i] {
			if r.Float64() >= density[ci] {
				rows[i][ci] = genValue(r, ks[ci])
			}
		}
	}
	return FromRows(rows)
}
