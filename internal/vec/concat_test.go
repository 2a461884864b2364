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

// genBatch columnizes n rows of the schema kinds, each value null with
// probability density.
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
	return conform(FromRows(rows), kinds)
}

// conform gives b, columnized from values of the schema kinds, exactly
// those kinds, as an operator's input has its compile-time schema:
// FromRows resolves a column without a value to Any, and an Any column
// whose draws all shared one type to that type, and a batch without
// rows has no columns.
func conform(b *Batch, kinds []Kind) *Batch {
	b.Cols = append(b.Cols, make([]Col, len(kinds)-len(b.Cols))...)
	for ci, k := range kinds {
		switch c := &b.Cols[ci]; {
		case c.Kind == k:
		case k == Any:
			c.FillBox()
		default: // no value: every row null
			*c = Col{Kind: k, Null: make([]uint64, (b.N+63)/64)}
			switch {
			case k.IntFamily():
				c.I64 = make([]int64, b.N)
			case k == Float64:
				c.F64 = make([]float64, b.N)
			case k == Bool:
				c.B = make([]bool, b.N)
			default:
				c.Str = make([]string, b.N)
			}
			for pos := range b.N {
				c.setNull(pos, b.N)
			}
		}
	}
	return b
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
// a join's build parts are, or take their first batch's schema (nil).
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

// FuzzConcat seals 1–4 appenders of one schema with Concat and checks
// that the result obeys the Box-iff-Any rule and materializes, through
// AppendRows, exactly the rows appended, part after part. The parts are
// pre-shaped or take their first batch's schema; each is fed 0–3 batches
// of the schema — whole, through a selection, or as a Select view that
// reads through Idx windows — or is nil. Values are null at a density of
// 0, ½ or 1 per column, so a part's bitmap is absent, sparse or full,
// and grows lazily.
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
		var shaped []Kind // nil: every part takes its first batch's schema
		if shape&1 != 0 {
			shaped = schema
		}
		parts := make([]*Appender, 1+int(shape>>1)%4)
		var want []Row
		var a Arena
		for p := range parts {
			if shape&16 != 0 && r.Intn(3) == 0 {
				continue // a nil part is an empty one
			}
			parts[p] = NewAppender(shaped, r.Intn(70))
			for range r.Intn(4) {
				b := fuzzBatch(r, schema)
				if shape&8 != 0 && b.N > 0 {
					view := make([]int32, r.Intn(2*b.N))
					for i := range view {
						view[i] = int32(r.Intn(b.N))
					}
					b = Select(b, view, &a)
				}
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
		rowsEq(t, got.AppendRows(nil, &a), want)
	})
}

// fuzzBatch columnizes up to 130 rows of schema, each column null at a
// density of 0, ½ or 1.
func fuzzBatch(r *rand.Rand, schema []Kind) *Batch {
	density := make([]float64, len(schema))
	for ci := range density {
		density[ci] = float64(r.Intn(3)) / 2
	}
	rows := make([]Row, r.Intn(131))
	for i := range rows {
		rows[i] = make(Row, len(schema))
		for ci, k := range schema {
			if r.Float64() >= density[ci] {
				rows[i][ci] = genValue(r, k)
			}
		}
	}
	return conform(FromRows(rows), schema)
}
