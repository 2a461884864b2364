package vec

import (
	"reflect"
	"testing"
)

func rowsEq(t *testing.T, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) == 0 && len(want[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("row %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// TestFromRowsRoundTrip: rows come back as they went in, except that a
// row shorter than the widest comes back null in the columns it lacks —
// which leaves a column of one kind typed, its missing values null bits.
func TestFromRowsRoundTrip(t *testing.T) {
	short := []Row{{1}, {2, "wide"}, {3}}
	cases := []struct{ rows, want []Row }{
		{rows: []Row{{1, "a", 1.5, true}, {2, "b", 2.5, false}, {3, "c", 3.5, true}}},
		{rows: []Row{{int64(7), nil}, {nil, "x"}, {int64(9), "y"}}},
		{rows: short, want: []Row{{1, nil}, {2, "wide"}, {3, nil}}},
		{rows: []Row{{uint64(5), int32(-4)}, {uint64(6), int32(8)}}},
		{rows: []Row{{1, 2}, {"mixed", 3}}}, // mixed kinds → Any
		{},
		{rows: []Row{{nil, nil}}},
	}
	for ci, tc := range cases {
		b := FromRows(tc.rows)
		if b.N != len(tc.rows) {
			t.Fatalf("case %d: N=%d want %d", ci, b.N, len(tc.rows))
		}
		want := tc.want
		if want == nil {
			want = tc.rows
		}
		var a Arena
		rowsEq(t, b.AppendRows(nil, &a), want)
	}
	b := FromRows(short)
	if c := b.Cols[1]; c.Kind != String || !c.NullAt(0) || c.NullAt(1) || !c.NullAt(2) {
		t.Fatalf("short rows' column: kind %v, nulls %v %v %v", c.Kind, c.NullAt(0), c.NullAt(1), c.NullAt(2))
	}
}

func TestFromRowsKinds(t *testing.T) {
	b := FromRows([]Row{{1, "a", 2.5, true, int64(4), nil}, {2, "b", 3.5, false, int64(5), uint64(6)}})
	want := []Kind{Int, String, Float64, Bool, Int64, Uint64}
	for i, k := range want {
		if b.Cols[i].Kind != k {
			t.Fatalf("col %d: kind %v want %v", i, b.Cols[i].Kind, k)
		}
	}
	if !b.Cols[5].NullAt(0) || b.Cols[5].NullAt(1) {
		t.Fatal("null bitmap wrong on col 5")
	}
}

func TestIdentGrowsAndAliases(t *testing.T) {
	a := Ident(10)
	b := Ident(100000)
	for i := 0; i < 10; i++ {
		if a[i] != int32(i) || b[i] != int32(i) {
			t.Fatalf("ident[%d] wrong", i)
		}
	}
	if b[99999] != 99999 {
		t.Fatal("ident tail wrong")
	}
}

func TestSelectComposes(t *testing.T) {
	rows := []Row{{0, "a"}, {1, "b"}, {2, "c"}, {3, "d"}}
	b := FromRows(rows)
	var a Arena
	// Window rows 1..3 via a shared Idx, then select within it.
	win := &Batch{Cols: make([]Col, 2), N: 3}
	idx := Ident(4)[1:4]
	for i := range win.Cols {
		win.Cols[i] = b.Cols[i]
		win.Cols[i].Idx = idx
	}
	sel := Select(win, []int32{0, 2}, &a)
	got := sel.AppendRows(nil, &a)
	rowsEq(t, got, []Row{{1, "b"}, {3, "d"}})
	// Cols shared one Idx, so the composed Idx must be shared too.
	if &sel.Cols[0].Idx[0] != &sel.Cols[1].Idx[0] {
		t.Fatal("composed Idx not shared across columns sharing a window")
	}
}

func TestAppenderAccumulates(t *testing.T) {
	b1 := FromRows([]Row{{1, "a"}, {2, "b"}})
	b2 := FromRows([]Row{{3, "c"}, {4, "d"}, {5, "e"}})
	ap := NewAppender(nil, 4)
	ap.AppendBatch(b1)
	ap.AppendRowsSel(b2, []int32{2, 0})
	if ap.Len() != 4 {
		t.Fatalf("len %d", ap.Len())
	}
	out := ap.Batch()
	var a Arena
	rowsEq(t, out.AppendRows(nil, &a), []Row{{1, "a"}, {2, "b"}, {5, "e"}, {3, "c"}})
	if out.Cols[0].Kind != Int || out.Cols[1].Kind != String {
		t.Fatalf("kinds %v %v", out.Cols[0].Kind, out.Cols[1].Kind)
	}
}

// TestAppenderPanicsOnSchemaMismatch: a store takes one schema — its
// NewAppender kinds, or its first batch's. A batch of another kind in
// some column, or of another width, panics and leaves the store as it
// was; so does Concat over non-empty parts of two schemas.
func TestAppenderPanicsOnSchemaMismatch(t *testing.T) {
	mismatched := []*Batch{
		FromRows([]Row{{"s", "x"}}),     // a kind flip
		FromRows([]Row{{2}}),            // narrower
		FromRows([]Row{{2, "x", true}}), // wider
		FromRows([]Row{{2, nil}}),       // column 1 without a value: Any
	}
	for _, kinds := range [][]Kind{nil, {Int, String}} {
		ap := NewAppender(kinds, 0)
		ap.AppendBatch(FromRows([]Row{{1, "a"}}))
		for _, b := range mismatched {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("kinds %v: a batch of %d columns, column 0 %v, was taken", kinds, len(b.Cols), b.Cols[0].Kind)
					}
				}()
				ap.AppendBatch(b)
			}()
		}
		ap.AppendBatch(FromRows([]Row{{3, "c"}}))
		var a Arena
		rowsEq(t, ap.Batch().AppendRows(nil, &a), []Row{{1, "a"}, {3, "c"}})
	}
	p0, p1 := NewAppender(nil, 0), NewAppender(nil, 0)
	p0.AppendBatch(FromRows([]Row{{1}}))
	p1.AppendBatch(FromRows([]Row{{"s"}}))
	defer func() {
		if recover() == nil {
			t.Fatal("Concat of an int part and a string part did not panic")
		}
	}()
	Concat([]*Appender{p0, p1})
}

func TestAppenderNullsSurvive(t *testing.T) {
	ap := NewAppender(nil, 0)
	ap.AppendBatch(FromRows([]Row{{1}, {nil}, {3}}))
	out := ap.Batch()
	if out.Cols[0].Kind != Int {
		t.Fatalf("kind %v", out.Cols[0].Kind)
	}
	if !out.Cols[0].NullAt(1) || out.Cols[0].NullAt(0) || out.Cols[0].NullAt(2) {
		t.Fatal("null bitmap wrong after append")
	}
	var a Arena
	rowsEq(t, out.AppendRows(nil, &a), []Row{{1}, {nil}, {3}})
}

func TestReadRowReusesScratch(t *testing.T) {
	b := FromRows([]Row{{1, "a"}, {2}})
	scratch := make(Row, 0, 8)
	r0 := b.ReadRow(0, scratch)
	if !reflect.DeepEqual(r0, Row{1, "a"}) {
		t.Fatalf("row0 %v", r0)
	}
	r1 := b.ReadRow(1, scratch)
	if !reflect.DeepEqual(r1, Row{2, nil}) {
		t.Fatalf("row1 %v", r1)
	}
}

func TestArenaCapacityCapped(t *testing.T) {
	var a Arena
	s := a.I32(4)
	if cap(s) != 4 {
		t.Fatalf("cap %d", cap(s))
	}
	s2 := a.I32(4)
	s = append(s, 99) // must not bleed into s2
	_ = s
	if s2[0] != 0 {
		t.Fatal("append bled into the next carving")
	}
}
