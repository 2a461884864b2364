package spill

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hierdb/internal/vec"
)

// predConsts are the constants the decoder property test compares
// against: at least one inside and several outside every kind's family,
// NaN, and values on both sides of kindGens' ranges.
var predConsts = []any{
	0, -100, 499, int32(3), int64(9), uint64(1) << 63, uint64(5),
	0.0, -0.5, math.NaN(), math.Inf(1), true, false, "", "a", "s", "zzz", nil,
}

func randPreds(r *rand.Rand, ncols, k int) []vec.Pred {
	preds := make([]vec.Pred, k)
	for i := range preds {
		preds[i] = vec.Pred{
			Col: r.Intn(ncols+1) - r.Intn(2), // now and then out of range on either side
			Op:  vec.CmpOp(r.Intn(int(vec.NotNull) + 1)),
			Val: predConsts[r.Intn(len(predConsts))],
		}
	}
	return preds
}

// checkDecodeWhere asserts Decode(buf, n, preds) ≡ Select(DecodeCols(buf,
// n), ApplyPreds(..., preds)) row for row and kind for kind, that typed
// columns come out boxless and dense, and that nothing in the result
// aliases buf.
func checkDecodeWhere(t *testing.T, name string, d *Decoder, buf []byte, n int, preds []vec.Pred) {
	t.Helper()
	full, err := DecodeCols(buf, n)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var a vec.Arena
	want := vec.Select(full, vec.ApplyPreds(full, preds, nil, nil), &a)
	wantRows := want.AppendRows(nil, &a)

	own := append([]byte(nil), buf...)
	got, err := d.Decode(own, n, preds)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i := range own {
		own[i] = 0xff // the result must not read the input buffer again
	}
	if got.N != want.N {
		t.Fatalf("%s: %d rows, want %d (preds %+v)", name, got.N, want.N, preds)
	}
	if got.N == 0 {
		return
	}
	for ci := range got.Cols {
		c := &got.Cols[ci]
		if c.Kind != full.Cols[ci].Kind {
			t.Fatalf("%s: col %d kind %v, want %v", name, ci, c.Kind, full.Cols[ci].Kind)
		}
		if c.Idx != nil || c.Len() != got.N {
			t.Fatalf("%s: col %d is not dense over %d rows (Idx %v, Len %d)", name, ci, got.N, c.Idx != nil, c.Len())
		}
	}
	checkBoxless(t, fmt.Sprintf("%s %+v", name, preds), got, wantRows)
}

// TestDecodeWhereEqualsSelect is the selective decoder's property test:
// every kind and null shape, in every column position relative to the
// predicate columns (before, on, between, after), under random
// predicate sets, through one Decoder reused across all of them.
func TestDecodeWhereEqualsSelect(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	names := make([]string, 0, len(kindGens))
	for name := range kindGens {
		names = append(names, name)
	}
	var d Decoder
	for iter := 0; iter < 400; iter++ {
		n := []int{1, 63, 64, 65, 200, 1000}[r.Intn(6)]
		ncols := 1 + r.Intn(5)
		gens := make([]func(*rand.Rand) any, ncols)
		nullPct := make([]int, ncols)
		for ci := range gens {
			gens[ci] = kindGens[names[r.Intn(len(names))]]
			nullPct[ci] = []int{0, 0, 30, 100}[r.Intn(4)]
		}
		rows := make([]Row, n)
		for i := range rows {
			row := make(Row, ncols)
			for ci := range row {
				if r.Intn(100) >= nullPct[ci] {
					row[ci] = gens[ci](r)
				}
			}
			rows[i] = row
		}
		buf, err := EncodeCols(nil, vec.FromRows(rows))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= 3; k++ {
			checkDecodeWhere(t, fmt.Sprintf("iter %d", iter), &d, buf, n, randPreds(r, ncols, k))
		}
		// A predicate every row passes, and one on the last column only.
		checkDecodeWhere(t, fmt.Sprintf("iter %d all", iter), &d, buf, n, []vec.Pred{{Col: 0, Op: vec.Ne, Val: "other family"}, {Col: 0, Op: vec.NotNull}})
		checkDecodeWhere(t, fmt.Sprintf("iter %d last", iter), &d, buf, n, []vec.Pred{{Col: ncols - 1, Op: vec.NotNull}})
	}
	// Ragged rows: Absent padding in Any columns on both sides of the
	// predicate column.
	ragged := []Row{{1}, {2, "two", 2.5}, {3, "three"}, {}, {5, "five", 5.5, true}}
	buf, err := EncodeCols(nil, vec.FromRows(ragged))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []vec.Pred{{Col: 1, Op: vec.Ge, Val: "three"}, {Col: 1, Op: vec.NotNull}, {Col: 2, Op: vec.Lt, Val: 5.0}, {Col: 0, Op: vec.Gt, Val: 1}} {
		checkDecodeWhere(t, "ragged", &d, buf, len(ragged), []vec.Pred{p})
	}
}

// TestDecodeWhereTruncated cuts an encoded batch at every length: the
// decoder reports an error (never panics, never returns rows) whatever
// the predicates make it decode, skip or gather — unless the selection
// emptied before the cut, the documented blind spot.
func TestDecodeWhereTruncated(t *testing.T) {
	rows := make([]Row, 70)
	for i := range rows {
		var s any = fmt.Sprintf("s%02d", i)
		if i%9 == 0 {
			s = nil
		}
		rows[i] = Row{i, s, float64(i) / 2, i%3 == 0, any(i), uint64(i)}
		if i%2 == 0 {
			rows[i][4] = s
		}
	}
	buf, err := EncodeCols(nil, vec.FromRows(rows))
	if err != nil {
		t.Fatal(err)
	}
	var d Decoder
	for _, preds := range [][]vec.Pred{
		nil,
		{{Col: 0, Op: vec.Ge, Val: 10}},
		{{Col: 3, Op: vec.Eq, Val: true}},
		{{Col: 5, Op: vec.Lt, Val: uint64(60)}, {Col: 1, Op: vec.NotNull}},
	} {
		if _, err := d.Decode(buf, len(rows), preds); err != nil {
			t.Fatalf("intact batch under %+v: %v", preds, err)
		}
		for cut := 0; cut < len(buf); cut++ {
			if b, err := d.Decode(buf[:cut], len(rows), preds); err == nil {
				t.Fatalf("batch cut at %d of %d decoded to %d rows under %+v", cut, len(buf), b.N, preds)
			}
		}
		if _, err := d.Decode(append(buf[:len(buf):len(buf)], 0), len(rows), preds); err == nil {
			t.Fatalf("trailing byte accepted under %+v", preds)
		}
	}
	// Nothing survives column 0, so nothing after it is read.
	none := []vec.Pred{{Col: 0, Op: vec.Lt, Val: 0}}
	if b, err := d.Decode(buf[:len(buf)/2], len(rows), none); err != nil || b.N != 0 {
		t.Fatalf("abandoned decode: %v rows, err %v", b, err)
	}
}

// factBatch encodes one chunk shaped like the benchmark's fact table:
// sequential id, two uniform keys, v a permutation of [0,1000) per
// thousand rows, a short string payload.
func factBatch(tb testing.TB, n int) []byte {
	r := rand.New(rand.NewSource(1))
	rows := make([]Row, n)
	perm := r.Perm(1000)
	for i := range rows {
		if i%1000 == 0 {
			perm = r.Perm(1000)
		}
		rows[i] = Row{i, r.Intn(2000), r.Intn(500), perm[i%1000], fmt.Sprintf("p-%08x", r.Uint32())}
	}
	buf, err := EncodeCols(nil, vec.FromRows(rows))
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

var sinkBatch *vec.Batch

// BenchmarkChunkDecodeSel is the codec's own benchmark: one 4096-row
// fact-shaped chunk decoded under v < x at 0 / 1 / 20 / 100 % survivors
// and without predicates, through a reused Decoder.
func BenchmarkChunkDecodeSel(b *testing.B) {
	const n = 4096
	buf := factBatch(b, n)
	for _, bc := range []struct {
		name  string
		preds []vec.Pred
	}{
		{"sel0", []vec.Pred{{Col: 3, Op: vec.Lt, Val: 0}}},
		{"sel1", []vec.Pred{{Col: 3, Op: vec.Lt, Val: 10}}},
		{"sel20", []vec.Pred{{Col: 3, Op: vec.Lt, Val: 200}}},
		{"sel100", []vec.Pred{{Col: 3, Op: vec.Lt, Val: 1000}}},
		{"nopred", nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var d Decoder
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if sinkBatch, err = d.Decode(buf, n, bc.preds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
