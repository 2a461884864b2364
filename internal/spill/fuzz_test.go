package spill

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hierdb/internal/vec"
)

// edgeGens are the value generators beyond kindGens that the packed
// layout has edges for: both ends of int64 in one column (a 64-bit
// delta), uint64s on both sides of the high bit, a column whose values
// are all equal (width 0), and strings that are mostly empty (ends that
// do not move).
var edgeGens = map[string]func(r *rand.Rand) any{
	"int64-extremes": func(r *rand.Rand) any {
		return [...]int64{math.MinInt64, math.MaxInt64, 0, -1}[r.Intn(4)]
	},
	"uint64-wide": func(r *rand.Rand) any { return [...]uint64{math.MaxUint64, 1 << 63, 0, r.Uint64()}[r.Intn(4)] },
	"equal":       func(r *rand.Rand) any { return 7 },
	"empty":       func(r *rand.Rand) any { return [...]string{"", "", "", "x"}[r.Intn(4)] },
}

// codecBatch draws one column per generator of kindGens and edgeGens,
// in an order and with null shapes the seed picks: none, some, all,
// or only the first and last row.
func codecBatch(r *rand.Rand, n int) []Row {
	gens := make([]func(*rand.Rand) any, 0, len(kindGens)+len(edgeGens))
	for _, m := range []map[string]func(*rand.Rand) any{kindGens, edgeGens} {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names) // map order must not leak into the draw
		for _, name := range names {
			gens = append(gens, m[name])
		}
	}
	r.Shuffle(len(gens), func(i, j int) { gens[i], gens[j] = gens[j], gens[i] })
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = make(Row, len(gens))
	}
	for ci, gen := range gens {
		shape := r.Intn(4)
		for i := range rows {
			null := false
			switch shape {
			case 1:
				null = r.Intn(3) == 0
			case 2:
				null = true
			case 3:
				null = i == 0 || i == n-1
			}
			if !null {
				rows[i][ci] = gen(r)
			}
		}
	}
	return rows
}

// codecOffsets walks an encoded batch of n rows and returns the offsets
// of every column's null flag byte and of every packed column's width
// byte.
func codecOffsets(t *testing.T, buf []byte, n int) (flags, widths []int) {
	t.Helper()
	_, k := binary.Uvarint(buf)
	ncols, k2 := binary.Uvarint(buf[k:])
	rest := buf[k+k2:]
	for ci := uint64(0); ci < ncols; ci++ {
		at := len(buf) - len(rest)
		flags = append(flags, at+1)
		if kind := vec.Kind(buf[at]); kind.IntFamily() || kind == vec.String {
			off := at + 2
			if buf[at+1] == 1 {
				off += (n + 7) / 8
			}
			_, vk := binary.Varint(buf[off:])
			widths = append(widths, off+vk)
		}
		var err error
		if _, rest, err = parseCol(rest, n); err != nil {
			t.Fatalf("column %d of an intact batch: %v", ci, err)
		}
	}
	return flags, widths
}

// FuzzColumnCodec is the codec's fuzzer. A batch covering every kind and
// the packed layout's edge values, whole or through an Idx window, must
// decode to its rows; under random predicates Decode must equal
// Select(DecodeCols, ApplyPreds) row for row; and every truncation,
// every width byte over 64 and every null flag other than 0 or 1 must
// fail DecodeCols with an error — and Decode under the predicates must
// not panic on them.
func FuzzColumnCodec(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint8(1+seed*13), seed%2 == 0)
	}
	f.Add(int64(7), uint8(64), true)
	f.Add(int64(8), uint8(65), false)
	f.Fuzz(func(t *testing.T, seed int64, nrows uint8, window bool) {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(nrows)%96
		rows := codecBatch(r, n)
		b := vec.FromRows(rows)
		if window {
			var sel []int32
			for i := 0; i < n; i++ {
				if r.Intn(3) != 0 {
					sel = append(sel, int32(i))
				}
			}
			if len(sel) == 0 {
				sel = []int32{int32(n - 1)}
			}
			r.Shuffle(len(sel), func(i, j int) { sel[i], sel[j] = sel[j], sel[i] })
			var a vec.Arena
			b = vec.Select(b, sel, &a)
			picked := make([]Row, len(sel))
			for j, li := range sel {
				picked[j] = rows[li]
			}
			rows, n = picked, len(sel)
		}
		buf, err := EncodeCols(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeCols(buf, n)
		if err != nil {
			t.Fatal(err)
		}
		checkBoxless(t, "round trip", got, rows)
		var d Decoder
		preds := randPreds(r, len(rows[0]), r.Intn(4))
		checkDecodeWhere(t, fmt.Sprintf("seed %d", seed), &d, buf, n, preds)

		mustFail := func(what string, bad []byte) {
			t.Helper()
			if b, err := DecodeCols(bad, n); err == nil {
				t.Fatalf("%s decoded to %d rows", what, b.N)
			}
			d.Decode(bad, n, preds) // the selection may empty first; it must not panic
		}
		for cut := 0; cut < len(buf); cut++ {
			mustFail(fmt.Sprintf("batch cut at %d of %d", cut, len(buf)), buf[:cut])
		}
		flags, widths := codecOffsets(t, buf, n)
		bad := make([]byte, len(buf))
		for _, at := range widths {
			copy(bad, buf)
			bad[at] = byte(65 + r.Intn(191))
			mustFail(fmt.Sprintf("width byte %d at %d", bad[at], at), bad)
		}
		for _, at := range flags {
			copy(bad, buf)
			bad[at] = byte(2 + r.Intn(254))
			mustFail(fmt.Sprintf("null flag %d at %d", bad[at], at), bad)
		}
	})
}
