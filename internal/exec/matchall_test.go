package exec

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"hierdb/internal/vec"
)

// Key kinds FuzzProbeMatch draws a key column of; keyAny is a column
// of mixed kinds, which FromRows leaves Any.
const (
	keyInt = iota
	keyInt64
	keyInt32
	keyUint64
	keyFloat
	keyBool
	keyString
	keyAny
	numKeyKinds
)

// fuzzKey draws one key of the given kind from a small domain, so keys
// repeat and chains run longer than one: four ints, a uint64 with the
// top bit, NaN and both zeros, four strings; a null now and then when
// nulls is set.
func fuzzKey(rng *rand.Rand, kind int, nulls bool) any {
	if nulls && rng.IntN(5) == 0 {
		return nil
	}
	i := rng.IntN(4)
	switch kind {
	case keyInt:
		return i
	case keyInt64:
		return int64(i)
	case keyInt32:
		return int32(i)
	case keyUint64:
		return uint64(i) << 62
	case keyFloat:
		return [...]float64{0, math.Copysign(0, -1), math.NaN(), 1.5}[i]
	case keyBool:
		return i&1 == 0
	case keyString:
		return [...]string{"", "a", "b", "ab"}[i]
	}
	return fuzzKey(rng, rng.IntN(keyAny), false)
}

// fuzzKeyCol columnizes n keys of the given kind. A keyAny column always
// holds two kinds, so it stays Any however few rows it has.
func fuzzKeyCol(rng *rand.Rand, kind, n int, nulls bool) vec.Col {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{fuzzKey(rng, kind, nulls)}
	}
	if kind == keyAny {
		rows = append(rows, Row{"mixed"}, Row{7})
	}
	return vec.FromRows(rows).Cols[0]
}

// FuzzProbeMatch compares matchAll — the typed loop when the two key
// columns share a kind, match row by row otherwise — with a nested loop
// over the probe rows and the store positions under the boxed ==, pair
// for pair and in order: probe row by probe row, store positions
// ascending. It draws every key kind on either side (Int against Int64,
// Any against a typed kind, and equal kinds half of the time), with and
// without nulls on either side, NaN and ±0 keys, four distinct values a
// kind so chains hold duplicates, a probe column boxed or boxless, read
// densely, through a window past storage position 0 or through a
// permutation with repeats.
func FuzzProbeMatch(f *testing.F) {
	for pk := range numKeyKinds {
		for shape := range 12 {
			f.Add(uint8(pk), uint8(pk+shape%2*(shape+1)), uint8(shape*5), uint16(20+pk*7+shape), uint64(pk*12+shape))
		}
	}
	f.Fuzz(func(t *testing.T, probeKind, storeKind, shape uint8, size uint16, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, uint64(shape)))
		pk, sk := int(probeKind)%numKeyKinds, int(storeKind)%numKeyKinds
		n, sn := int(size%200), 1+int(size>>8)%150

		ap := vec.NewAppender(nil, 0)
		store := vec.Batch{Cols: []vec.Col{fuzzKeyCol(rng, sk, sn, shape&1 != 0)}, N: sn}
		if sk == keyAny {
			store.N += 2
		}
		ap.AppendBatch(&store)
		bs, err := sealStore(ap.Batch(), 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}

		m := n // storage positions of the probe column
		var idx []int32
		switch shape >> 2 % 3 {
		case 1: // a scan window: Ident(m)[lo:] with lo > 0
			m = n + 1 + rng.IntN(70)
			idx = vec.Ident(m)[m-n:]
		case 2: // a permutation, positions drawn with repeats
			m = 1 + n/2
			for range n {
				idx = append(idx, int32(rng.IntN(m)))
			}
		}
		kc := fuzzKeyCol(rng, pk, max(m, 1), shape&2 != 0)
		if idx == nil && kc.Len() != n {
			idx = vec.Ident(n) // an Any column's two extra keys stay out of sight
		}
		kc.Idx = idx
		if shape&16 != 0 && kc.Kind != vec.Any {
			kc.Box = nil // a decoded column: boxed in place
		}
		pb := &vec.Batch{Cols: []vec.Col{kc}, N: n}

		var vs vecScratch
		bs.matchAll(&vs, &pb.Cols[0], keyHashes(pb, 0, &vs))

		sc := &bs.store.Cols[0]
		var wantRows, wantPos []int32
		for i := range n {
			v := kc.Value(kc.Pos(i))
			for p := range bs.store.N {
				if sc.Value(p) == v {
					wantRows, wantPos = append(wantRows, int32(i)), append(wantPos, int32(p))
				}
			}
		}
		if !slices.Equal(vs.probeRows, wantRows) || !slices.Equal(vs.bpos, wantPos) {
			t.Fatalf("probe %v against store %v (%d rows, %d store rows): pairs\n rows %v\n pos  %v\nwant\n rows %v\n pos  %v",
				kc.Kind, sc.Kind, n, bs.store.N, vs.probeRows, vs.bpos, wantRows, wantPos)
		}
	})
}
