package exec

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"hierdb/internal/spill"
	"hierdb/internal/vec"
)

// groupKey draws one group key of a FuzzGroupTable kind from about d
// distinct values: 0 ints ≥ 256; 1 floats with NaN, ±0 and nulls; 2
// strings, "" among them; 3 bools and nulls; 4 an Any mix of 1,
// int64(1), "1", -0.0, nil and more ints and strings.
func groupKey(rng *rand.Rand, kind, d int) any {
	i := rng.IntN(d)
	switch kind {
	case 0:
		return 256 + i
	case 1:
		if k := rng.IntN(8); k < 4 {
			return [...]any{math.NaN(), math.Copysign(0, -1), 0.0, nil}[k]
		}
		return float64(i) / 4
	case 2:
		if rng.IntN(8) == 0 {
			return ""
		}
		return fmt.Sprint(i)
	case 3:
		return [...]any{true, false, nil}[rng.IntN(3)]
	}
	if k := rng.IntN(8); k < 5 {
		return [...]any{1, int64(1), "1", math.Copysign(0, -1), nil}[k]
	}
	if rng.IntN(2) == 0 {
		return i
	}
	return fmt.Sprint(i)
}

// groupLines lists a table's groups as "type key: count sum", sorted.
func groupLines(t *groupTable) []string {
	var out []string
	for g := range t.groups() {
		k := t.key.Value(g)
		out = append(out, fmt.Sprintf("%T %v: %d %v", k, k, t.n[g], t.vals[1][g]))
	}
	slices.Sort(out)
	return out
}

// FuzzGroupTable folds keys of every kind into group tables and compares
// their groups, counts and sums with a map[any] over the boxed keys — the
// table it replaced: a float64 zero folded to +0, each NaN a group of its
// own, 1, int64(1) and "1" three groups. The keys are read densely or
// through a permutation with repeats, and resolved in tiles of random
// length up to 24, so a table of hundreds of groups crosses every growth
// of its index. The rows are folded into one table; split between two
// tables merged through batch(); and split between two tables whose
// batches are round-tripped through the spill codec and merged into an
// empty third.
func FuzzGroupTable(f *testing.F) {
	for kind := range 5 {
		for _, size := range []uint16{1, 9, 40, 300, 900} {
			f.Add(uint8(kind), size, uint64(kind*1000)+uint64(size))
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, size uint16, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, uint64(size)))
		k, n := int(kind)%5, 1+int(size)%1200
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{groupKey(rng, k, max(1, n/2))}
		}
		kc := vec.FromRows(rows).Cols[0]
		if seed&1 != 0 {
			for range n {
				kc.Idx = append(kc.Idx, int32(rng.IntN(n)))
			}
		}
		val := func(i int) float64 { return float64(i % 7) }

		ref := map[any]*[2]float64{} // key → count, sum
		for i := range n {
			key := kc.Value(kc.Pos(i))
			if f, ok := key.(float64); ok {
				key = f + 0
			}
			g, ok := ref[key]
			if !ok {
				g = new([2]float64)
				ref[key] = g
			}
			g[0]++
			g[1] += val(i)
		}
		var want []string
		for key, g := range ref {
			want = append(want, fmt.Sprintf("%T %v: %d %v", key, key, int64(g[0]), g[1]))
		}
		slices.Sort(want)

		aggs := []Aggregation{{Func: Count}, {Func: Sum, Arg: func(Row) float64 { return 0 }}}
		fold := func(lo, hi int) *groupTable {
			tb := newGroupTable(aggs, kc.Kind)
			var hs [24]uint64
			var gs [24]int32
			for at := lo; at < hi; {
				m := min(1+rng.IntN(len(gs)), hi-at)
				tb.resolve(&kc, at, hs[:m], gs[:m])
				for j, g := range gs[:m] {
					tb.n[g]++
					tb.fold(1, g, val(at+j))
				}
				at += m
			}
			return tb
		}
		check := func(how string, tb *groupTable) {
			t.Helper()
			if got := groupLines(tb); !slices.Equal(got, want) {
				t.Fatalf("%v keys, %d rows, %s:\n got %v\nwant %v", kc.Kind, n, how, got, want)
			}
		}
		roundTrip := func(tb *groupTable) *vec.Batch {
			t.Helper()
			buf, err := spill.EncodeCols(nil, tb.batch())
			if err != nil {
				t.Fatal(err)
			}
			b, err := spill.DecodeCols(buf, tb.groups())
			if err != nil {
				t.Fatal(err)
			}
			return b
		}

		check("one table", fold(0, n))
		cut := rng.IntN(n + 1)
		a, b := fold(0, cut), fold(cut, n)
		a.merge(b.batch())
		check("merged batch", a)
		a, b = fold(0, cut), fold(cut, n)
		merged := newGroupTable(aggs, kc.Kind)
		merged.merge(roundTrip(a))
		merged.merge(roundTrip(b))
		check("merged after a spill round trip", merged)
	})
}

// TestAnyGroupKeysResolveWithoutAllocating: a warm group table of Any
// keys resolves nulls, bools, ints and strings without allocating — nil
// and bool hash as keyHash64's fmt fallback would, to the same values,
// without running it.
func TestAnyGroupKeysResolveWithoutAllocating(t *testing.T) {
	for _, v := range []any{nil, true, false} {
		f := fnv.New64a()
		fmt.Fprintf(f, "%v", v)
		if got, want := keyHash64(v), f.Sum64(); got != want {
			t.Fatalf("keyHash64(%v) = %#x, want the fallback's %#x", v, got, want)
		}
	}
	kc := vec.FromRows([]Row{{nil}, {true}, {false}, {1}, {"x"}, {nil}}).Cols[0]
	tb := newGroupTable([]Aggregation{{Func: Count}}, kc.Kind)
	hs, gs := make([]uint64, kc.Len()), make([]int32, kc.Len())
	tb.resolve(&kc, 0, hs, gs)
	if allocs := testing.AllocsPerRun(100, func() { tb.resolve(&kc, 0, hs, gs) }); allocs != 0 || tb.groups() != 5 {
		t.Fatalf("%.0f allocations to resolve %d warm Any keys into %d groups, want 0 into 5", allocs, kc.Len(), tb.groups())
	}
}
