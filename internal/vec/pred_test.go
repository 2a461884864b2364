package vec

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

func selOf(t *testing.T, rows []Row, preds ...Pred) []int32 {
	t.Helper()
	b := FromRows(rows)
	out := ApplyPreds(b, preds, nil, nil)
	return out
}

func TestPredsTyped(t *testing.T) {
	rows := []Row{{1, "a", 1.5}, {2, "b", 2.5}, {nil, "c", 3.5}, {4, "a", 4.5}}
	cases := []struct {
		preds []Pred
		want  []int32
	}{
		{[]Pred{{Col: 0, Op: Gt, Val: 1}}, []int32{1, 3}},
		{[]Pred{{Col: 0, Op: Le, Val: int64(2)}}, []int32{0, 1}},
		{[]Pred{{Col: 1, Op: Eq, Val: "a"}}, []int32{0, 3}},
		{[]Pred{{Col: 2, Op: Ge, Val: 2.5}, {Col: 1, Op: Ne, Val: "c"}}, []int32{1, 3}},
		{[]Pred{{Col: 0, Op: IsNull}}, []int32{2}},
		{[]Pred{{Col: 0, Op: NotNull}, {Col: 0, Op: Lt, Val: 4}}, []int32{0, 1}},
		{[]Pred{{Col: 0, Op: Eq, Val: "type-mismatch"}}, nil},
		{[]Pred{{Col: 9, Op: Eq, Val: 1}}, nil},
	}
	for i, c := range cases {
		got := selOf(t, rows, c.preds...)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("case %d: got %v want %v", i, got, c.want)
		}
	}
}

func TestPredsAnyColumn(t *testing.T) {
	rows := []Row{{1}, {"x"}, {nil}, {2.5}, {int64(3)}, {true}}
	b := FromRows(rows)
	if b.Cols[0].Kind != Any {
		t.Fatalf("kind %v", b.Cols[0].Kind)
	}
	got := ApplyPreds(b, []Pred{{Col: 0, Op: Ge, Val: 2}}, nil, nil)
	// int-family values ≥ 2: int64(3). 2.5 is a float (different family).
	if !reflect.DeepEqual(got, []int32{4}) {
		t.Fatalf("got %v", got)
	}
	got = ApplyPreds(b, []Pred{{Col: 0, Op: Eq, Val: true}}, nil, nil)
	if !reflect.DeepEqual(got, []int32{5}) {
		t.Fatalf("bool eq got %v", got)
	}
	got = ApplyPreds(b, []Pred{{Col: 0, Op: Gt, Val: true}}, nil, nil)
	if len(got) != 0 {
		t.Fatalf("ordered bool compare must match nothing, got %v", got)
	}
	got = ApplyPreds(b, []Pred{{Col: 0, Op: IsNull}}, nil, nil)
	if !reflect.DeepEqual(got, []int32{2}) {
		t.Fatalf("isnull got %v", got)
	}
}

func TestPredsBoolUint(t *testing.T) {
	rows := []Row{{true, uint64(5)}, {false, uint64(9)}, {true, uint64(1)}}
	b := FromRows(rows)
	got := ApplyPreds(b, []Pred{{Col: 0, Op: Eq, Val: true}, {Col: 1, Op: Lt, Val: uint64(5)}}, nil, nil)
	if !reflect.DeepEqual(got, []int32{2}) {
		t.Fatalf("got %v", got)
	}
	if got := ApplyPreds(b, []Pred{{Col: 0, Op: Lt, Val: true}}, nil, nil); len(got) != 0 {
		t.Fatalf("bool Lt matched %v", got)
	}
}

// applyPredRef is the row-at-a-time predicate loop the kernel replaced,
// kept as the oracle FuzzApplyPred compares ApplyPred with: per row it
// maps the logical row to storage, tests the null bit, three-way
// compares and switches on the operator. sel must not be nil.
func applyPredRef(c *Col, p *Pred, sel []int32, out []int32) []int32 {
	switch p.Op {
	case IsNull:
		for _, li := range sel {
			pos := c.Pos(int(li))
			if c.NullAt(pos) {
				out = append(out, li)
			}
		}
		return out
	case NotNull:
		for _, li := range sel {
			pos := c.Pos(int(li))
			if !c.NullAt(pos) {
				out = append(out, li)
			}
		}
		return out
	}
	switch {
	case c.Kind.IntFamily() && c.Kind != Uint64:
		v, ok := IntFamilyVal(p.Val)
		if !ok {
			return out
		}
		for _, li := range sel {
			pos := c.Pos(int(li))
			if !c.NullAt(pos) && cmpHolds(p.Op, cmp.Compare(c.I64[pos], v)) {
				out = append(out, li)
			}
		}
	case c.Kind == Uint64:
		v, ok := p.Val.(uint64)
		if !ok {
			return out
		}
		for _, li := range sel {
			pos := c.Pos(int(li))
			if !c.NullAt(pos) && cmpHolds(p.Op, cmp.Compare(uint64(c.I64[pos]), v)) {
				out = append(out, li)
			}
		}
	case c.Kind == Float64:
		v, ok := p.Val.(float64)
		if !ok {
			return out
		}
		for _, li := range sel {
			pos := c.Pos(int(li))
			if !c.NullAt(pos) && cmpHolds(p.Op, CmpF64(c.F64[pos], v)) {
				out = append(out, li)
			}
		}
	case c.Kind == String:
		v, ok := p.Val.(string)
		if !ok {
			return out
		}
		for _, li := range sel {
			pos := c.Pos(int(li))
			if !c.NullAt(pos) && cmpHolds(p.Op, cmp.Compare(c.Str[pos], v)) {
				out = append(out, li)
			}
		}
	case c.Kind == Bool:
		v, ok := p.Val.(bool)
		if !ok || (p.Op != Eq && p.Op != Ne) {
			return out
		}
		for _, li := range sel {
			pos := c.Pos(int(li))
			if !c.NullAt(pos) && (c.B[pos] == v) == (p.Op == Eq) {
				out = append(out, li)
			}
		}
	default: // Any: dynamic boxed comparison
		for _, li := range sel {
			v := c.Value(c.Pos(int(li)))
			if v == nil {
				continue
			}
			if bv, ok := v.(bool); ok {
				if bw, ok := p.Val.(bool); ok && (p.Op == Eq || p.Op == Ne) && (bv == bw) == (p.Op == Eq) {
					out = append(out, li)
				}
				continue
			}
			if r, ok := dynCmp(v, p.Val); ok && cmpHolds(p.Op, r) {
				out = append(out, li)
			}
		}
	}
	return out
}

// Value pools the fuzz target draws from: per kind the values a column
// holds (the extremes, ±0 and NaN, the empty string, and small values
// that repeat so that Eq finds matches), and predicate constants of
// every family.
var (
	fuzzInts    = []int64{0, 1, -1, 2, -2, 7, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	fuzzInt32s  = []int64{0, 1, -1, 2, 7, math.MinInt32, math.MaxInt32}
	fuzzUints   = []uint64{0, 1, 2, 7, 1 << 63, 1<<63 - 1, 1<<63 + 1, math.MaxUint64, math.MaxUint64 - 1}
	fuzzFloats  = []float64{0, math.Copysign(0, -1), 1, -1, 2.5, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.SmallestNonzeroFloat64}
	fuzzStrings = []string{"", "a", "ab", "b", "A", "\xff", "a\x00"}
	fuzzVals    = []any{
		0, 1, -1, 7, int32(2), int32(math.MinInt32), int64(math.MinInt64), int64(math.MaxInt64), int64(-2),
		uint64(0), uint64(7), uint64(1 << 63), uint64(math.MaxUint64),
		0.0, math.Copysign(0, -1), 2.5, -1.0, math.NaN(), math.Inf(1),
		"", "a", "ab", "\xff", true, false, nil, int8(1),
	}
)

// fuzzCol builds a column of kind k over m storage positions, drawing
// values from k's pool; nullable columns get a bitmap (zero values at
// null positions, as the mirror invariant requires).
func fuzzCol(rng *rand.Rand, k Kind, m int, nullable bool) Col {
	c := Col{Kind: k}
	null := func(pos int) bool {
		if nullable && rng.IntN(4) == 0 {
			c.setNull(pos, m)
			return true
		}
		return false
	}
	if nullable {
		c.Null = make([]uint64, (m+63)/64) // a bitmap even if no bit gets set
	}
	switch k {
	case Int, Int64:
		c.I64 = make([]int64, m)
		for i := range m {
			if !null(i) {
				c.I64[i] = fuzzInts[rng.IntN(len(fuzzInts))]
			}
		}
	case Int32:
		c.I64 = make([]int64, m)
		for i := range m {
			if !null(i) {
				c.I64[i] = fuzzInt32s[rng.IntN(len(fuzzInt32s))]
			}
		}
	case Uint64:
		c.I64 = make([]int64, m)
		for i := range m {
			if !null(i) {
				c.I64[i] = int64(fuzzUints[rng.IntN(len(fuzzUints))])
			}
		}
	case Float64:
		c.F64 = make([]float64, m)
		for i := range m {
			if !null(i) {
				c.F64[i] = fuzzFloats[rng.IntN(len(fuzzFloats))]
			}
		}
	case Bool:
		c.B = make([]bool, m)
		for i := range m {
			if !null(i) {
				c.B[i] = rng.IntN(2) == 0
			}
		}
	case String:
		c.Str = make([]string, m)
		for i := range m {
			if !null(i) {
				c.Str[i] = fuzzStrings[rng.IntN(len(fuzzStrings))]
			}
		}
	default: // Any: boxed values of every family and nil
		c.Null = nil
		c.Box = make([]any, m)
		for i := range m {
			switch rng.IntN(8) {
			case 0, 1:
				c.Box[i] = nil
			default:
				c.Box[i] = fuzzVals[rng.IntN(len(fuzzVals))]
			}
		}
	}
	return c
}

// fuzzVal draws a predicate constant: from the column's own family when
// own is set (so comparisons find matches), from every family otherwise.
func fuzzVal(rng *rand.Rand, k Kind, own bool) any {
	if !own {
		return fuzzVals[rng.IntN(len(fuzzVals))]
	}
	switch k {
	case Int:
		return int(fuzzInts[rng.IntN(len(fuzzInts))])
	case Int32:
		return int32(fuzzInt32s[rng.IntN(len(fuzzInt32s))])
	case Int64:
		return fuzzInts[rng.IntN(len(fuzzInts))]
	case Uint64:
		return fuzzUints[rng.IntN(len(fuzzUints))]
	case Float64:
		return fuzzFloats[rng.IntN(len(fuzzFloats))]
	case Bool:
		return rng.IntN(2) == 0
	case String:
		return fuzzStrings[rng.IntN(len(fuzzStrings))]
	}
	return fuzzVals[rng.IntN(len(fuzzVals))]
}

// FuzzApplyPred compares the predicate kernel with applyPredRef over
// every kind, with and without a null bitmap, through no index, an
// identity window starting past storage position 0, or a permutation;
// under a nil or a subset selection; into a separate out (empty, too
// small, or holding rows already) or into sel[:0] as the chunk decoder
// passes it; for every operator (and a value that is none) and
// constants of every family.
func FuzzApplyPred(f *testing.F) {
	for k := range String + 1 {
		for op := range NotNull + 2 {
			f.Add(uint8(k), uint8(op), uint8(k)*7+uint8(op)*3, uint16(40+9*int(k)+int(op)), uint64(k)*8+uint64(op))
		}
	}
	f.Fuzz(func(t *testing.T, kind, op, shape uint8, size uint16, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, uint64(shape)))
		k := Kind(kind % uint8(String+1))
		n := int(size % 300)
		p := Pred{Col: 0, Op: CmpOp(op % uint8(NotNull+2)), Val: fuzzVal(rng, k, shape&1 == 0)} // NotNull+1: no operator

		var idx []int32
		m := n
		switch shape >> 1 % 3 {
		case 1: // a scan window: Ident(hi)[lo:hi] with lo > 0
			lo := 1 + rng.IntN(130)
			m = lo + n
			idx = Ident(m)[lo:]
		case 2: // a permutation of distinct storage positions
			m = n + rng.IntN(20)
			for _, pos := range rng.Perm(m)[:n] {
				idx = append(idx, int32(pos))
			}
			if idx == nil {
				idx = []int32{}
			}
		}
		c := fuzzCol(rng, k, m, shape&8 != 0)
		c.Idx = idx

		var sel []int32 // nil: every logical row
		if shape&16 != 0 {
			sel = []int32{}
			for li := range n {
				if rng.IntN(3) != 0 {
					sel = append(sel, int32(li))
				}
			}
		}
		rows := sel
		if rows == nil {
			rows = slices.Clone(Ident(n))
		}
		want := applyPredRef(&c, &p, rows, nil)
		pristine := slices.Clone(sel) // the aliased call below overwrites sel

		var prefix, got []int32
		switch {
		case shape&32 != 0 && sel != nil: // out aliases sel, as the decoder passes it
			got = ApplyPred(&c, &p, sel, sel[:0])
		case shape&64 != 0: // out already holds rows, and too little room
			prefix = []int32{-1, -2, -3}
			got = ApplyPred(&c, &p, sel, slices.Clip(prefix))
		default:
			got = ApplyPred(&c, &p, sel, make([]int32, 0, rng.IntN(n+2)))
		}
		if !slices.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("%v %v: out's rows overwritten: %v", k, p, got[:len(prefix)])
		}
		if got := got[len(prefix):]; !slices.Equal(got, want) {
			t.Fatalf("%v %v (n=%d idx=%v sel=%v nulls=%v):\n got %v\nwant %v", k, p, n, idx, sel != nil, c.Null, got, want)
		}

		// ApplyPreds chains a second predicate behind the first: an empty
		// first result must stay empty, not turn into "every row".
		q := Pred{Col: 0, Op: CmpOp(rng.IntN(int(NotNull) + 1)), Val: fuzzVal(rng, k, rng.IntN(2) == 0)}
		want = applyPredRef(&c, &q, want, nil)
		b := &Batch{Cols: []Col{c}, N: n}
		if got := ApplyPreds(b, []Pred{p, q}, pristine, nil); !slices.Equal(got, want) {
			t.Fatalf("%v %v then %v (n=%d idx=%v sel=%v):\n got %v\nwant %v", k, p, q, n, idx, sel != nil, got, want)
		}
	})
}

// TestApplyPredZeroAlloc: on a typed column the kernel allocates
// nothing when out has room for every row it walks — whatever the
// kind, operator, index, selection or null bitmap.
func TestApplyPredZeroAlloc(t *testing.T) {
	const n = 512
	rng := rand.New(rand.NewPCG(1, 2))
	sub := make([]int32, 0, n)
	for li := range n {
		if li%3 != 0 {
			sub = append(sub, int32(li))
		}
	}
	out := make([]int32, 0, n)
	for k := Int; k <= String; k++ {
		for _, nullable := range []bool{false, true} {
			for _, window := range []bool{false, true} {
				c := fuzzCol(rng, k, 2*n, nullable)
				if window {
					c.Idx = Ident(2 * n)[n:]
				}
				for op := Eq; op <= NotNull; op++ {
					p := Pred{Col: 0, Op: op, Val: fuzzVal(rng, k, true)}
					for _, sel := range [][]int32{nil, sub} {
						if a := testing.AllocsPerRun(20, func() { out = ApplyPred(&c, &p, sel, out[:0]) }); a != 0 {
							t.Errorf("%v nulls=%v window=%v %v sel=%v: %.1f allocs per call", k, nullable, window, p, sel != nil, a)
						}
					}
				}
			}
		}
	}
}

// BenchmarkApplyPred prices the kernel per row walked, on a 1024-row
// column (one morsel) per kind: Eq, and Lt on the ordered kinds; over
// dense storage (a decoded chunk), a scan window Ident(2n)[n:] (a
// resident morsel past row 0) and a window under a random half of its
// rows as sel (a second predicate); keeping one row or about half of
// them at random, so a branch on the outcome would mispredict.
func BenchmarkApplyPred(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewPCG(3, 4))
	// one: a permutation of 0..n-1, so Eq n/2 and Lt 1 each match one
	// row; half: random 0s and 1s, so Eq 0 and Lt 1 match about half.
	one, half := rng.Perm(n), make([]int, n)
	for i := range half {
		half[i] = rng.IntN(2)
	}
	sub := make([]int32, 0, n)
	for li := range n {
		if rng.IntN(2) == 0 {
			sub = append(sub, int32(li))
		}
	}
	// col lays xs out at storage positions off..off+n-1 of a column of k.
	col := func(k Kind, xs []int, off int) Col {
		c := Col{Kind: k}
		for range off {
			xs = append([]int{0}, xs...)
		}
		for _, x := range xs {
			switch k {
			case Int64:
				c.I64 = append(c.I64, int64(x))
			case Uint64:
				c.I64 = append(c.I64, int64(uint64(x)|1<<63))
			case Float64:
				c.F64 = append(c.F64, float64(x))
			case String:
				c.Str = append(c.Str, fmt.Sprintf("k%07d", x))
			case Bool:
				c.B = append(c.B, x == 1)
			}
		}
		return c
	}
	val := func(k Kind, x int) any {
		switch k {
		case Uint64:
			return uint64(x) | 1<<63
		case Float64:
			return float64(x)
		case String:
			return fmt.Sprintf("k%07d", x)
		case Bool:
			return x == 1
		}
		return int64(x)
	}
	for _, k := range []Kind{Int64, Uint64, Float64, String, Bool} {
		ops := []CmpOp{Eq, Lt}
		if k == Bool {
			ops = ops[:1]
		}
		for _, op := range ops {
			for _, shape := range []string{"dense", "window", "sel"} {
				for _, keep := range []string{"one", "half"} {
					xs, x := one, n/2
					switch {
					case keep == "one" && k == Bool: // a single true
						xs, x = make([]int, n), 1
						xs[n/3] = 1
					case keep == "one" && op == Lt:
						x = 1
					case keep == "half":
						xs, x = half, 0
						if op == Lt {
							x = 1
						}
					}
					var c Col
					var sel []int32
					switch shape {
					case "dense":
						c = col(k, xs, 0)
					case "window", "sel":
						c = col(k, xs, n)
						c.Idx = Ident(2 * n)[n:]
					}
					rows := n
					if shape == "sel" {
						sel, rows = sub, len(sub)
					}
					p := Pred{Op: op, Val: val(k, x)}
					name := fmt.Sprintf("%v/%v/%s/%s", k, opNames[op], shape, keep)
					b.Run(name, func(b *testing.B) {
						out := make([]int32, 0, n)
						b.ReportAllocs()
						for b.Loop() {
							out = ApplyPred(&c, &p, sel, out[:0])
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
					})
				}
			}
		}
	}
}

var opNames = [...]string{Eq: "Eq", Ne: "Ne", Lt: "Lt", Le: "Le", Gt: "Gt", Ge: "Ge", IsNull: "IsNull", NotNull: "NotNull"}
