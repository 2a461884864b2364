// Zone-map pruning: decide from the footer alone, before paying a
// chunk's ReadAt and decode, what each scan predicate does to the chunk
// — matches none of its rows (the chunk is skipped), all of them (the
// predicate is dropped from the set the decoder evaluates), or some.
// Both proofs must be sound against vec.ApplyPred: a chunk is only
// skipped when the kernel would have selected zero of its rows and a
// predicate only dropped when it would have selected every one —
// including the kernel's deliberate quirks: a null row satisfies only
// IsNull, a predicate constant outside a typed column's type family
// matches nothing, and float comparisons treat NaN pairs as equal (so a
// NaN *value* satisfies Eq/Le/Ge against any constant, and a NaN
// *constant* satisfies Eq/Le/Ge against any non-null float).
package store

import "hierdb/internal/vec"

// match is what a zone map proves about one predicate over one chunk.
type match uint8

const (
	matchSome match = iota // undecided: the decoder evaluates the predicate
	matchNone              // no row can satisfy it
	matchAll               // every row satisfies it
)

// Skippable reports whether chunk i provably matches none of preds
// (evaluated as an AND, like vec.ApplyPreds): one predicate that
// cannot match any row skips the chunk. An empty preds never skips.
//
//hierdb:hotpath
func (t *TableFile) Skippable(i int, preds []vec.Pred) bool {
	ch := &t.ft.chunks[i]
	for pi := range preds {
		if t.zoneMatch(ch, &preds[pi]) == matchNone {
			return true
		}
	}
	return false
}

// zoneMatch classifies p over chunk ch. A wrong matchSome costs one
// evaluated predicate or one decoded chunk; a wrong matchNone or
// matchAll would be a wrong answer, so every branch errs toward
// matchSome.
//
//hierdb:hotpath
func (t *TableFile) zoneMatch(ch *ChunkInfo, p *vec.Pred) match {
	if p.Col < 0 || p.Col >= len(ch.Zones) {
		// ApplyPreds empties the selection for out-of-range columns.
		return matchNone
	}
	z := &ch.Zones[p.Col]
	switch p.Op {
	case vec.IsNull:
		return presence(z.HasNulls, z.HasNonNull)
	case vec.NotNull:
		return presence(z.HasNonNull, z.HasNulls)
	}
	if !z.HasNonNull {
		return matchNone // comparisons never match null rows
	}
	m := matchSome
	switch z.Kind {
	case vec.Int, vec.Int32, vec.Int64:
		v, ok := intFamilyVal(p.Val)
		if !ok {
			return matchNone // constant outside the type family matches nothing
		}
		m = rangeMatch(p.Op, cmpI64(v, z.MinI64), cmpI64(v, z.MaxI64))
	case vec.Uint64:
		v, ok := p.Val.(uint64)
		if !ok {
			return matchNone
		}
		m = rangeMatch(p.Op, cmpU64(v, uint64(z.MinI64)), cmpU64(v, uint64(z.MaxI64)))
	case vec.Float64:
		v, ok := p.Val.(float64)
		if !ok {
			return matchNone
		}
		eqish := p.Op == vec.Eq || p.Op == vec.Le || p.Op == vec.Ge
		switch {
		case v != v && eqish:
			m = matchAll // a NaN constant compares "equal" to every non-null row
		case v != v:
			return matchNone
		case z.HasNaN && eqish:
			// NaN rows compare "equal" to the constant; the others may not.
		case !z.HasRange:
			return matchNone // all rows null or NaN, and NaN rows never match Ne/Lt/Gt
		default:
			if m = rangeMatch(p.Op, cmpF64(v, z.MinF64), cmpF64(v, z.MaxF64)); m == matchAll && z.HasNaN {
				m = matchSome // the NaN rows fail Ne/Lt/Gt
			}
		}
	case vec.Bool:
		v, ok := p.Val.(bool)
		if !ok || (p.Op != vec.Eq && p.Op != vec.Ne) {
			return matchNone // bools are unordered: the kernel matches nothing
		}
		var b int64
		if v {
			b = 1
		}
		m = rangeMatch(p.Op, cmpI64(b, z.MinI64), cmpI64(b, z.MaxI64))
	case vec.String:
		v, ok := p.Val.(string)
		if !ok {
			return matchNone
		}
		m = rangeMatch(p.Op, cmpStr(v, z.MinStr), cmpStr(v, z.MaxStr))
	}
	// Any: mixed or exotic values — no range to reason with.
	if m == matchAll && z.HasNulls {
		return matchSome // the null rows fail every comparison
	}
	return m
}

// presence classifies a null-presence predicate: want is whether rows
// of the kind it selects exist, other whether rows of the other kind do.
//
//hierdb:hotpath
func presence(want, other bool) match {
	switch {
	case !want:
		return matchNone
	case !other:
		return matchAll
	}
	return matchSome
}

// rangeMatch classifies op against a column whose non-null values span
// the closed range [min, max] (both attained), given the three-way
// comparisons of the constant against min (cmin) and max (cmax).
//
//hierdb:hotpath
func rangeMatch(op vec.CmpOp, cmin, cmax int) match {
	var can, all bool
	switch op {
	case vec.Eq:
		can, all = cmin >= 0 && cmax <= 0, cmin == 0 && cmax == 0 // min <= v <= max; min == v == max
	case vec.Ne:
		can, all = cmin != 0 || cmax != 0, cmin < 0 || cmax > 0 // some row differs; v outside the range
	case vec.Lt:
		can, all = cmin > 0, cmax > 0 // min < v; max < v
	case vec.Le:
		can, all = cmin >= 0, cmax >= 0
	case vec.Gt:
		can, all = cmax < 0, cmin < 0 // max > v; min > v
	case vec.Ge:
		can, all = cmax <= 0, cmin <= 0
	default:
		return matchSome
	}
	switch {
	case !can:
		return matchNone
	case all:
		return matchAll
	}
	return matchSome
}

//hierdb:hotpath
func cmpI64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

//hierdb:hotpath
func cmpU64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

//hierdb:hotpath
func cmpF64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

//hierdb:hotpath
func cmpStr(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// intFamilyVal widens an int/int32/int64 predicate constant to int64,
// matching the kernel's cross-width int comparisons.
func intFamilyVal(v any) (int64, bool) {
	switch t := v.(type) {
	case int:
		return int64(t), true
	case int32:
		return int64(t), true
	case int64:
		return t, true
	}
	return 0, false
}
