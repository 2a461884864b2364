// Column predicates: filters expressed against a single column, so a
// scan evaluates them as tight per-column loops that only shrink the
// selection vector — no row materialization, no interface call per row
// on typed columns.
//
// On a typed column everything that does not change from row to row is
// resolved once per call: the constant's type, the operator, whether
// the column is read through an index and whether a selection restricts
// the rows. What is left per row is one typed compare whose outcome
// advances the output cursor — out[k] = row; k += holds — so no branch
// depends on the data, and a null bitmap costs one pass over the
// survivors afterwards. Every operator keeps CmpF64's semantics, under
// which a NaN on either side compares equal (and so the zone maps'
// soundness argument in internal/store, which reasons with CmpF64):
// orders are tested with < and > alone, which a NaN fails, and
// equality as == or a NaN value. Any columns compare boxed values
// dynamically, row by row.
package vec

import (
	"cmp"
	"slices"
)

// CmpOp is a predicate comparison operator.
type CmpOp uint8

// Comparison operators. IsNull/NotNull ignore Val.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
	IsNull
	NotNull
)

// Pred compares column Col against the constant Val.
//
// Semantics: a null column value satisfies only IsNull. For typed
// columns Val must belong to the column's type family (any of
// int/int32/int64 for the int kinds, uint64 for uint64 columns,
// float64, string; bool supports Eq/Ne only) — a Val outside the
// family matches no rows, mirroring Go's cross-type inequality. Any
// columns compare boxed values dynamically under the same rules.
type Pred struct {
	Col int
	Op  CmpOp
	Val any
}

// ApplyPreds evaluates preds over b's logical rows, ANDing them: sel
// is the incoming selection of logical row indices (nil means all
// rows) and the result is the surviving subset, written in place into
// scratch storage the caller provides via out (grown as needed).
//
//hierdb:hotpath
func ApplyPreds(b *Batch, preds []Pred, sel []int32, out []int32) []int32 {
	if len(preds) == 0 {
		return appendRows(out[:0], sel, b.N)
	}
	for pi := range preds {
		p := &preds[pi]
		if p.Col < 0 || p.Col >= len(b.Cols) {
			return out[:0]
		}
		out = ApplyPred(&b.Cols[p.Col], p, sel, out[:0])
		if len(out) == 0 {
			return out // may be nil, which as a sel would mean every row
		}
		sel = out
	}
	return sel
}

// ApplyPred appends to out the rows of sel (logical rows of c) that
// satisfy p — the one single-column kernel behind ApplyPreds, exported
// so the chunk decoder (internal/spill) narrows its selection on a
// freshly decoded column with the very same comparison semantics. A nil
// sel means every logical row of c: len(c.Idx) of them, or every
// storage position when c has no index. out may be sel[:0]: survivors
// are written behind the read cursor. The kernel writes up to len(sel)
// slots past len(out) — rows that fail are overwritten by the next
// row — so out is grown once, up front, when its capacity is short of
// that, and a call allocates nothing when it is not. An empty result is
// nil when out is nil: test its length before passing it on as a sel.
//
//hierdb:hotpath
func ApplyPred(c *Col, p *Pred, sel []int32, out []int32) []int32 {
	n := len(sel)
	if sel == nil {
		n = c.Len()
		if c.Idx != nil {
			n = len(c.Idx)
		}
	}
	if c.Kind == Any {
		return applyAny(c, p, sel, n, out)
	}
	from := len(out)
	switch op := p.Op; {
	case op > NotNull: // not an operator: matches nothing, as in cmpHolds
		return out
	case op == IsNull || op == NotNull:
		if c.Null == nil {
			if op == IsNull {
				return out
			}
			return appendRows(out, sel, n)
		}
		return keepNulls(appendRows(out, sel, n), from, c.Idx, c.Null, op == IsNull)
	case c.Kind == Bool:
		v, ok := p.Val.(bool)
		if !ok || (op != Eq && op != Ne) {
			return out
		}
		out = filterEq(c.B, v, op == Ne, c.Idx, sel, n, out)
	case c.Kind == Uint64:
		v, ok := p.Val.(uint64)
		if !ok {
			return out
		}
		out = filterCmp(u64s(c.I64), v, op, c.Idx, sel, n, out)
	case c.Kind.IntFamily():
		v, ok := IntFamilyVal(p.Val)
		if !ok {
			return out
		}
		out = filterCmp(c.I64, v, op, c.Idx, sel, n, out)
	case c.Kind == Float64:
		v, ok := p.Val.(float64)
		if !ok {
			return out
		}
		if v != v { // a NaN constant is CmpF64-equal to every value
			switch op {
			case Eq:
				op = Ge // which holds on every row
			case Ne:
				op = Lt // which holds on none
			}
		}
		out = filterCmp(c.F64, v, op, c.Idx, sel, n, out)
	default: // String
		v, ok := p.Val.(string)
		if !ok {
			return out
		}
		out = filterCmp(c.Str, v, op, c.Idx, sel, n, out)
	}
	if c.Null != nil {
		out = keepNulls(out, from, c.Idx, c.Null, false)
	}
	return out
}

// filterCmp runs op's loop: filterEq for Eq and Ne, filterOrd for the
// others.
//
//hierdb:hotpath
func filterCmp[T int64 | uint64 | float64 | string](data []T, v T, op CmpOp, idx, sel []int32, n int, out []int32) []int32 {
	if op == Eq || op == Ne {
		return filterEq(data, v, op == Ne, idx, sel, n, out)
	}
	return filterOrd(data, v, op, idx, sel, n, out)
}

// filterOrd is the ordered compare kernel: it appends to out the rows
// (sel, or all n when nil; mapped to storage through idx when not nil)
// whose value x satisfies op against v, one compare a row — x < v for
// Lt and Ge, x > v for Gt and Le, the second of each pair negated by
// neg. Neither holds when a NaN is on either side, which makes a NaN
// CmpF64-equal to anything.
//
//hierdb:hotpath
func filterOrd[T int64 | uint64 | float64 | string](data []T, v T, op CmpOp, idx, sel []int32, n int, out []int32) []int32 {
	neg := b2i(op == Ge || op == Le)
	k := len(out)
	out = slices.Grow(out, n)
	dst := out[:k+n]
	if op == Lt || op == Ge {
		switch {
		case sel == nil && idx == nil:
			for i, x := range data[:n] {
				dst[k] = int32(i)
				k += b2i(x < v) ^ neg
			}
		case sel == nil:
			for i, pos := range idx[:n] {
				dst[k] = int32(i)
				k += b2i(data[pos] < v) ^ neg
			}
		case idx == nil:
			for _, li := range sel {
				dst[k] = li
				k += b2i(data[li] < v) ^ neg
			}
		default:
			for _, li := range sel {
				dst[k] = li
				k += b2i(data[idx[li]] < v) ^ neg
			}
		}
		return dst[:k]
	}
	switch {
	case sel == nil && idx == nil:
		for i, x := range data[:n] {
			dst[k] = int32(i)
			k += b2i(x > v) ^ neg
		}
	case sel == nil:
		for i, pos := range idx[:n] {
			dst[k] = int32(i)
			k += b2i(data[pos] > v) ^ neg
		}
	case idx == nil:
		for _, li := range sel {
			dst[k] = li
			k += b2i(data[li] > v) ^ neg
		}
	default:
		for _, li := range sel {
			dst[k] = li
			k += b2i(data[idx[li]] > v) ^ neg
		}
	}
	return dst[:k]
}

// filterEq is filterOrd's loop for Eq, or Ne when ne is set: x == v, or
// x is a NaN (x != x), which is CmpF64-equal to anything. On every kind
// but Float64 and Bool the compiler folds x != x away, and on strings
// == tests the lengths before it reads a byte.
//
//hierdb:hotpath
func filterEq[T int64 | uint64 | float64 | string | bool](data []T, v T, ne bool, idx, sel []int32, n int, out []int32) []int32 {
	neg := b2i(ne)
	k := len(out)
	out = slices.Grow(out, n)
	dst := out[:k+n]
	switch {
	case sel == nil && idx == nil:
		for i, x := range data[:n] {
			dst[k] = int32(i)
			k += (b2i(x == v) | b2i(x != x)) ^ neg
		}
	case sel == nil:
		for i, pos := range idx[:n] {
			x := data[pos]
			dst[k] = int32(i)
			k += (b2i(x == v) | b2i(x != x)) ^ neg
		}
	case idx == nil:
		for _, li := range sel {
			x := data[li]
			dst[k] = li
			k += (b2i(x == v) | b2i(x != x)) ^ neg
		}
	default:
		for _, li := range sel {
			x := data[idx[li]]
			dst[k] = li
			k += (b2i(x == v) | b2i(x != x)) ^ neg
		}
	}
	return dst[:k]
}

// keepNulls compacts out[from:] in place to the rows whose null bit is
// set (isNull) or clear (!isNull), reading the bitmap at each row's
// storage position.
//
//hierdb:hotpath
func keepNulls(out []int32, from int, idx []int32, null []uint64, isNull bool) []int32 {
	flip := uint64(1 - b2i(isNull))
	k := from
	if idx == nil {
		for _, li := range out[from:] {
			out[k] = li
			k += int(null[li>>6]>>(uint(li)&63)&1 ^ flip)
		}
	} else {
		for _, li := range out[from:] {
			pos := idx[li]
			out[k] = li
			k += int(null[pos>>6]>>(uint(pos)&63)&1 ^ flip)
		}
	}
	return out[:k]
}

// appendRows appends the rows sel, or 0..n-1 when sel is nil, to out.
//
//hierdb:hotpath
func appendRows(out, sel []int32, n int) []int32 {
	if sel != nil {
		return append(out, sel...)
	}
	out = slices.Grow(out, n)
	for i := range n {
		out = append(out, int32(i))
	}
	return out
}

// b2i is 1 for true and 0 for false, compiled to a flag set, not a
// branch.
//
//hierdb:hotpath
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// applyAny is the kernel on an Any column: each row's boxed value is
// compared dynamically (dynCmp), under the typed kinds' rules — a null
// value satisfies only IsNull/NotNull as NullAt says, a value of another
// family matches nothing, and bools compare Eq/Ne only.
//
//hierdb:hotpath
func applyAny(c *Col, p *Pred, sel []int32, n int, out []int32) []int32 {
	out = slices.Grow(out, n)
	for j := range n {
		li := int32(j)
		if sel != nil {
			li = sel[j]
		}
		pos := c.Pos(int(li))
		if p.Op == IsNull || p.Op == NotNull {
			if c.NullAt(pos) == (p.Op == IsNull) {
				out = append(out, li)
			}
			continue
		}
		v := c.Value(pos)
		if v == nil {
			continue
		}
		if bv, ok := v.(bool); ok {
			// Bools are unordered: Eq/Ne only.
			if bw, ok := p.Val.(bool); ok && (p.Op == Eq || p.Op == Ne) && (bv == bw) == (p.Op == Eq) {
				out = append(out, li)
			}
			continue
		}
		if r, ok := dynCmp(v, p.Val); ok && cmpHolds(p.Op, r) {
			out = append(out, li)
		}
	}
	return out
}

// cmpHolds reports whether a three-way comparison result satisfies op
// (the Any kernel's test).
//
//hierdb:hotpath
func cmpHolds(op CmpOp, c int) bool {
	switch op {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	}
	return false
}

// CmpF64 three-way-compares two floats as the predicate kernels do: a
// NaN on either side compares equal, so a NaN satisfies Eq, Le and Ge
// against anything (cmp.Compare would order it first instead). The zone
// maps (internal/store) reason with the very same comparison.
//
//hierdb:hotpath
func CmpF64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// IntFamilyVal widens an int/int32/int64 predicate constant to int64,
// the kernels' and the zone maps' cross-width int comparisons.
func IntFamilyVal(v any) (int64, bool) {
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

// dynCmp three-way-compares two boxed scalars of the same family; ok
// is false when the types are incomparable (which matches nothing).
func dynCmp(v, val any) (int, bool) {
	if a, ok := IntFamilyVal(v); ok {
		if b, ok := IntFamilyVal(val); ok {
			return cmp.Compare(a, b), true
		}
		return 0, false
	}
	switch a := v.(type) {
	case uint64:
		if b, ok := val.(uint64); ok {
			return cmp.Compare(a, b), true
		}
	case float64:
		if b, ok := val.(float64); ok {
			return CmpF64(a, b), true
		}
	case string:
		if b, ok := val.(string); ok {
			return cmp.Compare(a, b), true
		}
	}
	return 0, false
}
