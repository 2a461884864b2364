// Column predicates: filters expressed against a single column, so a
// scan can evaluate them as tight per-column loops that only shrink
// the selection vector — no row materialization, no interface calls
// per row on typed columns.
package vec

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
	if sel == nil {
		sel = Ident(b.N)
	}
	for pi := range preds {
		p := &preds[pi]
		if p.Col < 0 || p.Col >= len(b.Cols) {
			return out[:0]
		}
		c := &b.Cols[p.Col]
		out = out[:0]
		out = ApplyPred(c, p, sel, out)
		sel = out
	}
	if len(preds) == 0 {
		out = append(out[:0], sel...)
		sel = out
	}
	return sel
}

// ApplyPred appends to out the rows of sel (logical rows of c) that
// satisfy p — the one single-column kernel behind ApplyPreds, exported
// so the chunk decoder (internal/spill) narrows its selection on a
// freshly decoded column with the very same comparison semantics. out
// may be sel[:0]: survivors are written behind the read cursor.
//
//hierdb:hotpath
func ApplyPred(c *Col, p *Pred, sel []int32, out []int32) []int32 {
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
		v, ok := intFamilyVal(p.Val)
		if !ok {
			return out
		}
		for _, li := range sel {
			pos := c.Pos(int(li))
			if !c.NullAt(pos) && cmpHolds(p.Op, cmpI64(c.I64[pos], v)) {
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
			if !c.NullAt(pos) && cmpHolds(p.Op, cmpU64(uint64(c.I64[pos]), v)) {
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
			if !c.NullAt(pos) && cmpHolds(p.Op, cmpF64(c.F64[pos], v)) {
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
			if !c.NullAt(pos) && cmpHolds(p.Op, cmpStr(c.Str[pos], v)) {
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
			if v == nil || IsAbsent(v) {
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
	}
	return out
}

// cmpHolds reports whether a three-way comparison result satisfies op.
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

// intFamilyVal widens an int/int32/int64 predicate constant to int64.
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

// dynCmp three-way-compares two boxed scalars of the same family; ok
// is false when the types are incomparable (which matches nothing).
func dynCmp(v, val any) (int, bool) {
	if a, ok := intFamilyVal(v); ok {
		if b, ok := intFamilyVal(val); ok {
			return cmpI64(a, b), true
		}
		return 0, false
	}
	switch a := v.(type) {
	case uint64:
		if b, ok := val.(uint64); ok {
			return cmpU64(a, b), true
		}
	case float64:
		if b, ok := val.(float64); ok {
			return cmpF64(a, b), true
		}
	case string:
		if b, ok := val.(string); ok {
			return cmpStr(a, b), true
		}
	}
	return 0, false
}
