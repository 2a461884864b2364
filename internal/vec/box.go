// Box in place: the engine's one boxing boundary, allocation-free. A
// value leaving a boxless column becomes an interface whose type word is
// its kind's Go type and whose data word points at the value's own slot
// in the column's typed mirror — I64[pos], F64[pos], Str[pos] or B[pos].
// No kind boxed here is pointer-shaped, so the runtime's own box of such
// a value is that same pair with the data word pointing at a heap copy;
// pointing it at the mirror instead is sound because a mirror reachable
// from a batch is never written again (the write-once invariant, see the
// package comment), and the box keeps the mirror alive for the GC.
//
// Nothing here is taken on trust. At init the eface layout is checked
// on a real boxed value, then each kind boxes a probe value in place and
// compares the result with the runtime's box of the same value (==, the
// reflect type, the type switch). A kind that fails — int32 on a
// big-endian platform, whose value is not at the start of its int64
// slot — keeps the copying box. This file holds the module's only uses
// of unsafe: boxing in place, and u64s, the uint64 view of an I64 mirror
// that the predicate kernel compares through.
package vec

import (
	"math"
	"reflect"
	"unsafe"
)

// eface is the runtime's layout of an empty interface.
type eface struct {
	typ, data unsafe.Pointer
}

// typeWords holds, by Kind, the type word of an in-place box of that
// kind; nil means the kind boxes by copy.
var typeWords [String + 1]unsafe.Pointer

func init() {
	i := int64(0x11223344_55667788) // a variable: int and int32 truncate it
	var v any = i
	if unsafe.Sizeof(v) != 2*unsafe.Sizeof(uintptr(0)) || *(*int64)((*eface)(unsafe.Pointer(&v)).data) != i {
		return // not the layout this file assumes: every kind boxes by copy
	}
	// Probe values whose halves differ, so a box that reads the wrong
	// half of its slot cannot pass.
	probes := [...]any{
		Int:     int(i),
		Int32:   int32(i),
		Int64:   i,
		Uint64:  uint64(0x8899aabb_ccddeeff),
		Float64: math.Pi,
		Bool:    true,
		String:  "box in place",
	}
	for k, v := range probes {
		if v != nil {
			typeWords[k] = selfCheck(Kind(k), v)
		}
	}
}

// selfCheck returns the type word kind k boxes in place with, or nil if
// the runtime does not read the in-place box of v back as v.
func selfCheck(k Kind, v any) unsafe.Pointer {
	t := (*eface)(unsafe.Pointer(&v)).typ
	c := FromRows([]Row{{v}}).Cols[0]
	got := c.boxIn(t, 0)
	if c.Kind != k || got != v || reflect.TypeOf(got) != reflect.TypeOf(v) || KindOf(got) != k {
		return nil
	}
	return t
}

// boxAt returns the boxed value at storage position pos of a boxless
// column (nil at null bits) without allocating: the box points into the
// column's mirror, keeps that mirror alive, and relies on nobody writing
// it again. A kind that failed its init self-check is boxed by copy.
//
//hierdb:hotpath
func (c *Col) boxAt(pos int) any {
	if c.NullAt(pos) {
		return nil
	}
	if t := typeWords[c.Kind]; t != nil {
		return c.boxIn(t, pos)
	}
	return c.copyBox(pos)
}

// boxIn returns the interface of type word t over the mirror slot of
// storage position pos.
//
//hierdb:hotpath
func (c *Col) boxIn(t unsafe.Pointer, pos int) any {
	var p unsafe.Pointer
	switch {
	case c.Kind.IntFamily():
		p = unsafe.Pointer(&c.I64[pos])
	case c.Kind == Float64:
		p = unsafe.Pointer(&c.F64[pos])
	case c.Kind == Bool:
		p = unsafe.Pointer(&c.B[pos])
	default:
		p = unsafe.Pointer(&c.Str[pos])
	}
	return *(*any)(unsafe.Pointer(&eface{t, p}))
}

// Detach returns v boxed on its own — the runtime's box of a copy, which
// points into no mirror (a string's bytes are shared, as by any copy) —
// for a value the engine keeps past its batch by design (a group's key),
// so that it pins no column storage. Small ints and bools cost nothing:
// the runtime boxes them statically.
func Detach(v any) any {
	switch x := v.(type) {
	case int:
		return x
	case int32:
		return x
	case int64:
		return x
	case uint64:
		return x
	case float64:
		return x
	case bool:
		return x
	case string:
		return x
	}
	return v
}

// copyBox boxes the mirror value at storage position pos onto the heap:
// the runtime's own box, for the kinds that cannot box in place.
func (c *Col) copyBox(pos int) any {
	switch c.Kind {
	case Int:
		return int(c.I64[pos])
	case Int32:
		return int32(c.I64[pos])
	case Int64:
		return c.I64[pos]
	case Uint64:
		return uint64(c.I64[pos])
	case Float64:
		return c.F64[pos]
	case Bool:
		return c.B[pos]
	case String:
		return c.Str[pos]
	}
	return nil
}

// u64s views an I64 mirror as the uint64 bit patterns a Uint64 column
// stores in it, so the ordered predicate kernel compares them unsigned
// in place. It aliases the mirror and is only read.
func u64s(s []int64) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}
