// Box in place: the engine's one boxing boundary, allocation-free. A
// typed column has no Box (package comment), so a value leaving it
// becomes an interface whose type word is its kind's Go type and whose
// data word points at the value's own slot in the column's typed mirror
// — I64[pos], F64[pos], Str[pos] or B[pos].
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
// of unsafe: boxing in place — one value (boxAt) or many, a column at a
// time (boxInto, the boxing kernel every materialization runs) — and
// u64s, the uint64 view of an I64 mirror that the predicate kernel
// compares through.
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

// boxAt returns the boxed value at storage position pos of a typed
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

// boxInto is the column-to-row boxing kernel, the one loop every
// materialization of many values runs (AppendRows, FillBox, an
// Appender's Box, BoxRows): it writes k values to dst[0], dst[stride],
// dst[2*stride]…, value j being the one at storage position idx[sel[j]]
// — a nil sel or idx is the identity. An Any column copies its Box's
// words; a typed one is boxed in place over its mirror, nil at its
// null bits. Whether the column is Any, its type word, its mirror,
// the index shape and the null bitmap are resolved once per call; what
// is left per value is one position load and one interface store, and
// a null bitmap costs one pass over the k values afterwards. Nothing is
// allocated. A kind that failed its init self-check boxes by copy,
// value by value.
//
//hierdb:hotpath
func (c *Col) boxInto(dst []any, stride int, idx, sel []int32, k int) {
	t := typeWords[c.Kind]
	switch {
	case c.Kind == Any:
		if idx == nil && sel == nil && stride == 1 {
			copy(dst[:k], c.Box[:k])
			return
		}
		copyWords(dst, stride, c.Box, idx, sel, k)
		return
	case t == nil:
		for j := range k {
			dst[j*stride] = c.boxAt(posOf(idx, sel, j))
		}
		return
	case c.Kind.IntFamily():
		boxSlots(dst, stride, t, c.I64, idx, sel, k)
	case c.Kind == Float64:
		boxSlots(dst, stride, t, c.F64, idx, sel, k)
	case c.Kind == Bool:
		boxSlots(dst, stride, t, c.B, idx, sel, k)
	default:
		boxSlots(dst, stride, t, c.Str, idx, sel, k)
	}
	if null := c.Null; null != nil {
		for j := range k {
			if pos := posOf(idx, sel, j); null[pos>>6]&(1<<(uint(pos)&63)) != 0 {
				dst[j*stride] = nil
			}
		}
	}
}

// copyWords is boxInto's loop over a Box, one per index shape:
// dst[j*stride] gets the word pair stored for value j.
//
//hierdb:hotpath
func copyWords(dst []any, stride int, box []any, idx, sel []int32, k int) {
	switch {
	case sel == nil && idx == nil:
		for j, v := range box[:k] {
			dst[j*stride] = v
		}
	case sel == nil:
		for j, pos := range idx[:k] {
			dst[j*stride] = box[pos]
		}
	case idx == nil:
		for j, pos := range sel[:k] {
			dst[j*stride] = box[pos]
		}
	default:
		for j, li := range sel[:k] {
			dst[j*stride] = box[idx[li]]
		}
	}
}

// boxSlots is boxInto's loop over a typed mirror, one per index shape:
// dst[j*stride] gets the in-place box of type word t over value j's slot
// in data.
//
//hierdb:hotpath
func boxSlots[T int64 | float64 | string | bool](dst []any, stride int, t unsafe.Pointer, data []T, idx, sel []int32, k int) {
	switch {
	case sel == nil && idx == nil:
		for j := range data[:k] {
			setSlot(&dst[j*stride], t, unsafe.Pointer(&data[j]))
		}
	case sel == nil:
		for j, pos := range idx[:k] {
			setSlot(&dst[j*stride], t, unsafe.Pointer(&data[pos]))
		}
	case idx == nil:
		for j, pos := range sel[:k] {
			setSlot(&dst[j*stride], t, unsafe.Pointer(&data[pos]))
		}
	default:
		for j, li := range sel[:k] {
			setSlot(&dst[j*stride], t, unsafe.Pointer(&data[idx[li]]))
		}
	}
}

// setSlot stores the interface of type word t whose data word is p into
// *d, word by word: both words are pointers to the compiler, so a store
// into the heap keeps its write barriers, and no interface is built on
// the stack first.
//
//hierdb:hotpath
func setSlot(d *any, t, p unsafe.Pointer) {
	*(*eface)(unsafe.Pointer(d)) = eface{t, p}
}

// posOf is the storage position of value j of boxInto's call.
//
//hierdb:hotpath
func posOf(idx, sel []int32, j int) int {
	if sel != nil {
		j = int(sel[j])
	}
	if idx != nil {
		j = int(idx[j])
	}
	return j
}

// boxIn returns the interface of type word t over the mirror slot of
// storage position pos.
//
//hierdb:hotpath
func (c *Col) boxIn(t unsafe.Pointer, pos int) (v any) {
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
	setSlot(&v, t, p)
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
