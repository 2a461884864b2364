// Package vec is the engine's columnar batch representation: typed
// column vectors with null bitmaps and per-column selection vectors.
// A Batch is the hot-path currency of internal/exec — scans carve
// column windows from columnized tables, filters shrink selection
// vectors, and the join kernels hash whole columns and emit matches as
// selections.
//
// Layout invariants:
//
//   - A column has a Box if and only if it is Any. A typed column (Kind
//     != Any) is its typed mirror (I64/F64/Str/B), with the zero value at
//     null positions, plus an optional packed null bitmap over storage
//     positions — wherever it comes from: FromRows, an Appender or Concat
//     (a join's build store), chunk or spill decoding. Typed kernels read
//     the mirror. An Any column has no mirror and no bitmap: Box[pos]
//     holds the boxed value at storage position pos (nil at SQL-null
//     positions, Absent at ragged-row padding).
//   - Box in place (box.go). A value leaving a typed column — at the Row
//     boundary (AppendRows, ReadRow, Value), or into an Any column's Box
//     (FillBox, an Appender, Concat) — becomes an interface whose data
//     word points at its slot in the column's own mirror: no heap box per
//     value, only the words that hold it. A value leaving an Any column
//     is its Box's word, copied.
//   - Write once. A mirror reachable from a batch handed to any
//     consumer, store or Rows is never written again: decoders, the
//     Appender and Concat fill fresh storage and only ever append, a
//     column that degrades to Any forgets its mirror, and arena carvings
//     are never reused. This is what makes boxing in place sound. Two
//     pieces of private scratch are exempt because nothing is ever boxed
//     from them: the spill Decoder's predicate mirrors and a spill File's
//     write buffer.
//   - Retention follows. A boxed value — a materialized Row, an Any
//     column's Box word, anything read through Value — keeps alive the
//     mirror it points into, i.e. the column storage it came from (a
//     decoded batch, a resident table's columnization, a build store), for
//     as long as it is held.
//   - Columns are windowed exclusively through Idx (logical→storage).
//     Storage slices are never re-sliced: the null bitmap is packed at
//     word granularity over storage positions, so re-slicing storage
//     would break bitmap alignment. Idx == nil means the dense identity
//     window (Len() == N).
package vec

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Row is one boxed tuple, positional, matching exec.Row / spill.Row.
type Row = []any

// Kind is a column's resolved type.
type Kind uint8

// Column kinds. Any is the boxed fallback: mixed types, exotic types,
// or ragged-row padding.
const (
	Any Kind = iota
	Int
	Int32
	Int64
	Uint64
	Float64
	Bool
	String
)

func (k Kind) String() string {
	switch k {
	case Any:
		return "any"
	case Int:
		return "int"
	case Int32:
		return "int32"
	case Int64:
		return "int64"
	case Uint64:
		return "uint64"
	case Float64:
		return "float64"
	case Bool:
		return "bool"
	case String:
		return "string"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IntFamily reports whether k stores its values in the I64 mirror.
func (k Kind) IntFamily() bool {
	return k == Int || k == Int32 || k == Int64 || k == Uint64
}

type absentT struct{}

// Absent pads ragged rows: a row shorter than the batch width stores
// Absent in its missing tail columns. Materialization strips Absent,
// reproducing the original row widths. Absent only ever appears in
// Kind == Any columns.
var Absent any = absentT{}

// IsAbsent reports whether v is the ragged-row padding sentinel.
func IsAbsent(v any) bool {
	_, ok := v.(absentT)
	return ok
}

// KindOf classifies one boxed value. nil and Absent have no kind of
// their own and report Any; callers combining kinds across rows treat
// nil as "does not constrain the column".
func KindOf(v any) Kind {
	switch v.(type) {
	case int:
		return Int
	case int32:
		return Int32
	case int64:
		return Int64
	case uint64:
		return Uint64
	case float64:
		return Float64
	case bool:
		return Bool
	case string:
		return String
	}
	return Any
}

// Col is one column vector.
type Col struct {
	Kind Kind
	// Idx maps logical row i to storage position Idx[i]; nil means the
	// dense identity window over the whole storage (Len() rows).
	Idx []int32
	// Box holds an Any column's values, one per storage position: nil
	// marks SQL null, Absent marks ragged-row padding. A typed column has
	// none — read values through Value, never Box[pos].
	Box []any
	// Typed mirrors, valid per Kind (I64 backs the whole int family,
	// with uint64 values stored as their bit pattern).
	I64 []int64
	F64 []float64
	Str []string
	B   []bool
	// Null is a packed little-endian bitmap over storage positions (bit
	// set = null). nil means no nulls. Only maintained for typed
	// columns; Any columns mark nulls in Box directly.
	Null []uint64
}

// Pos maps logical row i to its storage position.
//
//hierdb:hotpath
func (c *Col) Pos(i int) int {
	if c.Idx == nil {
		return i
	}
	return int(c.Idx[i])
}

// NullAt reports whether storage position pos is null.
//
//hierdb:hotpath
func (c *Col) NullAt(pos int) bool {
	if c.Null == nil {
		return c.Kind == Any && c.Box[pos] == nil
	}
	return c.Null[pos>>6]&(1<<(uint(pos)&63)) != 0
}

// setNull marks storage position pos null in a bitmap sized for n
// storage positions, allocating it on first use.
func (c *Col) setNull(pos, n int) {
	if c.Null == nil {
		c.Null = make([]uint64, (n+63)/64)
	}
	c.Null[pos>>6] |= 1 << (uint(pos) & 63)
}

// Len returns the number of storage positions.
func (c *Col) Len() int {
	switch {
	case c.Kind == Any:
		return len(c.Box)
	case c.Kind.IntFamily():
		return len(c.I64)
	case c.Kind == Float64:
		return len(c.F64)
	case c.Kind == Bool:
		return len(c.B)
	}
	return len(c.Str)
}

// Value returns the boxed value at storage position pos: the Box word of
// an Any column, otherwise boxed in place over the mirror (boxAt) — no
// allocation either way, unless the kind failed box.go's init
// self-check. A value of a typed column keeps the column's mirror alive
// for as long as it is held.
//
//hierdb:hotpath
func (c *Col) Value(pos int) any {
	if c.Kind == Any {
		return c.Box[pos]
	}
	return c.boxAt(pos)
}

// BoxRows boxes the values of logical rows rows into dst[0],
// dst[stride], dst[2*stride]…, through the column's Idx — boxInto's
// exported form, for a caller filling rows column-major (an aggregate's
// or a filter's argument rows): an Any column's Box words, a typed one's
// values boxed in place over the mirror, nil at null bits, Absent where
// a ragged row ends. Nothing is allocated; a value of a typed column
// keeps its mirror alive for as long as it is held.
//
//hierdb:hotpath
func (c *Col) BoxRows(dst []any, stride int, rows []int32) {
	c.boxInto(dst, stride, c.Idx, rows, len(rows))
}

// FillBox turns a typed column into an Any one in place, for a consumer
// that must read it as Any (a typed chunk under an Any schema, a store
// column fed a second kind): every storage position is boxed in place
// into a fresh Box, and the mirror and bitmap are forgotten — the boxes
// keep the mirror alive, and nothing writes a forgotten mirror again. An
// Any column is left as it is.
func (c *Col) FillBox() {
	if c.Kind == Any {
		return
	}
	box := make([]any, c.Len())
	c.boxInto(box, 1, nil, nil, len(box))
	*c = Col{Kind: Any, Idx: c.Idx, Box: box}
}

// Batch is a set of equal-length column vectors. Columns may carry
// different Idx windows over different storage (a join output keeps
// probe columns as a selection over the probe batch and build columns
// as a selection over the join's sealed build store), but all describe
// the same N logical rows.
//
// Write once: once a batch is handed to any consumer, store or Rows, no
// mirror reachable from it is written again — boxes of its values point
// into those mirrors (package comment).
type Batch struct {
	Cols []Col
	N    int
}

// ---------------------------------------------------------------------
// Identity windows
// ---------------------------------------------------------------------

var (
	identMu sync.Mutex
	identP  atomic.Pointer[[]int32]
)

// Ident returns the shared identity table [0,n): Ident(n)[i] == i.
// Slices of earlier, shorter calls remain valid forever — the table
// only grows, and old prefixes alias the same immutable values, so
// scan windows can slice it without copying.
func Ident(n int) []int32 {
	if p := identP.Load(); p != nil && len(*p) >= n {
		return (*p)[:n]
	}
	identMu.Lock()
	defer identMu.Unlock()
	if p := identP.Load(); p != nil && len(*p) >= n {
		return (*p)[:n]
	}
	m := 1024
	for m < n {
		m *= 2
	}
	s := make([]int32, m)
	for i := range s {
		s[i] = int32(i)
	}
	identP.Store(&s)
	return s[:n]
}

// ---------------------------------------------------------------------
// Row → column conversion
// ---------------------------------------------------------------------

// FromRows columnizes boxed rows, detecting one Kind per column: a
// column whose non-null values all share one scalar type gets that
// typed representation (mirror + null bitmap, no Box); mixed or exotic
// columns stay boxed (Any), their Box holding the rows' own words.
// Ragged rows are padded with Absent, which forces the padded columns
// to Any.
func FromRows(rows []Row) *Batch {
	n := len(rows)
	w := 0
	for _, r := range rows {
		if len(r) > w {
			w = len(r)
		}
	}
	b := &Batch{Cols: make([]Col, w), N: n}
	for ci := range b.Cols {
		c := &b.Cols[ci]
		if c.Kind = rowsKind(rows, ci); c.Kind != Any {
			fillMirror(c, rows, ci)
			continue
		}
		c.Box = make([]any, n)
		for ri, r := range rows {
			if ci < len(r) {
				c.Box[ri] = r[ci]
			} else {
				c.Box[ri] = Absent
			}
		}
	}
	return b
}

// rowsKind resolves column ci of rows: the one scalar kind its non-null
// values share, else Any (mixed or exotic values, Absent padding, or no
// value at all).
func rowsKind(rows []Row, ci int) Kind {
	kind := Any
	for _, r := range rows {
		if ci >= len(r) {
			return Any // Absent padding
		}
		if r[ci] == nil {
			continue // null constrains nothing
		}
		k := KindOf(r[ci])
		if k == Any || kind != Any && k != kind {
			return Any
		}
		kind = k
	}
	return kind
}

// fillMirror populates the typed mirror and null bitmap of column ci,
// whose Kind rowsKind resolved, from rows.
func fillMirror(c *Col, rows []Row, ci int) {
	n := len(rows)
	switch c.Kind {
	case Int, Int32, Int64, Uint64:
		c.I64 = make([]int64, n)
		for i, r := range rows {
			switch t := r[ci].(type) {
			case int:
				c.I64[i] = int64(t)
			case int32:
				c.I64[i] = int64(t)
			case int64:
				c.I64[i] = t
			case uint64:
				c.I64[i] = int64(t)
			default: // nil
				c.setNull(i, n)
			}
		}
	case Float64:
		c.F64 = make([]float64, n)
		for i, r := range rows {
			if t, ok := r[ci].(float64); ok {
				c.F64[i] = t
			} else {
				c.setNull(i, n)
			}
		}
	case Bool:
		c.B = make([]bool, n)
		for i, r := range rows {
			if t, ok := r[ci].(bool); ok {
				c.B[i] = t
			} else {
				c.setNull(i, n)
			}
		}
	case String:
		c.Str = make([]string, n)
		for i, r := range rows {
			if t, ok := r[ci].(string); ok {
				c.Str[i] = t
			} else {
				c.setNull(i, n)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Column → row materialization (the one sanctioned vec→Row boundary)
// ---------------------------------------------------------------------

// AppendRows materializes the batch's logical rows onto dst, carving
// row storage from a (never reused, so callers may retain the rows;
// a retained row keeps the batch's column storage alive). Absent
// padding is stripped, reproducing original ragged widths.
//
//hierdb:hotpath
func (b *Batch) AppendRows(dst []Row, a *Arena) []Row {
	w := len(b.Cols)
	if w == 0 {
		for range b.N {
			dst = append(dst, Row{})
		}
		return dst
	}
	if b.N == 0 {
		return dst
	}
	// One flat carve for the whole batch, filled column-major: each
	// column's storage is streamed once instead of strided per row, and
	// the per-row carve bookkeeping disappears.
	flat := a.Anys(b.N * w)
	for ci := range b.Cols {
		c := &b.Cols[ci]
		c.boxInto(flat[ci:], w, c.Idx, nil, b.N)
	}
	for i := 0; i < b.N; i++ {
		row := flat[i*w : (i+1)*w : (i+1)*w]
		// Ragged rows carry tail-only Absent padding: trim from the end.
		end := w
		for end > 0 && IsAbsent(row[end-1]) {
			end--
		}
		dst = append(dst, row[:end:end])
	}
	return dst
}

// ReadRow materializes logical row i into scratch, value by value, for
// a caller that needs one row transiently; the returned slice aliases
// scratch. A caller reading many rows of a batch boxes them a column at
// a time with AppendRows instead.
//
//hierdb:hotpath
func (b *Batch) ReadRow(i int, scratch Row) Row {
	row := scratch[:0]
	for ci := range b.Cols {
		c := &b.Cols[ci]
		v := c.Value(c.Pos(i))
		if IsAbsent(v) {
			break
		}
		row = append(row, v)
	}
	return row
}

// ---------------------------------------------------------------------
// Selection
// ---------------------------------------------------------------------

// Select returns a view of b restricted to the given logical rows,
// composing selection vectors without touching storage. Columns that
// share an Idx slice share the composed result. Index storage is
// carved from a.
//
//hierdb:hotpath
func Select(b *Batch, sel []int32, a *Arena) *Batch {
	out := &Batch{Cols: make([]Col, len(b.Cols)), N: len(sel)}
	Compose(out.Cols, b, sel, a)
	return out
}

// Compose writes b's columns restricted to the logical rows sel into
// dst[:len(b.Cols)] — Select for a caller that owns the output columns
// (a join output lays its probe half out this way). Each distinct index
// window is composed once, into storage carved from a.
//
//hierdb:hotpath
func Compose(dst []Col, b *Batch, sel []int32, a *Arena) {
	for ci := range b.Cols {
		c := &b.Cols[ci]
		dst[ci] = *c
		var composed []int32
		// Neighbours usually share a window: search backwards.
		for cj := ci - 1; cj >= 0 && composed == nil; cj-- {
			if sameIdx(b.Cols[cj].Idx, c.Idx) {
				composed = dst[cj].Idx
			}
		}
		if composed == nil {
			composed = a.I32(len(sel))
			if c.Idx == nil {
				copy(composed, sel)
			} else {
				for j, li := range sel {
					composed[j] = c.Idx[li]
				}
			}
		}
		dst[ci].Idx = composed
	}
}

// sameIdx reports whether two index slices are the identical window
// (same backing array, offset and length — or both dense).
//
//hierdb:hotpath
func sameIdx(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return (a == nil) == (b == nil)
	}
	return &a[0] == &b[0]
}

// ---------------------------------------------------------------------
// Appender
// ---------------------------------------------------------------------

// Appender accumulates rows from batches into one growing dense
// columnar store — one worker's part of a hash-join build side. A store
// column is what any column is (package comment): a typed one its mirror
// and null bitmap, into which values are copied; an Any one its Box, into
// which a boxed source's words are copied and a typed source's values
// boxed in place over the source's mirror (which the store therefore
// keeps alive). The store's schema adapts: a column fed two different
// kinds, or ragged widths, degrades to Any, boxing its mirror in place
// once (FillBox) — except that an all-null Any source column (what the
// spill codec makes of a batch column without a value) lands in a typed
// column as nulls.
type Appender struct {
	cols []Col
	// shaped counts the leading columns whose kind NewAppender fixed; a
	// later column adopts the kind it arrives with in the first batch.
	shaped int
	n      int
}

// NewAppender returns an appender pre-shaped for the given column
// kinds (nil means the schema is discovered from appended batches)
// with capacity — typed mirror, or Box for an Any column — for hint
// rows.
func NewAppender(kinds []Kind, hint int) *Appender {
	ap := &Appender{shaped: len(kinds)}
	if kinds != nil {
		ap.cols = make([]Col, len(kinds))
		for i, k := range kinds {
			c := &ap.cols[i]
			c.Kind = k
			switch {
			case k == Any:
				c.Box = make([]any, 0, hint)
			case k.IntFamily():
				c.I64 = make([]int64, 0, hint)
			case k == Float64:
				c.F64 = make([]float64, 0, hint)
			case k == Bool:
				c.B = make([]bool, 0, hint)
			case k == String:
				c.Str = make([]string, 0, hint)
			}
		}
	}
	return ap
}

// Len returns the number of rows appended so far.
func (ap *Appender) Len() int { return ap.n }

// AppendBatch appends every logical row of b.
func (ap *Appender) AppendBatch(b *Batch) {
	ap.AppendRowsSel(b, nil)
}

// AppendRowsSel appends the logical rows of b listed in sel (nil means
// all rows) to the store.
//
//hierdb:hotpath
func (ap *Appender) AppendRowsSel(b *Batch, sel []int32) {
	k := b.N
	if sel != nil {
		k = len(sel)
	}
	if k == 0 {
		return
	}
	ap.widen(len(b.Cols))
	for ci := range ap.cols {
		dst := &ap.cols[ci]
		if ci >= len(b.Cols) {
			ap.padAbsent(dst, k)
			continue
		}
		src := &b.Cols[ci]
		ap.appendCol(dst, ci, src, sel, k)
	}
	ap.n += k
}

// widen grows the store to w columns. A column opened before any rows
// landed adopts the first batch's kind (appendCol); one opened later is
// backfilled with Absent for the rows already appended and stays Any.
func (ap *Appender) widen(w int) {
	for len(ap.cols) < w {
		c := Col{Kind: Any}
		if ap.n > 0 {
			c.Box = make([]any, ap.n, ap.n+256)
			for i := range c.Box {
				c.Box[i] = Absent
			}
		}
		ap.cols = append(ap.cols, c)
	}
}

// padAbsent appends k Absent values to a column the incoming batch
// does not cover (incoming rows narrower than the store).
func (ap *Appender) padAbsent(dst *Col, k int) {
	ap.degrade(dst)
	for j := 0; j < k; j++ {
		dst.Box = append(dst.Box, Absent)
	}
}

//hierdb:hotpath
func (ap *Appender) appendCol(dst *Col, ci int, src *Col, sel []int32, k int) {
	if ci >= ap.shaped && ap.n == 0 {
		dst.Kind = src.Kind
	} else if dst.Kind != src.Kind {
		if src.Kind == Any && allNull(src, sel, k) {
			appendNulls(dst, ap.n, k)
			return
		}
		ap.degrade(dst)
	}
	switch {
	case dst.Kind == Any:
		at := len(dst.Box)
		dst.Box = append(dst.Box, make([]any, k)...)
		src.boxInto(dst.Box[at:], 1, src.Idx, sel, k)
		return
	case dst.Kind.IntFamily():
		dst.I64 = appendSlots(dst.I64, src.I64, src.Idx, sel, k)
	case dst.Kind == Float64:
		dst.F64 = appendSlots(dst.F64, src.F64, src.Idx, sel, k)
	case dst.Kind == Bool:
		dst.B = appendSlots(dst.B, src.B, src.Idx, sel, k)
	default:
		dst.Str = appendSlots(dst.Str, src.Str, src.Idx, sel, k)
	}
	if null := src.Null; null != nil {
		for j := range k {
			if pos := posOf(src.Idx, sel, j); null[pos>>6]&(1<<(uint(pos)&63)) != 0 {
				setNullGrow(dst, ap.n+j)
			}
		}
	}
}

// degrade turns a store column Any (FillBox), its lazily grown bitmap
// first padded to the rows stored.
func (ap *Appender) degrade(dst *Col) {
	padNulls(dst, ap.n)
	dst.FillBox()
}

// appendSlots appends the k values src[idx[sel[j]]] (a nil sel or idx is
// the identity) to dst.
//
//hierdb:hotpath
func appendSlots[T any](dst, src []T, idx, sel []int32, k int) []T {
	at := len(dst)
	dst = slices.Grow(dst, k)[:at+k]
	out := dst[at:]
	switch {
	case sel == nil && idx == nil:
		copy(out, src[:k])
	case sel == nil:
		for j, pos := range idx[:k] {
			out[j] = src[pos]
		}
	case idx == nil:
		for j, pos := range sel[:k] {
			out[j] = src[pos]
		}
	default:
		for j, li := range sel[:k] {
			out[j] = src[idx[li]]
		}
	}
	return dst
}

// allNull reports whether the k selected rows of the Any column src (sel
// nil = all) are SQL nulls, every one.
func allNull(src *Col, sel []int32, k int) bool {
	for j := 0; j < k; j++ {
		if src.Box[posOf(src.Idx, sel, j)] != nil {
			return false
		}
	}
	return true
}

// appendNulls appends k nulls to the typed column dst, which holds at
// rows: zero values in the mirror, their bits set.
func appendNulls(dst *Col, at, k int) {
	switch {
	case dst.Kind.IntFamily():
		dst.I64 = append(dst.I64, make([]int64, k)...)
	case dst.Kind == Float64:
		dst.F64 = append(dst.F64, make([]float64, k)...)
	case dst.Kind == Bool:
		dst.B = append(dst.B, make([]bool, k)...)
	default:
		dst.Str = append(dst.Str, make([]string, k)...)
	}
	for j := range k {
		setNullGrow(dst, at+j)
	}
}

// setNullGrow marks storage position pos null, growing the bitmap as
// needed (the appender's store grows incrementally, unlike fixed-size
// batch columns).
func setNullGrow(c *Col, pos int) {
	for len(c.Null) <= pos>>6 {
		c.Null = append(c.Null, 0)
	}
	c.Null[pos>>6] |= 1 << (uint(pos) & 63)
}

// padNulls pads a lazily grown bitmap, if c has one, to cover n storage
// positions.
func padNulls(c *Col, n int) {
	for c.Null != nil && len(c.Null) < (n+63)/64 {
		c.Null = append(c.Null, 0)
	}
}

// Batch seals the appended rows as one dense batch. The appender must
// not be appended to afterwards (the batch aliases its storage).
func (ap *Appender) Batch() *Batch {
	b := &Batch{Cols: make([]Col, len(ap.cols)), N: ap.n}
	copy(b.Cols, ap.cols)
	for ci := range b.Cols {
		padNulls(&b.Cols[ci], ap.n)
	}
	return b
}

// Concat seals the rows accumulated by several appenders into one dense
// batch, part after part: row r of parts[p] lands at storage position
// base+r, base being the rows of the parts before it. The result is the
// batch one Appender fed the same rows in the same order would hold — a
// column stays typed (mirror and bitmap) only while every non-empty part
// agrees on its kind, else it is Any (a Box of every part's values,
// boxed in place over a typed part's mirror), and a part narrower than
// the widest pads its missing tail with Absent — but its columns are
// allocated at their exact size and filled column-major, and each
// part's copy of a column is dropped as soon as it has been copied, so
// the rows are never held twice. A single non-empty part is aliased
// instead (as by Batch); a nil part is an empty one. Concat consumes the
// parts: none may be appended to or read afterwards.
func Concat(parts []*Appender) *Batch {
	var only *Appender
	n, w, live := 0, 0, 0
	for _, ap := range parts {
		if ap == nil || ap.n == 0 {
			continue
		}
		only = ap
		live++
		n += ap.n
		w = max(w, len(ap.cols))
	}
	switch live {
	case 0:
		return &Batch{}
	case 1:
		return only.Batch()
	}
	out := &Batch{Cols: make([]Col, w), N: n}
	for ci := range out.Cols {
		concatCol(&out.Cols[ci], parts, ci, n)
	}
	return out
}

// concatCol fills dst, column ci of Concat's n-row result, from the
// parts and releases their copies of it.
//
//hierdb:hotpath
func concatCol(dst *Col, parts []*Appender, ci, n int) {
	first := true
	for _, ap := range parts {
		if ap == nil || ap.n == 0 {
			continue
		}
		k := Any // a part too narrow for the column pads it with Absent
		if ci < len(ap.cols) {
			k = ap.cols[ci].Kind
		}
		if first {
			dst.Kind, first = k, false
		} else if k != dst.Kind {
			dst.Kind = Any
		}
	}
	if dst.Kind == Any {
		dst.Box = make([]any, n)
	}
	base := 0
	for _, ap := range parts {
		if ap == nil || ap.n == 0 {
			continue
		}
		if ci >= len(ap.cols) {
			pad := dst.Box[base : base+ap.n]
			for i := range pad {
				pad[i] = Absent
			}
			base += ap.n
			continue
		}
		src := &ap.cols[ci]
		switch {
		case dst.Kind == Any:
			padNulls(src, ap.n)
			src.boxInto(dst.Box[base:], 1, nil, nil, ap.n)
		case dst.Kind.IntFamily():
			dst.I64 = place(dst.I64, src.I64, base, n)
		case dst.Kind == Float64:
			dst.F64 = place(dst.F64, src.F64, base, n)
		case dst.Kind == Bool:
			dst.B = place(dst.B, src.B, base, n)
		default:
			dst.Str = place(dst.Str, src.Str, base, n)
		}
		if dst.Kind != Any && src.Null != nil {
			if dst.Null == nil {
				dst.Null = make([]uint64, (n+63)/64)
			}
			orNulls(dst.Null, src.Null, base)
		}
		*src = Col{}
		base += ap.n
	}
}

// place copies a part's mirror src to position base of the n-element
// mirror dst, allocating dst on the first part.
//
//hierdb:hotpath
func place[T any](dst, src []T, base, n int) []T {
	if dst == nil {
		dst = make([]T, n)
	}
	copy(dst[base:], src)
	return dst
}

// orNulls ORs the bitmap src into dst shifted up by base bits — a part's
// null bits re-based to its rows' place in the concatenation, which in
// general is not word-aligned. src has no bit set past its part's rows,
// so nothing lands beyond dst.
//
//hierdb:hotpath
func orNulls(dst, src []uint64, base int) {
	sh := uint(base) & 63
	for wi, v := range src {
		if v == 0 {
			continue
		}
		at := base>>6 + wi
		dst[at] |= v << sh
		if hi := v >> (64 - sh); hi != 0 { // sh == 0 shifts everything out
			dst[at+1] |= hi
		}
	}
}
