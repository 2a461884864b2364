// Package vec is the engine's columnar batch representation: typed
// column vectors with null bitmaps and per-column selection vectors.
// A Batch is the hot-path currency of internal/exec — scans carve
// column windows from columnized tables, filters shrink selection
// vectors, and the join kernels hash whole columns and emit matches as
// selections.
//
// Layout invariants:
//
//   - A typed column (Kind != Any) carries a typed mirror (I64/F64/Str/B)
//     with the zero value at null positions, and an optional packed null
//     bitmap over storage positions. Typed kernels read the mirror.
//   - Box is present or derivable. When present, Box[pos] holds the
//     boxed value at storage position pos (nil at SQL-null positions,
//     Absent at ragged-row padding) and agrees with the mirror. A typed
//     column may instead be boxless (Box == nil): chunk and spill
//     decoding produce only the mirror, and Value/ReadRow/AppendRows
//     derive the boxed value from it on demand. An Any column has no
//     mirror, so it always has its Box.
//   - Box in place (box.go). Resident tables (FromRows) keep the Box
//     their rows arrived with, and materializing from it copies
//     interface words. A value leaving a boxless column — at the Row
//     boundary (AppendRows, ReadRow, Value), or into an Appender's Box
//     (a join's build store) — becomes an interface whose data word
//     points at its slot in the column's own mirror: no heap box per
//     value, only the words that hold it.
//   - Write once. A mirror reachable from a batch handed to any
//     consumer, store or Rows is never written again: decoders, the
//     Appender and Concat fill fresh storage and only ever append, and
//     arena carvings are never reused. This is what makes boxing in
//     place sound. Two pieces of private scratch are exempt because
//     nothing is ever boxed from them: the spill Decoder's predicate
//     mirrors and a spill File's write buffer.
//   - Retention follows. A boxed value — a materialized Row, a build
//     store's Box word, anything read through Value — keeps alive the
//     mirror it points into, i.e. the column storage of the batch it
//     came from, for as long as it is held.
//   - Columns are windowed exclusively through Idx (logical→storage).
//     Storage slices are never re-sliced: the null bitmap is packed at
//     word granularity over storage positions, so re-slicing storage
//     would break bitmap alignment. Idx == nil means the dense identity
//     window (Len() == N).
package vec

import (
	"fmt"
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
	// Box holds the boxed values, one per storage position: nil marks
	// SQL null, Absent marks ragged-row padding. A typed column may leave
	// it nil (boxless) — read values through Value, never Box[pos].
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
	case c.Box != nil:
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

// Value returns the boxed value at storage position pos: the Box word
// when the column has one, otherwise boxed in place over the mirror
// (boxAt) — no allocation either way, unless the kind failed box.go's
// init self-check. A value of a boxless column keeps the column's mirror
// alive for as long as it is held.
//
//hierdb:hotpath
func (c *Col) Value(pos int) any {
	if c.Box != nil {
		return c.Box[pos]
	}
	return c.boxAt(pos)
}

// boxInto boxes k values of a boxless column into dst[0], dst[stride],
// dst[2*stride]...: value j is the one at storage position idx[sel[j]],
// where a nil sel or idx is the identity.
//
//hierdb:hotpath
func (c *Col) boxInto(dst []any, stride int, idx, sel []int32, k int) {
	for j := 0; j < k; j++ {
		pos := j
		if sel != nil {
			pos = int(sel[j])
		}
		if idx != nil {
			pos = int(idx[pos])
		}
		dst[j*stride] = c.boxAt(pos)
	}
}

// FillBox gives a boxless column its Box, boxing every storage
// position in place — for consumers that read the column as Any (a
// typed chunk under an Any schema). The Box keeps the mirror alive even
// if the column forgets it.
func (c *Col) FillBox() {
	if c.Box != nil {
		return
	}
	n := c.Len()
	c.Box = make([]any, n)
	c.boxInto(c.Box, 1, nil, nil, n)
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
// typed representation (mirror + null bitmap); mixed or exotic columns
// stay boxed (Any). Ragged rows are padded with Absent, which forces
// the padded columns to Any.
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
		c.Box = make([]any, n)
		kind, resolved := Any, false
		for ri, r := range rows {
			var v any
			if ci < len(r) {
				v = r[ci]
			} else {
				v = Absent
			}
			c.Box[ri] = v
			if resolved && kind == Any {
				continue
			}
			if v == nil {
				continue // null constrains nothing
			}
			k := KindOf(v)
			if !resolved {
				kind, resolved = k, true
			} else if k != kind {
				kind = Any
			}
			if k == Any {
				kind = Any // Absent padding and exotic types stay boxed
			}
		}
		c.Kind = kind
		if kind != Any {
			fillMirror(c)
		}
	}
	return b
}

// fillMirror populates the typed mirror and null bitmap of a column
// whose Kind has been resolved, from its Box values.
func fillMirror(c *Col) {
	n := len(c.Box)
	switch c.Kind {
	case Int, Int32, Int64, Uint64:
		c.I64 = make([]int64, n)
		for i, v := range c.Box {
			switch t := v.(type) {
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
		for i, v := range c.Box {
			if t, ok := v.(float64); ok {
				c.F64[i] = t
			} else {
				c.setNull(i, n)
			}
		}
	case Bool:
		c.B = make([]bool, n)
		for i, v := range c.Box {
			if t, ok := v.(bool); ok {
				c.B[i] = t
			} else {
				c.setNull(i, n)
			}
		}
	case String:
		c.Str = make([]string, n)
		for i, v := range c.Box {
			if t, ok := v.(string); ok {
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
	if b.N == 0 || w == 0 {
		return dst
	}
	// One flat carve for the whole batch, filled column-major: each
	// column's storage is streamed once instead of strided per row, and
	// the per-row carve bookkeeping disappears.
	flat := a.Anys(b.N * w)
	for ci := range b.Cols {
		c := &b.Cols[ci]
		box := c.Box
		if box == nil {
			c.boxInto(flat[ci:], w, c.Idx, nil, b.N)
		} else if c.Idx == nil {
			for i := 0; i < b.N; i++ {
				flat[i*w+ci] = box[i]
			}
		} else {
			idx := c.Idx
			for i := 0; i < b.N; i++ {
				flat[i*w+ci] = box[idx[i]]
			}
		}
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

// ReadRow materializes logical row i into scratch (reused by callers
// that only need the row transiently: filters, key extraction,
// aggregate arguments). The returned slice aliases scratch.
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
// columnar store — the build side of a hash-join stripe. The store
// always keeps its Box: values from a boxed source are copied words, a
// boxless source's are boxed in place over the source's mirror (which
// the store therefore keeps alive), so every later match selects a
// stored word. The store's schema adapts: a column fed two
// different kinds, or ragged widths, degrades to Any (the store's Box
// is complete, so degrading is O(1) and never re-boxes) — except that an
// all-null Any source column (what the spill codec makes of a batch
// column without a value) lands in a typed column as nulls.
type Appender struct {
	cols []Col
	// shaped counts the leading columns whose kind NewAppender fixed; a
	// later column adopts the kind it arrives with in the first batch.
	shaped int
	n      int
}

// NewAppender returns an appender pre-shaped for the given column
// kinds (nil means the schema is discovered from appended batches)
// with capacity — Box and typed mirror — for hint rows.
func NewAppender(kinds []Kind, hint int) *Appender {
	ap := &Appender{shaped: len(kinds)}
	if kinds != nil {
		ap.cols = make([]Col, len(kinds))
		for i, k := range kinds {
			c := &ap.cols[i]
			c.Kind, c.Box = k, make([]any, 0, hint)
			switch {
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

// widen grows the store to w columns, backfilling new columns with
// Absent for the rows already appended.
func (ap *Appender) widen(w int) {
	for len(ap.cols) < w {
		c := Col{Kind: Any, Box: make([]any, ap.n, ap.n+256)}
		for i := range c.Box {
			c.Box[i] = Absent
		}
		// A column backfilled with Absent is permanently Any; a column
		// opened before any rows landed adopts the first batch's kind.
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

// degrade drops a column to the boxed Any representation. The store's
// Box is complete, so this only folds the null bitmap away and forgets
// the mirror.
func (ap *Appender) degrade(dst *Col) {
	if dst.Kind == Any {
		return
	}
	dst.Kind = Any
	dst.I64, dst.F64, dst.Str, dst.B, dst.Null = nil, nil, nil, nil, nil
}

//hierdb:hotpath
func (ap *Appender) appendCol(dst *Col, ci int, src *Col, sel []int32, k int) {
	if ci >= ap.shaped && ap.n == 0 {
		dst.Kind = src.Kind
	} else if dst.Kind != src.Kind {
		if src.Kind == Any && allNull(src, sel, k) {
			dst.Box = append(dst.Box, make([]any, k)...)
			for j := 0; j < k; j++ {
				appendOne(dst, &nullSrc, 0)
			}
			return
		}
		ap.degrade(dst)
	}
	// Box always fills: boxed in place over a boxless source's mirror,
	// copied words otherwise.
	if src.Box == nil {
		at := len(dst.Box)
		dst.Box = append(dst.Box, make([]any, k)...)
		src.boxInto(dst.Box[at:], 1, src.Idx, sel, k)
	} else if sel == nil && src.Idx == nil {
		dst.Box = append(dst.Box, src.Box...)
	} else if sel == nil {
		for _, pos := range src.Idx {
			dst.Box = append(dst.Box, src.Box[pos])
		}
	} else {
		for _, li := range sel {
			dst.Box = append(dst.Box, src.Box[src.Pos(int(li))])
		}
	}
	if dst.Kind == Any {
		return
	}
	// Mirror and nulls for the still-typed column.
	if sel == nil && src.Idx == nil {
		for pos := 0; pos < k; pos++ {
			appendOne(dst, src, pos)
		}
	} else if sel == nil {
		for _, pos := range src.Idx {
			appendOne(dst, src, int(pos))
		}
	} else {
		for _, li := range sel {
			appendOne(dst, src, src.Pos(int(li)))
		}
	}
}

// allNull reports whether the k selected rows of the Any column src (sel
// nil = all) are SQL nulls, every one.
func allNull(src *Col, sel []int32, k int) bool {
	for j := 0; j < k; j++ {
		li := j
		if sel != nil {
			li = int(sel[j])
		}
		if src.Box[src.Pos(li)] != nil {
			return false
		}
	}
	return true
}

// nullSrc is a one-row source column of every typed kind whose row is
// null: appendOne(dst, &nullSrc, 0) appends a null to any typed dst.
var nullSrc = Col{I64: []int64{0}, F64: []float64{0}, Str: []string{""}, B: []bool{false}, Null: []uint64{1}}

// appendOne appends the typed mirror value (and null bit) at source
// storage position pos to dst, which is known to share src's kind.
//
//hierdb:hotpath
func appendOne(dst, src *Col, pos int) {
	var p int
	switch dst.Kind {
	case Int, Int32, Int64, Uint64:
		p = len(dst.I64)
		dst.I64 = append(dst.I64, src.I64[pos])
	case Float64:
		p = len(dst.F64)
		dst.F64 = append(dst.F64, src.F64[pos])
	case Bool:
		p = len(dst.B)
		dst.B = append(dst.B, src.B[pos])
	case String:
		p = len(dst.Str)
		dst.Str = append(dst.Str, src.Str[pos])
	}
	if src.NullAt(pos) {
		setNullGrow(dst, p)
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

// Batch seals the appended rows as one dense batch. The appender must
// not be appended to afterwards (the batch aliases its storage).
func (ap *Appender) Batch() *Batch {
	b := &Batch{Cols: make([]Col, len(ap.cols)), N: ap.n}
	copy(b.Cols, ap.cols)
	for ci := range b.Cols {
		c := &b.Cols[ci]
		if c.Null != nil {
			// Bitmaps grow lazily; pad to full words for the final size.
			want := (len(c.Box) + 63) / 64
			for len(c.Null) < want {
				c.Null = append(c.Null, 0)
			}
		}
	}
	return b
}

// Concat seals the rows accumulated by several appenders into one dense
// batch, part after part: row r of parts[p] lands at storage position
// base+r, base being the rows of the parts before it. The result is the
// batch one Appender fed the same rows in the same order would hold —
// every column keeps its Box, a column stays typed only while every
// non-empty part agrees on its kind, and a part narrower than the widest
// pads its missing tail with Absent — but its columns are allocated at
// their exact size and filled column-major, and each part's copy of a
// column is dropped as soon as it has been copied, so the rows are never
// held twice. A single non-empty part is aliased instead (as by Batch);
// a nil part is an empty one. Concat consumes the parts: none may be
// appended to or read afterwards.
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
	dst.Box = make([]any, n)
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
		copy(dst.Box[base:], src.Box)
		switch {
		case dst.Kind == Any:
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
