// Columnar batch codec: the encoding of every spilled batch and, through
// internal/store, of every table-file chunk. It spends one kind byte
// per column per batch — a typed column's values are encoded back to
// back with no per-value framing beyond the varint payloads themselves,
// and nulls are hoisted into one packed bitmap per column; only Any
// columns tag each value.
//
// Per-batch layout:
//
//	uvarint nrows, uvarint ncols
//	per column:
//	  kind byte (vec.Kind numeric value — part of the on-disk format)
//	  null byte (0/1); if 1, packed little-endian bitmap of ceil(n/8)
//	    bytes over logical row order
//	  payload, non-null rows only, in logical order:
//	    int family  varint     (uint64 as uvarint of the bit pattern)
//	    float64     8 bytes LE
//	    bool        packed bitmap, ceil(count/8) bytes
//	    string      uvarint length + bytes
//	    any         one value tag (below) + payload per value
//
// Decoding goes through one Decoder. Under a predicate set it works on
// the compact form for as long as it can: the columns up to the last
// predicate column are walked in file order — a predicate column is
// decoded into a scratch mirror the Decoder reuses from batch to batch
// and vec.ApplyPred narrows the selection on it, any other column is
// only skip-walked (terminator bytes for varints, length hops for
// strings, arithmetic for floats and bools) — and a selection that
// empties stops the decode on the spot. What survives is then
// materialized column by column at the selected rows only, into storage
// the returned batch owns. No predicates is the sel == nil case of the
// same walk: every column decodes densely, straight into the batch.
package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"
	"sync"

	"hierdb/internal/vec"
)

// Value type tags of an Any column's payload. The tag order is part of
// the on-disk format.
const (
	tagNil = iota
	tagFalse
	tagTrue
	tagInt
	tagInt32
	tagInt64
	tagUint64
	tagFloat64
	tagString
)

// EncodeCols appends the columnar encoding of one batch (logical rows,
// honoring each column's selection vector) to buf and returns the
// extended slice. It is the byte-level half of a File write, exported
// so other on-disk formats (internal/store's table files) can embed the
// identical chunk encoding without going through a spill File.
func EncodeCols(buf []byte, b *vec.Batch) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(b.N))
	buf = binary.AppendUvarint(buf, uint64(len(b.Cols)))
	var err error
	for ci := range b.Cols {
		if buf, err = appendCol(buf, &b.Cols[ci], b.N); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// DecodeCols decodes one EncodeCols-encoded batch of the given row
// count into a dense columnar batch — Decoder.Decode without predicates.
// The byte-level half of ReadCols, exported for the same reason as
// EncodeCols. Trailing bytes after the batch are an error — a chunk
// boundary is exact.
func DecodeCols(buf []byte, rows int) (*vec.Batch, error) {
	return (*Decoder)(nil).Decode(buf, rows, nil)
}

// Decoder decodes batches under predicates and keeps, between batches,
// the scratch that work needs, so one Decoder per scanning worker makes
// a filtered chunk scan allocate only what it returns. The zero value is
// ready; a nil *Decoder serves predicate-less decodes, which need no
// scratch. Not safe for concurrent use.
type Decoder struct {
	cols   []scratchCol // mirrors of the predicate columns, by column index
	sel    []int32      // rows still selected in the batch being decoded
	starts []int        // byte offset of each column up to the last predicate column, -1 = in cols
	null   []uint64     // source null bitmap of the column being decoded at sel
	spans  []int        // string kernel: (offset, length) per selected value
}

// scratchCol is one reusable full-width column. null keeps the bitmap's
// storage across batches whose column has no nulls (col.Null == nil).
type scratchCol struct {
	col  vec.Col
	null []uint64
}

// Decode decodes one EncodeCols-encoded batch of the given row count,
// keeping the rows that satisfy every predicate (ANDed, with the
// semantics of vec.ApplyPreds: a predicate on a column the batch does
// not have matches nothing). The result is dense, in row order, and
// owns its storage — nothing in it aliases buf or the Decoder. When no
// row survives it is an empty batch without columns, and the bytes
// after the column that emptied the selection are never looked at, so
// corruption there goes unreported. Skipped values are only delimited,
// not validated.
func (d *Decoder) Decode(buf []byte, rows int, preds []vec.Pred) (*vec.Batch, error) {
	if rows == 0 {
		return &vec.Batch{}, nil
	}
	n, w := binary.Uvarint(buf)
	if w <= 0 || n != uint64(rows) {
		return nil, fmt.Errorf("corrupt batch header (got %d rows, expected %d)", n, rows)
	}
	buf = buf[w:]
	ncols, w := binary.Uvarint(buf)
	if w <= 0 || ncols > uint64(len(buf)) {
		return nil, fmt.Errorf("corrupt column count")
	}
	buf = buf[w:]
	last := -1
	for pi := range preds {
		c := preds[pi].Col
		if c < 0 || uint64(c) >= ncols {
			return &vec.Batch{}, nil
		}
		last = max(last, c)
	}
	var sel []int32 // nil = every row
	rest := buf
	if last >= 0 {
		if d == nil {
			d = new(Decoder)
		}
		var err error
		if sel, rest, err = d.narrow(buf, rows, preds, last); err != nil {
			return nil, err
		}
		switch len(sel) {
		case 0:
			return &vec.Batch{}, nil
		case rows:
			sel = nil
		}
	}
	b := &vec.Batch{Cols: make([]vec.Col, ncols), N: rows}
	if sel != nil {
		b.N = len(sel)
	}
	for ci := range b.Cols {
		c := &b.Cols[ci]
		var err error
		switch {
		case ci <= last && d.starts[ci] < 0:
			gatherCol(c, &d.cols[ci].col, sel, rows)
		case ci <= last:
			_, err = d.decodeCol(buf[d.starts[ci]:], c, rows, sel)
		default:
			rest, err = d.decodeCol(rest, c, rows, sel)
		}
		if err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after batch", len(rest))
	}
	return b, nil
}

// narrow walks the columns up to the last predicate column in file
// order and returns the rows satisfying every predicate, plus the bytes
// after that column. Predicate columns decode into d.cols and stay
// there for Decode to gather from; the others are skip-walked, their
// offsets noted in d.starts for the decode at the surviving rows.
//
//hierdb:hotpath
func (d *Decoder) narrow(buf []byte, rows int, preds []vec.Pred, last int) (sel []int32, rest []byte, err error) {
	for len(d.cols) <= last {
		d.cols = append(d.cols, scratchCol{})
	}
	if cap(d.sel) < rows {
		d.sel = make([]int32, 0, rows)
	}
	d.starts = d.starts[:0]
	rest = buf // sel == nil: every row, until the first predicate narrows it
	var skipped vec.Col
	for ci := 0; ci <= last; ci++ {
		if !predOn(preds, ci) {
			d.starts = append(d.starts, len(buf)-len(rest))
			if rest, err = d.decodeCol(rest, &skipped, rows, d.sel[:0]); err != nil {
				return nil, nil, err
			}
			continue
		}
		d.starts = append(d.starts, -1)
		sc := &d.cols[ci]
		if rest, err = decodeColDense(rest, &sc.col, rows, sc.null); err != nil {
			return nil, nil, err
		}
		if sc.col.Null != nil {
			sc.null = sc.col.Null
		}
		for pi := range preds {
			if preds[pi].Col != ci {
				continue
			}
			if sel = vec.ApplyPred(&sc.col, &preds[pi], sel, d.sel[:0]); len(sel) == 0 {
				return sel, nil, nil
			}
		}
	}
	return sel, rest, nil
}

// predOn reports whether any predicate reads column ci.
//
//hierdb:hotpath
func predOn(preds []vec.Pred, ci int) bool {
	for pi := range preds {
		if preds[pi].Col == ci {
			return true
		}
	}
	return false
}

// gatherCol materializes the rows sel (nil = all n) of the scratch
// column src into dst. A string column gets a blob of its own holding
// the selected values only, so the result pins neither the scratch nor
// the rows that were filtered out.
//
//hierdb:hotpath
func gatherCol(dst, src *vec.Col, sel []int32, n int) {
	if sel == nil {
		sel = vec.Ident(n)
	}
	k := len(sel)
	dst.Kind = src.Kind
	switch {
	case src.Kind == vec.Any:
		dst.Box = gather(make([]any, 0, k), src.Box, nil, sel)
	case src.Kind.IntFamily():
		dst.I64 = gather(make([]int64, 0, k), src.I64, nil, sel)
	case src.Kind == vec.Float64:
		dst.F64 = gather(make([]float64, 0, k), src.F64, nil, sel)
	case src.Kind == vec.Bool:
		dst.B = gather(make([]bool, 0, k), src.B, nil, sel)
	default:
		total := 0
		for _, li := range sel {
			total += len(src.Str[li])
		}
		var blob strings.Builder
		blob.Grow(total)
		for _, li := range sel {
			blob.WriteString(src.Str[li])
		}
		dst.Str = make([]string, k)
		str, off := blob.String(), 0
		for j, li := range sel {
			ln := len(src.Str[li])
			dst.Str[j] = str[off : off+ln]
			off += ln
		}
	}
	if src.Null != nil {
		dst.Null = selectNulls(src.Null, sel)
	}
	// The pointer-free mirrors are kept for the next batch; these would
	// only pin this one's strings and boxes.
	src.Str, src.Box = nil, nil
}

//hierdb:hotpath
func appendCol(buf []byte, c *vec.Col, n int) ([]byte, error) {
	buf = append(buf, byte(c.Kind))
	// Null bitmap over logical rows (the column's own bitmap is over
	// storage positions; re-project through the selection).
	nulls := false
	for i := 0; i < n; i++ {
		if c.NullAt(c.Pos(i)) {
			nulls = true
			break
		}
	}
	if nulls {
		buf = append(buf, 1)
		base := len(buf)
		for i := 0; i < (n+7)/8; i++ {
			buf = append(buf, 0)
		}
		for i := 0; i < n; i++ {
			if c.NullAt(c.Pos(i)) {
				buf[base+i/8] |= 1 << (uint(i) & 7)
			}
		}
	} else {
		buf = append(buf, 0)
	}
	switch c.Kind {
	case vec.Int, vec.Int32, vec.Int64:
		for i := 0; i < n; i++ {
			pos := c.Pos(i)
			if !c.NullAt(pos) {
				buf = binary.AppendVarint(buf, c.I64[pos])
			}
		}
	case vec.Uint64:
		for i := 0; i < n; i++ {
			pos := c.Pos(i)
			if !c.NullAt(pos) {
				buf = binary.AppendUvarint(buf, uint64(c.I64[pos]))
			}
		}
	case vec.Float64:
		for i := 0; i < n; i++ {
			pos := c.Pos(i)
			if !c.NullAt(pos) {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.F64[pos]))
			}
		}
	case vec.Bool:
		base := len(buf)
		cnt := 0
		for i := 0; i < n; i++ {
			pos := c.Pos(i)
			if c.NullAt(pos) {
				continue
			}
			if cnt%8 == 0 {
				buf = append(buf, 0)
			}
			if c.B[pos] {
				buf[base+cnt/8] |= 1 << (uint(cnt) & 7)
			}
			cnt++
		}
	case vec.String:
		for i := 0; i < n; i++ {
			pos := c.Pos(i)
			if !c.NullAt(pos) {
				s := c.Str[pos]
				buf = binary.AppendUvarint(buf, uint64(len(s)))
				buf = append(buf, s...)
			}
		}
	case vec.Any:
		var err error
		for i := 0; i < n; i++ {
			v := c.Box[c.Pos(i)]
			if v == nil {
				continue // carried by the bitmap
			}
			if buf, err = appendValue(buf, v); err != nil {
				return nil, err
			}
		}
	default:
		//hierdb:ignore hotpath cold error path, only reached on a corrupt in-memory batch
		return nil, fmt.Errorf("spill: unknown column kind %d", c.Kind)
	}
	return buf, nil
}

// appendValue encodes one boxed value of an Any column payload behind
// its type tag.
func appendValue(buf []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case bool:
		if x {
			buf = append(buf, tagTrue)
		} else {
			buf = append(buf, tagFalse)
		}
	case int:
		buf = append(buf, tagInt)
		buf = binary.AppendVarint(buf, int64(x))
	case int32:
		buf = append(buf, tagInt32)
		buf = binary.AppendVarint(buf, int64(x))
	case int64:
		buf = append(buf, tagInt64)
		buf = binary.AppendVarint(buf, x)
	case uint64:
		buf = append(buf, tagUint64)
		buf = binary.AppendUvarint(buf, x)
	case float64:
		buf = append(buf, tagFloat64)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	case string:
		buf = append(buf, tagString)
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		buf = append(buf, x...)
	default:
		return nil, fmt.Errorf("spill: unsupported column type %T (supported: nil, bool, int, int32, int64, uint64, float64, string)", v)
	}
	return buf, nil
}

// readBufs recycles the ReadAt buffers of Decoder.ReadAt. Decode copies
// everything it keeps out of its input (each string column into one
// string of its own), so a buffer is free again as soon as the decode
// returns; sync.Pool's per-P caches make that one buffer per worker in
// steady state.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// ReadColsAt reads the n bytes at off from r and decodes them as one
// EncodeCols-encoded batch of the given row count — Decoder.ReadAt
// without predicates, the read half of spill partitions (File.ReadCols).
// Safe for concurrent callers.
func ReadColsAt(r io.ReaderAt, off, n int64, rows int) (*vec.Batch, error) {
	return (*Decoder)(nil).ReadAt(r, off, n, rows, nil)
}

// ReadAt reads the n bytes at off from r and Decodes them under preds —
// the read half of table-file chunks (store.ReadChunkWhere).
func (d *Decoder) ReadAt(r io.ReaderAt, off, n int64, rows int, preds []vec.Pred) (*vec.Batch, error) {
	bp := readBufs.Get().(*[]byte)
	defer readBufs.Put(bp)
	if int64(cap(*bp)) < n {
		*bp = make([]byte, n)
	}
	buf := (*bp)[:n]
	if _, err := r.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("read: %w", err)
	}
	return d.Decode(buf, rows, preds)
}

// Decode failures. Sentinels rather than fmt calls: the per-kind
// decoders are hot paths.
var (
	errTruncHeader  = errors.New("truncated column header")
	errTruncNulls   = errors.New("truncated null bitmap")
	errTruncVarint  = errors.New("truncated varint")
	errTruncUvarint = errors.New("truncated uvarint")
	errTruncFloat   = errors.New("truncated float64")
	errTruncBool    = errors.New("truncated bool payload")
	errTruncString  = errors.New("truncated string")
	errTruncValue   = errors.New("truncated value")
	errValueTag     = errors.New("unknown value tag")
	errColKind      = errors.New("unknown column kind")
)

// colHeader parses one column's kind byte and null bitmap, the bitmap
// widened into nullBuf's storage when that is large enough (nil when
// the column has no nulls).
//
//hierdb:hotpath
func colHeader(buf []byte, n int, nullBuf []uint64) (vec.Kind, []uint64, []byte, error) {
	if len(buf) < 2 {
		return 0, nil, nil, errTruncHeader
	}
	kind, hasNulls := vec.Kind(buf[0]), buf[1] == 1
	buf = buf[2:]
	if !hasNulls {
		return kind, nil, buf, nil
	}
	nb := (n + 7) / 8
	if len(buf) < nb {
		return 0, nil, nil, errTruncNulls
	}
	return kind, unpackNulls(buf[:nb], n, nullBuf), buf[nb:], nil
}

// decodeCol decodes one column of n rows into c, a dense column of the
// rows sel (ascending). sel == nil decodes every row and needs no
// Decoder; an empty sel only walks the column to its end.
//
//hierdb:hotpath
func (d *Decoder) decodeCol(buf []byte, c *vec.Col, n int, sel []int32) ([]byte, error) {
	if sel == nil {
		return decodeColDense(buf, c, n, nil)
	}
	kind, null, buf, err := colHeader(buf, n, d.null)
	if err != nil {
		return nil, err
	}
	if null != nil {
		d.null = null
	}
	k := len(sel)
	c.Kind = kind
	if null != nil && kind != vec.Any {
		c.Null = selectNulls(null, sel)
	}
	switch kind {
	case vec.Int, vec.Int32, vec.Int64:
		c.I64 = make([]int64, k)
		return decodeVarintsAt(buf, c.I64, null, sel, n, true)
	case vec.Uint64:
		c.I64 = make([]int64, k)
		return decodeVarintsAt(buf, c.I64, null, sel, n, false)
	case vec.Float64:
		c.F64 = make([]float64, k)
		return decodeFloatsAt(buf, c.F64, null, sel, n)
	case vec.Bool:
		c.B = make([]bool, k)
		return decodeBoolsAt(buf, c.B, null, sel, n)
	case vec.String:
		c.Str = make([]string, k)
		return d.decodeStringsAt(buf, c.Str, null, sel, n)
	case vec.Any:
		c.Box = make([]any, k)
		return decodeValuesAt(buf, c.Box, null, sel, n)
	}
	return nil, errColKind
}

// decodeColDense decodes every row of one column of n rows into c. A
// typed kind decodes into its mirror and null bitmap only — the column
// comes out boxless, as every typed column is, and vec boxes whichever
// values survive to a Row boundary — through one tight loop per kind;
// only an Any column, which has no mirror, decodes into Box. c's pointer-free
// mirrors and nullBuf are reused when large enough (a Decoder's scratch
// columns); a zero Col and a nil nullBuf get fresh storage.
//
//hierdb:hotpath
func decodeColDense(buf []byte, c *vec.Col, n int, nullBuf []uint64) ([]byte, error) {
	kind, null, buf, err := colHeader(buf, n, nullBuf)
	if err != nil {
		return nil, err
	}
	c.Kind, c.Null, c.Str, c.Box = kind, null, nil, nil
	// The decoders leave null rows untouched: reused storage must not
	// show them the previous batch's values.
	dirty := null != nil
	switch kind {
	case vec.Int, vec.Int32, vec.Int64:
		c.I64 = mirror(c.I64, n, dirty)
		return decodeVarints(buf, c.I64, null)
	case vec.Uint64:
		c.I64 = mirror(c.I64, n, dirty)
		return decodeUvarints(buf, c.I64, null)
	case vec.Float64:
		c.F64 = mirror(c.F64, n, dirty)
		return decodeFloats(buf, c.F64, null)
	case vec.Bool:
		c.B = mirror(c.B, n, dirty)
		return decodeBools(buf, c.B, null)
	case vec.String:
		c.Str = make([]string, n)
		return decodeStrings(buf, c.Str, null)
	case vec.Any:
		// Any columns mark nulls in Box directly and carry no bitmap.
		c.Null, c.Box = nil, make([]any, n)
		for i := range c.Box {
			if nullAt(null, i) {
				continue
			}
			if c.Box[i], buf, err = decodeValue(buf); err != nil {
				return nil, err
			}
		}
		return buf, nil
	}
	return nil, errColKind
}

// mirror returns n elements of typed storage, s's own when it is large
// enough — zeroed if dirty — and fresh otherwise.
//
//hierdb:hotpath
func mirror[T any](s []T, n int, dirty bool) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	if dirty {
		clear(s)
	}
	return s
}

// unpackNulls widens the codec's byte-packed null bitmap over n rows to
// vec's word-packed one (both little-endian, bit set = null), in into's
// storage when that is large enough. Bits past n are cleared so the
// decoders can count nulls by population.
//
//hierdb:hotpath
func unpackNulls(packed []byte, n int, into []uint64) []uint64 {
	null := mirror(into, (n+63)/64, true)
	for i, b := range packed {
		null[i>>3] |= uint64(b) << (8 * (uint(i) & 7))
	}
	if r := uint(n) & 63; r != 0 {
		null[len(null)-1] &= 1<<r - 1
	}
	return null
}

// nullAt reports whether row i is null in a decoded bitmap (nil = no
// nulls).
//
//hierdb:hotpath
func nullAt(null []uint64, i int) bool {
	return null != nil && null[i>>6]&(1<<(uint(i)&63)) != 0
}

// nonNull counts the non-null rows in [lo, hi) — the payload values
// those rows occupy.
//
//hierdb:hotpath
func nonNull(null []uint64, lo, hi int) int {
	if null == nil || lo >= hi {
		return hi - lo
	}
	return hi - lo - countNulls(null, lo, hi)
}

// countNulls is the population of a bitmap over the non-empty row range
// [lo, hi).
//
//hierdb:hotpath
func countNulls(null []uint64, lo, hi int) int {
	lw, hw := lo>>6, (hi-1)>>6
	lm := ^uint64(0) << (uint(lo) & 63)
	hm := ^uint64(0) >> (63 - uint(hi-1)&63)
	if lw == hw {
		return bits.OnesCount64(null[lw] & lm & hm)
	}
	k := bits.OnesCount64(null[lw]&lm) + bits.OnesCount64(null[hw]&hm)
	for _, w := range null[lw+1 : hw] {
		k += bits.OnesCount64(w)
	}
	return k
}

// selectNulls projects a bitmap over source rows onto the rows sel: bit
// j of the result is the null bit of row sel[j]. nil when none of them
// is null.
//
//hierdb:hotpath
func selectNulls(null []uint64, sel []int32) []uint64 {
	var out []uint64
	for j, li := range sel {
		if nullAt(null, int(li)) {
			if out == nil {
				out = make([]uint64, (len(sel)+63)/64)
			}
			out[j>>6] |= 1 << (uint(j) & 63)
		}
	}
	return out
}

//hierdb:hotpath
func decodeVarints(buf []byte, dst []int64, null []uint64) ([]byte, error) {
	for i := range dst {
		if nullAt(null, i) {
			continue
		}
		v, w := binary.Varint(buf)
		if w <= 0 {
			return nil, errTruncVarint
		}
		buf = buf[w:]
		dst[i] = v
	}
	return buf, nil
}

//hierdb:hotpath
func decodeUvarints(buf []byte, dst []int64, null []uint64) ([]byte, error) {
	for i := range dst {
		if nullAt(null, i) {
			continue
		}
		v, w := binary.Uvarint(buf)
		if w <= 0 {
			return nil, errTruncUvarint
		}
		buf = buf[w:]
		dst[i] = int64(v)
	}
	return buf, nil
}

// skipVarints steps over k varints (of either signedness): a value ends
// at its first byte without the continuation bit. Long runs count
// terminators a word at a time.
//
//hierdb:hotpath
func skipVarints(buf []byte, k int) ([]byte, error) {
	i := 0
	// A word holds at most 8 terminators, so with k >= 8 the k-th cannot
	// lie before the word's end unless it is its last byte.
	for ; k >= 8 && i+8 <= len(buf); i += 8 {
		k -= bits.OnesCount64(^binary.LittleEndian.Uint64(buf[i:]) & 0x8080808080808080)
	}
	for ; k > 0; i++ {
		if i >= len(buf) {
			return nil, errTruncVarint
		}
		if buf[i] < 0x80 {
			k--
		}
	}
	return buf[i:], nil
}

// decodeVarintsAt decodes the varints of the rows sel out of a column
// of n rows, zigzag-decoded for the signed kinds.
//
//hierdb:hotpath
func decodeVarintsAt(buf []byte, dst []int64, null []uint64, sel []int32, n int, zigzag bool) ([]byte, error) {
	at := 0
	var err error
	for j, li := range sel {
		row := int(li)
		if buf, err = skipVarints(buf, nonNull(null, at, row)); err != nil {
			return nil, err
		}
		at = row + 1
		if nullAt(null, row) {
			continue
		}
		u, w := binary.Uvarint(buf)
		if w <= 0 {
			return nil, errTruncVarint
		}
		buf = buf[w:]
		if zigzag {
			dst[j] = int64(u>>1) ^ -int64(u&1)
		} else {
			dst[j] = int64(u)
		}
	}
	return skipVarints(buf, nonNull(null, at, n))
}

//hierdb:hotpath
func decodeFloats(buf []byte, dst []float64, null []uint64) ([]byte, error) {
	for i := range dst {
		if nullAt(null, i) {
			continue
		}
		if len(buf) < 8 {
			return nil, errTruncFloat
		}
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
		buf = buf[8:]
	}
	return buf, nil
}

// decodeFloatsAt reads the floats of the rows sel out of a column of n
// rows: value v of the payload sits at byte 8v.
//
//hierdb:hotpath
func decodeFloatsAt(buf []byte, dst []float64, null []uint64, sel []int32, n int) ([]byte, error) {
	end := 8 * nonNull(null, 0, n)
	if len(buf) < end {
		return nil, errTruncFloat
	}
	v, at := 0, 0
	for j, li := range sel {
		row := int(li)
		v += nonNull(null, at, row)
		at = row + 1
		if nullAt(null, row) {
			continue
		}
		dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*v:]))
		v++
	}
	return buf[end:], nil
}

// decodeBools unpacks the bool payload: one contiguous bitmap over the
// non-null rows.
//
//hierdb:hotpath
func decodeBools(buf []byte, dst []bool, null []uint64) ([]byte, error) {
	cnt := len(dst)
	for _, w := range null {
		cnt -= bits.OnesCount64(w)
	}
	nb := (cnt + 7) / 8
	if len(buf) < nb {
		return nil, errTruncBool
	}
	j := 0
	for i := range dst {
		if nullAt(null, i) {
			continue
		}
		dst[i] = buf[j>>3]&(1<<(uint(j)&7)) != 0
		j++
	}
	return buf[nb:], nil
}

// decodeBoolsAt reads the bools of the rows sel out of a column of n
// rows: value v of the payload is bit v.
//
//hierdb:hotpath
func decodeBoolsAt(buf []byte, dst []bool, null []uint64, sel []int32, n int) ([]byte, error) {
	nb := (nonNull(null, 0, n) + 7) / 8
	if len(buf) < nb {
		return nil, errTruncBool
	}
	v, at := 0, 0
	for j, li := range sel {
		row := int(li)
		v += nonNull(null, at, row)
		at = row + 1
		if nullAt(null, row) {
			continue
		}
		dst[j] = buf[v>>3]&(1<<(uint(v)&7)) != 0
		v++
	}
	return buf[nb:], nil
}

// decodeStrings backs the whole column with one string — the payload
// region, length prefixes included, copied out of the (reused) read
// buffer once — and points every value into it, so a string column
// costs one allocation per batch instead of one per value. The first
// pass finds and validates the region, the second slices it.
//
//hierdb:hotpath
func decodeStrings(buf []byte, dst []string, null []uint64) ([]byte, error) {
	end, err := skipStrings(buf, 0, nonNull(null, 0, len(dst)))
	if err != nil {
		return nil, err
	}
	blob := string(buf[:end])
	off := 0
	for i := range dst {
		if nullAt(null, i) {
			continue
		}
		ln, w := binary.Uvarint(buf[off:])
		off += w
		dst[i] = blob[off : off+int(ln)]
		off += int(ln)
	}
	return buf[end:], nil
}

// skipStrings hops over k length-prefixed strings starting at buf[off:]
// and returns the offset after them.
//
//hierdb:hotpath
func skipStrings(buf []byte, off, k int) (int, error) {
	for ; k > 0; k-- {
		ln, w := binary.Uvarint(buf[off:])
		if w <= 0 || uint64(len(buf)-off-w) < ln {
			return 0, errTruncString
		}
		off += w + int(ln)
	}
	return off, nil
}

// decodeStringsAt copies the strings of the rows sel out of a column of
// n rows into one blob holding nothing else: the first pass hops through
// the column noting where the selected values lie, the second copies
// and slices them.
//
//hierdb:hotpath
func (d *Decoder) decodeStringsAt(buf []byte, dst []string, null []uint64, sel []int32, n int) ([]byte, error) {
	spans := d.spans[:0]
	off, at, total := 0, 0, 0
	var err error
	for _, li := range sel {
		row := int(li)
		if off, err = skipStrings(buf, off, nonNull(null, at, row)); err != nil {
			return nil, err
		}
		at = row + 1
		if nullAt(null, row) {
			spans = append(spans, 0, 0)
			continue
		}
		ln, w := binary.Uvarint(buf[off:])
		if w <= 0 || uint64(len(buf)-off-w) < ln {
			return nil, errTruncString
		}
		spans = append(spans, off+w, int(ln))
		off += w + int(ln)
		total += int(ln)
	}
	d.spans = spans
	if off, err = skipStrings(buf, off, nonNull(null, at, n)); err != nil {
		return nil, err
	}
	var blob strings.Builder
	blob.Grow(total)
	for j := range dst {
		blob.Write(buf[spans[2*j] : spans[2*j]+spans[2*j+1]])
	}
	str, o := blob.String(), 0
	for j := range dst {
		ln := spans[2*j+1]
		dst[j] = str[o : o+ln]
		o += ln
	}
	return buf[off:], nil
}

// decodeValuesAt decodes the tagged values of the rows sel out of an
// Any column of n rows.
//
//hierdb:hotpath
func decodeValuesAt(buf []byte, dst []any, null []uint64, sel []int32, n int) ([]byte, error) {
	at := 0
	var err error
	for j, li := range sel {
		row := int(li)
		if buf, err = skipValues(buf, nonNull(null, at, row)); err != nil {
			return nil, err
		}
		at = row + 1
		if nullAt(null, row) {
			continue
		}
		if dst[j], buf, err = decodeValue(buf); err != nil {
			return nil, err
		}
	}
	return skipValues(buf, nonNull(null, at, n))
}

// skipValues steps over k tagged values of an Any column payload.
//
//hierdb:hotpath
func skipValues(buf []byte, k int) ([]byte, error) {
	var err error
	for ; k > 0; k-- {
		if len(buf) == 0 {
			return nil, errTruncValue
		}
		tag := buf[0]
		buf = buf[1:]
		switch tag {
		case tagNil, tagFalse, tagTrue:
		case tagInt, tagInt32, tagInt64, tagUint64:
			if buf, err = skipVarints(buf, 1); err != nil {
				return nil, err
			}
		case tagFloat64:
			if len(buf) < 8 {
				return nil, errTruncFloat
			}
			buf = buf[8:]
		case tagString:
			var off int
			if off, err = skipStrings(buf, 0, 1); err != nil {
				return nil, err
			}
			buf = buf[off:]
		default:
			return nil, errValueTag
		}
	}
	return buf, nil
}

// decodeValue decodes one tagged value of an Any column payload.
func decodeValue(buf []byte) (any, []byte, error) {
	if len(buf) == 0 {
		return nil, nil, fmt.Errorf("truncated value")
	}
	tag := buf[0]
	buf = buf[1:]
	switch tag {
	case tagNil:
		return nil, buf, nil
	case tagFalse:
		return false, buf, nil
	case tagTrue:
		return true, buf, nil
	case tagInt, tagInt32, tagInt64:
		v, w := binary.Varint(buf)
		if w <= 0 {
			return nil, nil, fmt.Errorf("truncated varint")
		}
		buf = buf[w:]
		switch tag {
		case tagInt:
			return int(v), buf, nil
		case tagInt32:
			return int32(v), buf, nil
		}
		return v, buf, nil
	case tagUint64:
		v, w := binary.Uvarint(buf)
		if w <= 0 {
			return nil, nil, fmt.Errorf("truncated uvarint")
		}
		return v, buf[w:], nil
	case tagFloat64:
		if len(buf) < 8 {
			return nil, nil, fmt.Errorf("truncated float64")
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(buf)), buf[8:], nil
	case tagString:
		ln, w := binary.Uvarint(buf)
		if w <= 0 || uint64(len(buf)-w) < ln {
			return nil, nil, fmt.Errorf("truncated string")
		}
		return string(buf[w : w+int(ln)]), buf[w+int(ln):], nil
	}
	return nil, nil, fmt.Errorf("unknown value tag %d", tag)
}
