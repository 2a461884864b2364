// Columnar batch codec: the encoding of every spilled batch and, through
// internal/store, of every table-file chunk. It spends one kind byte
// per column per batch, hoists nulls into one packed bitmap per column,
// and lays every typed payload out at a fixed stride or behind packed
// offsets, so row i of a column is found in O(1) and a column's byte
// length follows from its header; only Any columns tag each value.
//
// Per-batch layout:
//
//	uvarint nrows, uvarint ncols
//	per column:
//	  kind byte (vec.Kind numeric value — part of the on-disk format)
//	  null byte (0 or 1, any other value is corrupt); if 1, packed
//	    little-endian bitmap of ceil(n/8) bytes over logical row order
//	  payload over every row, a null row holding delta 0, 0.0, false
//	  or an empty string:
//	    int family  packed: varint base (the least non-null value; a
//	                uint64 as its bit pattern), width byte w ≤ 64, then
//	                each row's delta from base in w bits, little-endian,
//	                in ceil(n·w/64) 8-byte words (frame of reference)
//	    float64     8 bytes LE
//	    bool        packed bitmap, ceil(n/8) bytes
//	    string      each row's end offset into the bytes region, packed
//	                as above, then the region, as long as the last end
//	    any         uvarint byte length, then one value tag (below) +
//	                payload per non-null value
//
// Decoding goes through one Decoder. Under a predicate set it works on
// the encoded form for as long as it can: the columns up to the last
// predicate column are located in file order, each in O(1) from its
// header — a predicate column is decoded into a scratch mirror the
// Decoder reuses from batch to batch and vec.ApplyPred narrows the
// selection on it — and a selection that empties stops the decode on
// the spot. What survives is then gathered column by column at the
// selected rows only, into storage the returned batch owns: O(survivors)
// a column, with no walk over the rows between them. No predicates is
// the sel == nil case of the same decode: every column unpacks densely,
// straight into the batch.
package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
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

// maxBatchRows bounds a batch's row count, so a corrupt count can
// neither overflow the packed-payload arithmetic nor size an allocation
// from a few bytes of input (an all-equal int column packs any number
// of rows into none).
const maxBatchRows = 1 << 32

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
	spans  []colSpan    // the columns up to the last predicate column, located
	bounds []int        // string gather: (start, end) in the region per selected row
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
// corruption there goes unreported. Every column read is bounds-checked
// against its header; the values of rows that are not selected are not
// validated.
func (d *Decoder) Decode(buf []byte, rows int, preds []vec.Pred) (*vec.Batch, error) {
	if rows == 0 {
		return &vec.Batch{}, nil
	}
	n, w := binary.Uvarint(buf)
	if w <= 0 || n != uint64(rows) || n > maxBatchRows {
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
		var s colSpan
		var err error
		if ci <= last {
			if s = d.spans[ci]; s.scratch {
				gatherCol(c, &d.cols[ci].col, &s, sel, rows)
				continue
			}
		} else if s, rest, err = parseCol(rest, rows); err != nil {
			return nil, err
		}
		if err = d.decodeCol(&s, c, rows, sel); err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after batch", len(rest))
	}
	return b, nil
}

// narrow locates the columns up to the last predicate column in file
// order and returns the rows satisfying every predicate, plus the bytes
// after that column. Predicate columns decode into d.cols and stay
// there for Decode to gather from; the others are only located, in
// d.spans, for the decode at the surviving rows.
//
//hierdb:hotpath
func (d *Decoder) narrow(buf []byte, rows int, preds []vec.Pred, last int) (sel []int32, rest []byte, err error) {
	for len(d.cols) <= last {
		d.cols = append(d.cols, scratchCol{})
	}
	if cap(d.sel) < rows {
		d.sel = make([]int32, 0, rows)
	}
	d.spans = d.spans[:0]
	rest = buf // sel == nil: every row, until the first predicate narrows it
	for ci := 0; ci <= last; ci++ {
		var s colSpan
		if s, rest, err = parseCol(rest, rows); err != nil {
			return nil, nil, err
		}
		s.scratch = predOn(preds, ci)
		d.spans = append(d.spans, s)
		if !s.scratch {
			continue
		}
		sc := &d.cols[ci]
		if err = s.dense(&sc.col, rows, sc.null); err != nil {
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
// column src, decoded from s, into dst. A string column gets a blob of
// its own holding the selected values only, so the result pins neither
// the scratch nor the rows that were filtered out.
//
//hierdb:hotpath
func gatherCol(dst, src *vec.Col, s *colSpan, sel []int32, n int) {
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
		dst.Null = s.selectNulls(sel)
	}
	// The pointer-free mirrors are kept for the next batch; these would
	// only pin this one's strings and boxes.
	src.Str, src.Box = nil, nil
}

//hierdb:hotpath
func appendCol(buf []byte, c *vec.Col, n int) ([]byte, error) {
	buf = append(buf, byte(c.Kind))
	// Null bitmap over logical rows (the column's own bitmap is over
	// storage positions; re-project through the selection). A typed
	// column without a bitmap has no nulls.
	nulls := false
	for i := 0; i < n && (c.Null != nil || c.Kind == vec.Any); i++ {
		if c.NullAt(c.Pos(i)) {
			nulls = true
			break
		}
	}
	if nulls {
		buf = append(buf, 1)
		base := len(buf)
		buf = append(buf, make([]byte, (n+7)/8)...)
		for i := 0; i < n; i++ {
			if c.NullAt(c.Pos(i)) {
				buf[base+i/8] |= 1 << (uint(i) & 7)
			}
		}
	} else {
		buf = append(buf, 0)
	}
	// A column without nulls or a selection, as vec.FromRows and a
	// spill File's write buffer produce, is read straight off its mirror.
	dense := c.Idx == nil && !nulls
	switch c.Kind {
	case vec.Int, vec.Int32, vec.Int64, vec.Uint64:
		return appendInts(buf, c, n, dense), nil
	case vec.Float64:
		if dense {
			for _, f := range c.F64[:n] {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
			}
			break
		}
		for i := 0; i < n; i++ {
			var u uint64
			if pos := c.Pos(i); !c.NullAt(pos) {
				u = math.Float64bits(c.F64[pos])
			}
			buf = binary.LittleEndian.AppendUint64(buf, u)
		}
	case vec.Bool:
		base := len(buf)
		buf = append(buf, make([]byte, (n+7)/8)...)
		for i := 0; i < n; i++ {
			if pos := c.Pos(i); !c.NullAt(pos) && c.B[pos] {
				buf[base+i/8] |= 1 << (uint(i) & 7)
			}
		}
	case vec.String:
		return appendStrings(buf, c, n, dense), nil
	case vec.Any:
		at := len(buf)
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
		return insertLen(buf, at), nil
	default:
		//hierdb:ignore hotpath cold error path, only reached on a corrupt in-memory batch
		return nil, fmt.Errorf("spill: unknown column kind %d", c.Kind)
	}
	return buf, nil
}

// appendInts packs an int-family column: the least non-null value is
// the base, and every row holds its distance from the base in the
// fewest bits that fit the greatest (a null row: 0). Distances are
// taken on the bit patterns, so MinInt64..MaxInt64 and uint64 values
// with the high bit set fit 64 bits; only the order that picks the
// base is signed or not.
//
//hierdb:hotpath
func appendInts(buf []byte, c *vec.Col, n int, dense bool) []byte {
	flip := uint64(1) << 63 // signed order as unsigned order
	if c.Kind == vec.Uint64 {
		flip = 0
	}
	lo, hi := ^uint64(0), uint64(0)
	if dense {
		for _, v := range c.I64[:n] {
			k := uint64(v) ^ flip
			lo, hi = min(lo, k), max(hi, k)
		}
	} else {
		for i := 0; i < n; i++ {
			if pos := c.Pos(i); !c.NullAt(pos) {
				k := uint64(c.I64[pos]) ^ flip
				lo, hi = min(lo, k), max(hi, k)
			}
		}
	}
	if lo > hi { // every row null
		lo, hi = flip, flip
	}
	base := lo ^ flip
	p := newPacker(buf, base, hi-lo, n)
	if dense {
		for _, v := range c.I64[:n] {
			p.put(uint64(v) - base)
		}
		return p.done()
	}
	for i := 0; i < n; i++ {
		var d uint64
		if pos := c.Pos(i); !c.NullAt(pos) {
			d = uint64(c.I64[pos]) - base
		}
		p.put(d)
	}
	return p.done()
}

// appendStrings writes a string column as its rows' end offsets, packed
// like an int column (the first end is the base), then the bytes they
// index.
//
//hierdb:hotpath
func appendStrings(buf []byte, c *vec.Col, n int, dense bool) []byte {
	var strs []string // dense: the rows, else nil
	if dense {
		strs = c.Str[:n]
	}
	first, total := 0, 0
	for i := 0; i < n; i++ {
		if strs != nil {
			total += len(strs[i])
		} else if pos := c.Pos(i); !c.NullAt(pos) {
			total += len(c.Str[pos])
		}
		if i == 0 {
			first = total
		}
	}
	p := newPacker(buf, uint64(first), uint64(total-first), n)
	end := 0
	for i := 0; i < n; i++ {
		if strs != nil {
			end += len(strs[i])
		} else if pos := c.Pos(i); !c.NullAt(pos) {
			end += len(c.Str[pos])
		}
		p.put(uint64(end - first))
	}
	buf = p.done()
	if strs != nil {
		for _, str := range strs {
			buf = append(buf, str...)
		}
		return buf
	}
	for i := 0; i < n; i++ {
		if pos := c.Pos(i); !c.NullAt(pos) {
			buf = append(buf, c.Str[pos]...)
		}
	}
	return buf
}

// packer writes the packed form of n deltas: the base and width header,
// then the deltas w bits each, filling 64-bit little-endian words from
// their low bits.
type packer struct {
	buf []byte
	acc uint64 // the word being filled
	nb  uint   // bits of acc in use
	w   uint
}

// newPacker writes the header of n deltas from base, the greatest of
// them span, and returns the packer the deltas go through.
//
//hierdb:hotpath
func newPacker(buf []byte, base, span uint64, n int) packer {
	w := bits.Len64(span)
	buf = binary.AppendVarint(buf, int64(base))
	buf = append(buf, byte(w))
	return packer{buf: slices.Grow(buf, 8*((n*w+63)/64)), w: uint(w)}
}

// put appends one delta, which must fit the packer's width.
//
//hierdb:hotpath
func (p *packer) put(d uint64) {
	p.acc |= d << p.nb // a shift by 64 or more is 0
	p.nb += p.w
	if p.nb >= 64 {
		p.buf = binary.LittleEndian.AppendUint64(p.buf, p.acc)
		p.nb -= 64
		p.acc = d >> (p.w - p.nb) // the bits that did not fit
	}
}

// done writes the last, partly filled word and returns the buffer.
//
//hierdb:hotpath
func (p *packer) done() []byte {
	if p.nb > 0 {
		p.buf = binary.LittleEndian.AppendUint64(p.buf, p.acc)
	}
	return p.buf
}

// insertLen inserts the uvarint length of buf[at:] at at.
func insertLen(buf []byte, at int) []byte {
	var pre [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(pre[:], uint64(len(buf)-at))
	buf = append(buf, pre[:k]...)
	copy(buf[at+k:], buf[at:len(buf)-k])
	copy(buf[at:], pre[:k])
	return buf
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
	errTruncHeader = errors.New("truncated column header")
	errNullFlag    = errors.New("corrupt null flag")
	errTruncNulls  = errors.New("truncated null bitmap")
	errTruncPacked = errors.New("truncated packed payload")
	errWidth       = errors.New("packed width over 64 bits")
	errTruncFloat  = errors.New("truncated float64")
	errTruncBool   = errors.New("truncated bool payload")
	errTruncString = errors.New("truncated string")
	errStringEnds  = errors.New("corrupt string offsets")
	errTruncValue  = errors.New("truncated value")
	errValueTag    = errors.New("unknown value tag")
	errAnyLen      = errors.New("any payload length mismatch")
	errColKind     = errors.New("unknown column kind")
)

// colSpan is one column of an encoded batch, located and not decoded:
// its header parsed and its payload delimited.
type colSpan struct {
	kind  vec.Kind
	nulls []byte // packed null bitmap, one bit a row; nil = no nulls
	ints  packed // an int column's values, a string column's ends
	// data is a float64, bool or Any column's payload, or a string
	// column's bytes region.
	data []byte
	// scratch marks a predicate column (Decoder.narrow), decoded into
	// the Decoder's scratch column of the same index.
	scratch bool
}

// parseCol locates one column of n rows at the start of buf and returns
// it with the bytes after it — O(1) but for a string column's region,
// whose length is its last end offset.
//
//hierdb:hotpath
func parseCol(buf []byte, n int) (s colSpan, rest []byte, err error) {
	if len(buf) < 2 {
		return s, nil, errTruncHeader
	}
	s.kind = vec.Kind(buf[0])
	switch buf[1] {
	case 0:
		buf = buf[2:]
	case 1:
		nb := (n + 7) / 8
		if len(buf)-2 < nb {
			return s, nil, errTruncNulls
		}
		s.nulls, buf = buf[2:2+nb], buf[2+nb:]
	default:
		return s, nil, errNullFlag
	}
	switch s.kind {
	case vec.Int, vec.Int32, vec.Int64, vec.Uint64:
		buf, err = s.ints.parse(buf, n)
	case vec.String:
		if buf, err = s.ints.parse(buf, n); err != nil {
			return s, nil, err
		}
		end := s.ints.at(n - 1)
		if end > uint64(len(buf)) {
			return s, nil, errTruncString
		}
		s.data, buf = buf[:end], buf[end:]
	case vec.Float64:
		if len(buf) < 8*n {
			return s, nil, errTruncFloat
		}
		s.data, buf = buf[:8*n], buf[8*n:]
	case vec.Bool:
		nb := (n + 7) / 8
		if len(buf) < nb {
			return s, nil, errTruncBool
		}
		s.data, buf = buf[:nb], buf[nb:]
	case vec.Any:
		ln, k := binary.Uvarint(buf)
		if k <= 0 || ln > uint64(len(buf)-k) {
			return s, nil, errTruncValue
		}
		s.data, buf = buf[k:k+int(ln)], buf[k+int(ln):]
	default:
		err = errColKind
	}
	return s, buf, err
}

// packed is a frame-of-reference payload: row i holds base plus a
// w-bit delta at bit i·w of little-endian words.
type packed struct {
	words []byte
	base  uint64
	w     uint
}

// parse parses the base and width of a packed payload of n rows and
// delimits its words.
//
//hierdb:hotpath
func (pk *packed) parse(buf []byte, n int) ([]byte, error) {
	base, k := binary.Varint(buf)
	if k <= 0 || len(buf) <= k {
		return nil, errTruncPacked
	}
	w := int(buf[k])
	if w > 64 {
		return nil, errWidth
	}
	buf = buf[k+1:]
	nb := 8 * ((n*w + 63) / 64)
	if len(buf) < nb {
		return nil, errTruncPacked
	}
	pk.words, pk.base, pk.w = buf[:nb], uint64(base), uint(w)
	return buf[nb:], nil
}

// fastRows is how many leading rows at1 reads: a delta of at most 57
// bits lies within the 8 bytes from its first, so one load reads it
// while those bytes stay inside the payload.
//
//hierdb:hotpath
func (pk packed) fastRows() int {
	if pk.w == 0 || pk.w > 57 {
		return 0
	}
	return (8*len(pk.words)-57)/int(pk.w) + 1
}

// at1 returns the value of row i < fastRows of the packed payload
// words, base, w with one load. A function of the fields rather than a
// method, so that loops keep them in registers.
//
//hierdb:hotpath
func at1(words []byte, base uint64, w uint, i int) uint64 {
	p := uint(i) * w
	return base + binary.LittleEndian.Uint64(words[p>>3:])>>(p&7)&(1<<w-1)
}

// at returns the value of any row: from the word its delta starts in
// and, when it straddles, the next.
//
//hierdb:hotpath
func (pk packed) at(i int) uint64 {
	if pk.w == 0 {
		return pk.base
	}
	p := uint(i) * pk.w
	k, sh := p>>6<<3, p&63
	v := binary.LittleEndian.Uint64(pk.words[k:]) >> sh
	if sh+pk.w > 64 {
		v |= binary.LittleEndian.Uint64(pk.words[k+8:]) << (64 - sh)
	}
	return pk.base + v&(^uint64(0)>>(64-pk.w))
}

// null reports whether row i is null.
//
//hierdb:hotpath
func (s *colSpan) null(i int) bool {
	return s.nulls != nil && s.nulls[i>>3]&(1<<(uint(i)&7)) != 0
}

// dense decodes every row of the column into c. A typed kind decodes
// into its mirror and null bitmap only — the column comes out boxless,
// as every typed column is, and vec boxes whichever values survive to a
// Row boundary; only an Any column, which has no mirror, decodes into
// Box. c's pointer-free mirrors and nullBuf are reused when large
// enough (a Decoder's scratch columns); a zero Col and a nil nullBuf get
// fresh storage.
//
//hierdb:hotpath
func (s *colSpan) dense(c *vec.Col, n int, nullBuf []uint64) error {
	c.Kind, c.Null, c.Str, c.Box = s.kind, nil, nil, nil
	if s.nulls != nil && s.kind != vec.Any {
		c.Null = unpackNulls(s.nulls, n, nullBuf)
	}
	switch s.kind {
	case vec.Int, vec.Int32, vec.Int64, vec.Uint64:
		c.I64 = mirror(c.I64, n)
		s.unpack(c.I64, nil)
	case vec.Float64:
		c.F64 = mirror(c.F64, n)
		for i := range c.F64 {
			c.F64[i] = math.Float64frombits(binary.LittleEndian.Uint64(s.data[8*i:]))
		}
	case vec.Bool:
		c.B = mirror(c.B, n)
		for i := range c.B {
			c.B[i] = s.data[i>>3]&(1<<(uint(i)&7)) != 0
		}
	case vec.String:
		c.Str = make([]string, n)
		return s.denseStrings(c.Str)
	case vec.Any:
		// Any columns mark nulls in Box directly and carry no bitmap.
		c.Box = make([]any, n)
		return s.values(c.Box, nil, n)
	default:
		return errColKind
	}
	return nil
}

// decodeCol decodes the rows sel (ascending; nil = all n) of the
// located column s into c, a dense column in storage of its own.
//
//hierdb:hotpath
func (d *Decoder) decodeCol(s *colSpan, c *vec.Col, n int, sel []int32) error {
	if sel == nil {
		return s.dense(c, n, nil)
	}
	k := len(sel)
	c.Kind = s.kind
	if s.nulls != nil && s.kind != vec.Any {
		c.Null = s.selectNulls(sel)
	}
	switch s.kind {
	case vec.Int, vec.Int32, vec.Int64, vec.Uint64:
		c.I64 = make([]int64, k)
		s.unpack(c.I64, sel)
	case vec.Float64:
		c.F64 = make([]float64, k)
		for j, li := range sel {
			c.F64[j] = math.Float64frombits(binary.LittleEndian.Uint64(s.data[8*int(li):]))
		}
	case vec.Bool:
		c.B = make([]bool, k)
		for j, li := range sel {
			c.B[j] = s.data[li>>3]&(1<<(uint(li)&7)) != 0
		}
	case vec.String:
		c.Str = make([]string, k)
		return d.gatherStrings(s, c.Str, sel)
	case vec.Any:
		c.Box = make([]any, k)
		return s.values(c.Box, sel, n)
	default:
		return errColKind
	}
	return nil
}

// unpack reads the rows sel (nil = every row) of an int column into
// dst; a null row reads 0.
//
//hierdb:hotpath
func (s *colSpan) unpack(dst []int64, sel []int32) {
	pk := s.ints
	fast := pk.fastRows()
	if sel == nil {
		m := min(len(dst), fast)
		unpackRun(dst[:m], pk.words, pk.base, pk.w)
		for j := m; j < len(dst); j++ {
			dst[j] = int64(pk.at(j))
		}
	} else {
		m := len(sel) // sel ascends: the rows past fast are its tail
		for m > 0 && int(sel[m-1]) >= fast {
			m--
		}
		unpackSel(dst[:m], sel[:m], pk.words, pk.base, pk.w)
		for j := m; j < len(sel); j++ {
			dst[j] = int64(pk.at(int(sel[j])))
		}
	}
	if s.nulls == nil {
		return
	}
	for j := range dst {
		row := j
		if sel != nil {
			row = int(sel[j])
		}
		if s.null(row) {
			dst[j] = 0
		}
	}
}

// unpackRun sets dst[j] to row j's value, every row below fastRows:
// at1 with the bit offset carried from row to row.
//
//hierdb:hotpath
func unpackRun(dst []int64, words []byte, base uint64, w uint) {
	mask, p := uint64(1)<<w-1, uint(0)
	for j := range dst {
		dst[j] = int64(base + binary.LittleEndian.Uint64(words[p>>3:])>>(p&7)&mask)
		p += w
	}
}

// unpackSel sets dst[j] to row sel[j]'s value, every row below
// fastRows: at1 over sel.
//
//hierdb:hotpath
func unpackSel(dst []int64, sel []int32, words []byte, base uint64, w uint) {
	for j, li := range sel {
		dst[j] = int64(at1(words, base, w, int(li)))
	}
}

// denseStrings backs every row of a string column with one string — the
// bytes region, copied out of the (reused) read buffer once — so a
// string column costs one allocation per batch instead of one per
// value.
//
//hierdb:hotpath
func (s *colSpan) denseStrings(dst []string) error {
	blob, ends := string(s.data), s.ints
	fast := ends.fastRows()
	words, base, w := ends.words, ends.base, ends.w
	prev := uint64(0)
	for i := range dst {
		var end uint64
		if i < fast {
			end = at1(words, base, w, i)
		} else {
			end = ends.at(i)
		}
		if end < prev || end > uint64(len(blob)) {
			return errStringEnds
		}
		dst[i] = blob[prev:end]
		prev = end
	}
	return nil
}

// gatherStrings copies the strings of the rows sel into one blob
// holding nothing else: the first pass looks up and checks where each
// lies, the second copies and slices them.
//
//hierdb:hotpath
func (d *Decoder) gatherStrings(s *colSpan, dst []string, sel []int32) error {
	bounds, ends := d.bounds[:0], s.ints
	fast := ends.fastRows()
	words, base, w := ends.words, ends.base, ends.w
	total := uint64(0)
	for _, li := range sel {
		var start, end uint64
		switch row := int(li); {
		case row < fast && row > 0:
			start, end = at1(words, base, w, row-1), at1(words, base, w, row)
		case row < fast:
			end = at1(words, base, w, row)
		case row > 0:
			start, end = ends.at(row-1), ends.at(row)
		default:
			end = ends.at(row)
		}
		if end < start || end > uint64(len(s.data)) {
			return errStringEnds
		}
		bounds = append(bounds, int(start), int(end))
		total += end - start
	}
	d.bounds = bounds
	var blob strings.Builder
	blob.Grow(int(total))
	for j := range dst {
		blob.Write(s.data[bounds[2*j]:bounds[2*j+1]])
	}
	str, o := blob.String(), 0
	for j := range dst {
		ln := bounds[2*j+1] - bounds[2*j]
		dst[j] = str[o : o+ln]
		o += ln
	}
	return nil
}

// values decodes the tagged values of the rows sel (nil = all n) of an
// Any column into dst, walking its payload: the values of the rows
// between are only delimited. A full decode must use the payload up
// exactly.
//
//hierdb:hotpath
func (s *colSpan) values(dst []any, sel []int32, n int) error {
	buf := s.data
	var err error
	for row, j := 0, 0; row < n && j < len(dst); row++ {
		want := sel == nil || int(sel[j]) == row
		switch {
		case s.null(row):
		case want:
			if dst[j], buf, err = decodeValue(buf); err != nil {
				return err
			}
		default:
			if buf, err = skipValue(buf); err != nil {
				return err
			}
		}
		if want {
			j++
		}
	}
	if sel == nil && len(buf) != 0 {
		return errAnyLen
	}
	return nil
}

// mirror returns n elements of typed storage, s's own when it is large
// enough and fresh otherwise. The decoders write every element.
//
//hierdb:hotpath
func mirror[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// unpackNulls widens the codec's byte-packed null bitmap over n rows to
// vec's word-packed one (both little-endian, bit set = null), in into's
// storage when that is large enough. Bits past n are cleared.
//
//hierdb:hotpath
func unpackNulls(packed []byte, n int, into []uint64) []uint64 {
	null := mirror(into, (n+63)/64)
	clear(null)
	for i, b := range packed {
		null[i>>3] |= uint64(b) << (8 * (uint(i) & 7))
	}
	if r := uint(n) & 63; r != 0 {
		null[len(null)-1] &= 1<<r - 1
	}
	return null
}

// selectNulls projects the column's null bitmap onto the rows sel: bit
// j of the result is the null bit of row sel[j]. nil when none of them
// is null.
//
//hierdb:hotpath
func (s *colSpan) selectNulls(sel []int32) []uint64 {
	var out []uint64
	for j, li := range sel {
		if s.null(int(li)) {
			if out == nil {
				out = make([]uint64, (len(sel)+63)/64)
			}
			out[j>>6] |= 1 << (uint(j) & 63)
		}
	}
	return out
}

// skipValue steps over one tagged value of an Any column payload.
//
//hierdb:hotpath
func skipValue(buf []byte) ([]byte, error) {
	if len(buf) == 0 {
		return nil, errTruncValue
	}
	tag := buf[0]
	buf = buf[1:]
	switch tag {
	case tagNil, tagFalse, tagTrue:
		return buf, nil
	case tagInt, tagInt32, tagInt64, tagUint64:
		for i, b := range buf {
			if b < 0x80 {
				return buf[i+1:], nil
			}
		}
		return nil, errTruncValue
	case tagFloat64:
		if len(buf) < 8 {
			return nil, errTruncFloat
		}
		return buf[8:], nil
	case tagString:
		ln, w := binary.Uvarint(buf)
		if w <= 0 || uint64(len(buf)-w) < ln {
			return nil, errTruncString
		}
		return buf[w+int(ln):], nil
	}
	return nil, errValueTag
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
