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
package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"

	"hierdb/internal/vec"
)

// Value type tags of an Any column's payload. The tag order is part of
// the on-disk format; tagAbsent marks ragged-row padding.
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
	tagAbsent
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
// count into a dense columnar batch. The byte-level half of ReadCols,
// exported for the same reason as EncodeCols. Trailing bytes after the
// batch are an error — a chunk boundary is exact.
func DecodeCols(buf []byte, rows int) (*vec.Batch, error) {
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
	b := &vec.Batch{Cols: make([]vec.Col, ncols), N: rows}
	for ci := range b.Cols {
		var err error
		if buf, err = decodeCol(buf, &b.Cols[ci], rows); err != nil {
			return nil, err
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after batch", len(buf))
	}
	return b, nil
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
			if vec.IsAbsent(v) {
				buf = append(buf, tagAbsent)
				continue
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

// readBufs recycles the ReadAt buffers of ReadColsAt. DecodeCols copies
// everything it keeps out of its input (each string column into one
// string of its own), so a buffer is free again as soon as the decode
// returns; sync.Pool's per-P caches make that one buffer per worker in
// steady state.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// ReadColsAt reads the n bytes at off from r and decodes them as one
// EncodeCols-encoded batch of the given row count — the read half
// shared by spill partitions (File.ReadCols) and table-file chunks
// (store.ReadChunk). Safe for concurrent callers.
func ReadColsAt(r io.ReaderAt, off, n int64, rows int) (*vec.Batch, error) {
	bp := readBufs.Get().(*[]byte)
	defer readBufs.Put(bp)
	if int64(cap(*bp)) < n {
		*bp = make([]byte, n)
	}
	buf := (*bp)[:n]
	if _, err := r.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("read: %w", err)
	}
	return DecodeCols(buf, rows)
}

// Decode failures. Sentinels rather than fmt calls: the per-kind
// decoders are hot paths.
var (
	errTruncVarint  = errors.New("truncated varint")
	errTruncUvarint = errors.New("truncated uvarint")
	errTruncFloat   = errors.New("truncated float64")
	errTruncBool    = errors.New("truncated bool payload")
	errTruncString  = errors.New("truncated string")
)

// decodeCol decodes one column of n rows into c. A typed kind decodes
// into its mirror and null bitmap only — the column comes out boxless,
// and vec boxes whichever values survive to a Row boundary or a build
// store — through one tight loop per kind; only an Any column, which
// has no mirror, decodes into Box.
func decodeCol(buf []byte, c *vec.Col, n int) ([]byte, error) {
	if len(buf) < 2 {
		return nil, fmt.Errorf("truncated column header")
	}
	c.Kind = vec.Kind(buf[0])
	hasNulls := buf[1] == 1
	buf = buf[2:]
	var null []uint64
	if hasNulls {
		nb := (n + 7) / 8
		if len(buf) < nb {
			return nil, fmt.Errorf("truncated null bitmap")
		}
		null = unpackNulls(buf[:nb], n)
		buf = buf[nb:]
	}
	switch c.Kind {
	case vec.Int, vec.Int32, vec.Int64:
		c.I64, c.Null = make([]int64, n), null
		return decodeVarints(buf, c.I64, null)
	case vec.Uint64:
		c.I64, c.Null = make([]int64, n), null
		return decodeUvarints(buf, c.I64, null)
	case vec.Float64:
		c.F64, c.Null = make([]float64, n), null
		return decodeFloats(buf, c.F64, null)
	case vec.Bool:
		c.B, c.Null = make([]bool, n), null
		return decodeBools(buf, c.B, null)
	case vec.String:
		c.Str, c.Null = make([]string, n), null
		return decodeStrings(buf, c.Str, null)
	case vec.Any:
		// Any columns mark nulls in Box directly and carry no bitmap.
		c.Box = make([]any, n)
		for i := range c.Box {
			if nullAt(null, i) {
				continue
			}
			var err error
			if c.Box[i], buf, err = decodeValue(buf); err != nil {
				return nil, err
			}
		}
		return buf, nil
	}
	return nil, fmt.Errorf("unknown column kind %d", c.Kind)
}

// unpackNulls widens the codec's byte-packed null bitmap over n rows to
// vec's word-packed one (both little-endian, bit set = null). Bits past
// n are cleared so the decoders can count nulls by population.
func unpackNulls(packed []byte, n int) []uint64 {
	null := make([]uint64, (n+63)/64)
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

// decodeStrings backs the whole column with one string — the payload
// region, length prefixes included, copied out of the (reused) read
// buffer once — and points every value into it, so a string column
// costs one allocation per batch instead of one per value. The first
// pass finds and validates the region, the second slices it.
//
//hierdb:hotpath
func decodeStrings(buf []byte, dst []string, null []uint64) ([]byte, error) {
	end := 0
	for i := range dst {
		if nullAt(null, i) {
			continue
		}
		ln, w := binary.Uvarint(buf[end:])
		if w <= 0 || uint64(len(buf)-end-w) < ln {
			return nil, errTruncString
		}
		end += w + int(ln)
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

// decodeValue decodes one tagged value of an Any column payload.
func decodeValue(buf []byte) (any, []byte, error) {
	if len(buf) == 0 {
		return nil, nil, fmt.Errorf("truncated value")
	}
	tag := buf[0]
	buf = buf[1:]
	switch tag {
	case tagAbsent:
		return vec.Absent, buf, nil
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
