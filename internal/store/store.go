// Package store is the engine's persistent columnar table format: one
// file per table, laid out as fixed-size row-group chunks followed by
// a self-describing footer. Each chunk is one batch in the spill
// package's columnar encoding (kind byte + packed null bitmap + a
// random-access payload per column: bit-packed ints, fixed-width floats,
// a bool bitmap, offset-indexed strings — see
// internal/spill/colcodec.go), so table files and spill partitions
// share a single codec, and a filtered chunk read gathers only the rows
// its predicates keep. The footer carries the schema, the chunk
// directory (offset/length/rows), per-chunk min/max zone maps for every
// column, total row count, a format version and a checksum (of the
// footer only: chunks carry none), so Open needs one ReadAt of the file
// tail and every chunk decodes independently — concurrent scans issue
// ReadAt per chunk with no shared cursor. The magic's last two digits
// are the format generation; Open reads only the current one.
//
// File layout:
//
//	[chunk 0][chunk 1]...[chunk k-1][footer][crc32 4B LE][footer len 8B LE][magic 8B]
//
// The footer (uvarint-based, version byte first) holds:
//
//	version byte (currently 2)
//	uvarint ncols; per column: uvarint name length + name bytes, kind byte
//	uvarint total rows
//	uvarint nchunks; per chunk:
//	  uvarint offset, uvarint encoded length, uvarint rows
//	  per column: zone map (flags byte, kind byte, min/max payload)
//
// Zone maps record, per chunk per column, whether nulls and non-nulls
// are present and — for typed columns — the min/max of the non-null
// values (floats: of the non-NaN values, with a separate has-NaN flag,
// because the predicate kernel's NaN comparisons are non-standard).
// Scans consult them (prune.go) to prove, before paying any I/O or
// decode, that a chunk matches no row of an ANDed predicate set —
// Skippable — or that a predicate holds for every row of the chunk and
// need not be evaluated on it (ReadChunkWhere).
package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"hierdb/internal/vec"
)

// Generation is the table-file format this build writes and reads. It
// is the two trailing digits of the magic: a layout change that can't
// hide behind the footer version byte — generation 2 re-encoded every
// chunk payload (internal/spill/colcodec.go) — bumps it, and a file of
// another generation fails Open with an error that names it. Generation
// 1 files must be rewritten.
const Generation = 2

// magic trails every table file: a fixed prefix, then Generation as two
// decimal digits.
var magic = [8]byte{'h', 'd', 'b', 't', 'b', 'l', '0' + Generation/10, '0' + Generation%10}

const (
	footerVersion = 2
	// trailerLen is the fixed-size tail after the footer bytes: crc32,
	// footer length, magic.
	trailerLen = 4 + 8 + 8
	// DefaultChunkRows is the writer's default row-group size: small
	// enough that a decoded chunk fits comfortably inside even the tiny
	// test memory budgets, large enough to amortize per-chunk framing.
	DefaultChunkRows = 4096
)

// ZoneMap summarizes one column within one chunk. The Kind is the
// chunk-local encoded kind (an all-null chunk of an int column encodes
// as Any), and the min/max fields are valid per HasRange:
// MinI64/MaxI64 for the int family (uint64 as bit patterns compared
// unsigned, bool as 0/1), MinF64/MaxF64 for floats (over the non-NaN
// values only), MinStr/MaxStr for strings. Any columns never carry a
// range and are only prunable through the null-presence flags.
type ZoneMap struct {
	Kind       vec.Kind
	HasNulls   bool // at least one null row
	HasNonNull bool // at least one non-null row
	HasRange   bool // min/max valid: ≥1 non-null (and, for floats, non-NaN) value
	HasNaN     bool // float columns: at least one NaN value present
	MinI64     int64
	MaxI64     int64
	MinF64     float64
	MaxF64     float64
	MinStr     string
	MaxStr     string
}

// ChunkInfo locates one chunk and carries its per-column zone maps.
type ChunkInfo struct {
	// Off is the chunk's byte offset in the file.
	Off int64
	// Len is the encoded chunk length in bytes — the I/O cost of
	// scanning the chunk, surfaced as DiskBytesRead.
	Len int64
	// Rows is the chunk's row count.
	Rows int
	// Zones holds one zone map per table column.
	Zones []ZoneMap
}

// footer is the decoded file tail.
type footer struct {
	cols   []string
	kinds  []vec.Kind
	rows   int64
	chunks []ChunkInfo
}

// zone map flag bits (part of the on-disk format).
const (
	zfNulls   = 1 << 0
	zfNonNull = 1 << 1
	zfRange   = 1 << 2
	zfNaN     = 1 << 3
)

func appendFooter(buf []byte, ft *footer) []byte {
	buf = append(buf, footerVersion)
	buf = binary.AppendUvarint(buf, uint64(len(ft.cols)))
	for i, name := range ft.cols {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		buf = append(buf, byte(ft.kinds[i]))
	}
	buf = binary.AppendUvarint(buf, uint64(ft.rows))
	buf = binary.AppendUvarint(buf, uint64(len(ft.chunks)))
	for ci := range ft.chunks {
		ch := &ft.chunks[ci]
		buf = binary.AppendUvarint(buf, uint64(ch.Off))
		buf = binary.AppendUvarint(buf, uint64(ch.Len))
		buf = binary.AppendUvarint(buf, uint64(ch.Rows))
		for zi := range ch.Zones {
			buf = appendZone(buf, &ch.Zones[zi])
		}
	}
	return buf
}

func appendZone(buf []byte, z *ZoneMap) []byte {
	var flags byte
	if z.HasNulls {
		flags |= zfNulls
	}
	if z.HasNonNull {
		flags |= zfNonNull
	}
	if z.HasRange {
		flags |= zfRange
	}
	if z.HasNaN {
		flags |= zfNaN
	}
	buf = append(buf, flags, byte(z.Kind))
	if !z.HasRange {
		return buf
	}
	switch z.Kind {
	case vec.Int, vec.Int32, vec.Int64, vec.Bool:
		buf = binary.AppendVarint(buf, z.MinI64)
		buf = binary.AppendVarint(buf, z.MaxI64)
	case vec.Uint64:
		buf = binary.AppendUvarint(buf, uint64(z.MinI64))
		buf = binary.AppendUvarint(buf, uint64(z.MaxI64))
	case vec.Float64:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(z.MinF64))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(z.MaxF64))
	case vec.String:
		buf = binary.AppendUvarint(buf, uint64(len(z.MinStr)))
		buf = append(buf, z.MinStr...)
		buf = binary.AppendUvarint(buf, uint64(len(z.MaxStr)))
		buf = append(buf, z.MaxStr...)
	}
	return buf
}

func decodeFooter(buf []byte) (*footer, error) {
	if len(buf) < 1 {
		return nil, fmt.Errorf("empty footer")
	}
	if buf[0] != footerVersion {
		return nil, fmt.Errorf("unsupported footer version %d (want %d)", buf[0], footerVersion)
	}
	buf = buf[1:]
	ncols, buf, err := readUvarint(buf)
	if err != nil {
		return nil, fmt.Errorf("column count: %w", err)
	}
	if ncols > uint64(len(buf)) {
		return nil, fmt.Errorf("corrupt column count %d", ncols)
	}
	ft := &footer{
		cols:  make([]string, ncols),
		kinds: make([]vec.Kind, ncols),
	}
	for i := range ft.cols {
		var nl uint64
		if nl, buf, err = readUvarint(buf); err != nil {
			return nil, fmt.Errorf("column name: %w", err)
		}
		if uint64(len(buf)) < nl+1 {
			return nil, fmt.Errorf("truncated column name")
		}
		ft.cols[i] = string(buf[:nl])
		ft.kinds[i] = vec.Kind(buf[nl])
		if ft.kinds[i] > vec.String {
			return nil, fmt.Errorf("unknown column kind %d", buf[nl])
		}
		buf = buf[nl+1:]
	}
	rows, buf, err := readUvarint(buf)
	if err != nil {
		return nil, fmt.Errorf("row count: %w", err)
	}
	ft.rows = int64(rows)
	nchunks, buf, err := readUvarint(buf)
	if err != nil {
		return nil, fmt.Errorf("chunk count: %w", err)
	}
	if nchunks > uint64(len(buf))+1 { // ≥1 byte per chunk entry (except a lone zero-col chunk)
		return nil, fmt.Errorf("corrupt chunk count %d", nchunks)
	}
	ft.chunks = make([]ChunkInfo, nchunks)
	for ci := range ft.chunks {
		ch := &ft.chunks[ci]
		var off, ln, rows uint64
		if off, buf, err = readUvarint(buf); err != nil {
			return nil, fmt.Errorf("chunk %d offset: %w", ci, err)
		}
		if ln, buf, err = readUvarint(buf); err != nil {
			return nil, fmt.Errorf("chunk %d length: %w", ci, err)
		}
		if rows, buf, err = readUvarint(buf); err != nil {
			return nil, fmt.Errorf("chunk %d rows: %w", ci, err)
		}
		ch.Off, ch.Len, ch.Rows = int64(off), int64(ln), int(rows)
		ch.Zones = make([]ZoneMap, ncols)
		for zi := range ch.Zones {
			if buf, err = decodeZone(buf, &ch.Zones[zi]); err != nil {
				return nil, fmt.Errorf("chunk %d zone %d: %w", ci, zi, err)
			}
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%d trailing footer bytes", len(buf))
	}
	return ft, nil
}

func decodeZone(buf []byte, z *ZoneMap) ([]byte, error) {
	if len(buf) < 2 {
		return nil, fmt.Errorf("truncated zone map")
	}
	flags := buf[0]
	z.Kind = vec.Kind(buf[1])
	if z.Kind > vec.String {
		return nil, fmt.Errorf("unknown zone kind %d", buf[1])
	}
	z.HasNulls = flags&zfNulls != 0
	z.HasNonNull = flags&zfNonNull != 0
	z.HasRange = flags&zfRange != 0
	z.HasNaN = flags&zfNaN != 0
	buf = buf[2:]
	if !z.HasRange {
		return buf, nil
	}
	var err error
	switch z.Kind {
	case vec.Int, vec.Int32, vec.Int64, vec.Bool:
		if z.MinI64, buf, err = readVarint(buf); err != nil {
			return nil, err
		}
		if z.MaxI64, buf, err = readVarint(buf); err != nil {
			return nil, err
		}
	case vec.Uint64:
		var u uint64
		if u, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		z.MinI64 = int64(u)
		if u, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		z.MaxI64 = int64(u)
	case vec.Float64:
		if len(buf) < 16 {
			return nil, fmt.Errorf("truncated float range")
		}
		z.MinF64 = math.Float64frombits(binary.LittleEndian.Uint64(buf))
		z.MaxF64 = math.Float64frombits(binary.LittleEndian.Uint64(buf[8:]))
		buf = buf[16:]
	case vec.String:
		var nl uint64
		if nl, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		if nl > uint64(len(buf)) {
			return nil, fmt.Errorf("truncated string range")
		}
		z.MinStr = string(buf[:nl])
		buf = buf[nl:]
		if nl, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		if nl > uint64(len(buf)) {
			return nil, fmt.Errorf("truncated string range")
		}
		z.MaxStr = string(buf[:nl])
		buf = buf[nl:]
	default:
		return nil, fmt.Errorf("zone range on kind %s", z.Kind)
	}
	return buf, nil
}

func readUvarint(buf []byte) (uint64, []byte, error) {
	v, w := binary.Uvarint(buf)
	if w <= 0 {
		return 0, nil, fmt.Errorf("truncated uvarint")
	}
	return v, buf[w:], nil
}

func readVarint(buf []byte) (int64, []byte, error) {
	v, w := binary.Varint(buf)
	if w <= 0 {
		return 0, nil, fmt.Errorf("truncated varint")
	}
	return v, buf[w:], nil
}

// zoneFor computes the zone map of one dense chunk column (storage
// position == logical row, as FromRows produces).
func zoneFor(c *vec.Col, n int) ZoneMap {
	z := ZoneMap{Kind: c.Kind}
	switch c.Kind {
	case vec.Int, vec.Int32, vec.Int64:
		for i := 0; i < n; i++ {
			if c.NullAt(i) {
				z.HasNulls = true
				continue
			}
			v := c.I64[i]
			if !z.HasRange || v < z.MinI64 {
				z.MinI64 = v
			}
			if !z.HasRange || v > z.MaxI64 {
				z.MaxI64 = v
			}
			z.HasRange, z.HasNonNull = true, true
		}
	case vec.Uint64:
		for i := 0; i < n; i++ {
			if c.NullAt(i) {
				z.HasNulls = true
				continue
			}
			v := uint64(c.I64[i])
			if !z.HasRange || v < uint64(z.MinI64) {
				z.MinI64 = int64(v)
			}
			if !z.HasRange || v > uint64(z.MaxI64) {
				z.MaxI64 = int64(v)
			}
			z.HasRange, z.HasNonNull = true, true
		}
	case vec.Float64:
		for i := 0; i < n; i++ {
			if c.NullAt(i) {
				z.HasNulls = true
				continue
			}
			z.HasNonNull = true
			v := c.F64[i]
			if v != v {
				z.HasNaN = true
				continue
			}
			if !z.HasRange || v < z.MinF64 {
				z.MinF64 = v
			}
			if !z.HasRange || v > z.MaxF64 {
				z.MaxF64 = v
			}
			z.HasRange = true
		}
	case vec.Bool:
		for i := 0; i < n; i++ {
			if c.NullAt(i) {
				z.HasNulls = true
				continue
			}
			var v int64
			if c.B[i] {
				v = 1
			}
			if !z.HasRange || v < z.MinI64 {
				z.MinI64 = v
			}
			if !z.HasRange || v > z.MaxI64 {
				z.MaxI64 = v
			}
			z.HasRange, z.HasNonNull = true, true
		}
	case vec.String:
		for i := 0; i < n; i++ {
			if c.NullAt(i) {
				z.HasNulls = true
				continue
			}
			v := c.Str[i]
			if !z.HasRange || v < z.MinStr {
				z.MinStr = v
			}
			if !z.HasRange || v > z.MaxStr {
				z.MaxStr = v
			}
			z.HasRange, z.HasNonNull = true, true
		}
	default: // Any: null presence only, never a range
		for i := 0; i < n; i++ {
			if c.Value(i) == nil {
				z.HasNulls = true
			} else {
				z.HasNonNull = true
			}
		}
	}
	return z
}
