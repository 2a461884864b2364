// Table-file reader. Open validates the trailer (magic, footer length,
// checksum) and decodes the footer with at most two ReadAts — one for
// the tail, a second only when the footer outgrows the speculative
// tail read. After that every chunk is independent: ReadChunk issues
// its own ReadAt and decode, so concurrent scan activations stream
// disjoint chunks with no shared cursor or cache.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"hierdb/internal/spill"
	"hierdb/internal/vec"
)

// tailProbe is how much of the file tail Open reads speculatively; a
// footer that fits (the common case: footers are a few hundred bytes
// per chunk) costs a single ReadAt.
const tailProbe = 64 << 10

// TableFile is one opened table file. All methods except Close are
// read-only and safe for concurrent use; Close is idempotent and the
// engine guarantees no ReadChunk races it (the facade closes files
// only after every query over them has drained).
type TableFile struct {
	mu   sync.Mutex //hierdb:lock storefile
	f    *os.File
	path string
	ft   *footer
}

// Open opens and validates a table file.
func Open(path string) (*TableFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	t, err := open(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

func open(f *os.File, path string) (*TableFile, error) {
	name := filepath.Base(path)
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", name, err)
	}
	size := st.Size()
	if size < trailerLen {
		return nil, fmt.Errorf("store: %s: too short (%d bytes) to be a table file", name, size)
	}
	probe := int64(tailProbe)
	if probe > size {
		probe = size
	}
	tail := make([]byte, probe)
	if _, err := f.ReadAt(tail, size-probe); err != nil {
		return nil, fmt.Errorf("store: %s: read trailer: %w", name, err)
	}
	if [8]byte(tail[len(tail)-8:]) != magic {
		return nil, fmt.Errorf("store: %s: bad magic (not a table file, or writer never Closed)", name)
	}
	flen := int64(binary.LittleEndian.Uint64(tail[len(tail)-16 : len(tail)-8]))
	if flen <= 0 || flen+trailerLen > size {
		return nil, fmt.Errorf("store: %s: corrupt footer length %d", name, flen)
	}
	var fbuf []byte
	if flen+trailerLen <= probe {
		fbuf = tail[probe-flen-trailerLen : probe-trailerLen]
	} else {
		fbuf = make([]byte, flen)
		if _, err := f.ReadAt(fbuf, size-flen-trailerLen); err != nil {
			return nil, fmt.Errorf("store: %s: read footer: %w", name, err)
		}
	}
	wantCRC := binary.LittleEndian.Uint32(tail[len(tail)-20 : len(tail)-16])
	if got := crc32.ChecksumIEEE(fbuf); got != wantCRC {
		return nil, fmt.Errorf("store: %s: footer checksum mismatch (file %08x, computed %08x)", name, wantCRC, got)
	}
	ft, err := decodeFooter(fbuf)
	if err != nil {
		return nil, fmt.Errorf("store: %s: footer: %w", name, err)
	}
	dataEnd := size - flen - trailerLen
	var rows int64
	for ci := range ft.chunks {
		ch := &ft.chunks[ci]
		if ch.Rows <= 0 || ch.Len <= 0 || ch.Off < 0 || ch.Off+ch.Len > dataEnd {
			return nil, fmt.Errorf("store: %s: chunk %d directory entry out of bounds", name, ci)
		}
		rows += int64(ch.Rows)
	}
	if rows != ft.rows {
		return nil, fmt.Errorf("store: %s: footer rows %d != chunk directory sum %d", name, ft.rows, rows)
	}
	return &TableFile{f: f, path: path, ft: ft}, nil
}

// Path returns the file's path.
func (t *TableFile) Path() string { return t.path }

// Cols returns the column names. Callers must not mutate.
func (t *TableFile) Cols() []string { return t.ft.cols }

// Kinds returns the schema kind per column — the kind a resident
// vec.FromRows over the full table would have resolved. Callers must
// not mutate.
func (t *TableFile) Kinds() []vec.Kind { return t.ft.kinds }

// NumRows returns the total row count.
func (t *TableFile) NumRows() int64 { return t.ft.rows }

// NumChunks returns the chunk count.
func (t *TableFile) NumChunks() int { return len(t.ft.chunks) }

// Chunk returns chunk i's directory entry (offset, encoded length,
// rows, zone maps). Callers must not mutate the zone maps.
func (t *TableFile) Chunk(i int) *ChunkInfo { return &t.ft.chunks[i] }

// ReadChunk reads and decodes chunk i as a dense batch with every
// column coerced to the schema kind, so chunk-streamed scans present
// exactly the kinds a resident table would. Typed columns come back
// boxless (mirror and null bitmap only — see internal/vec); read their
// values through Col.Value. Safe for concurrent callers.
func (t *TableFile) ReadChunk(i int) (*vec.Batch, error) {
	ch := &t.ft.chunks[i]
	t.mu.Lock()
	f := t.f
	t.mu.Unlock()
	if f == nil {
		return nil, fmt.Errorf("store: %s: read chunk %d: file closed", filepath.Base(t.path), i)
	}
	b, err := spill.ReadColsAt(f, ch.Off, ch.Len, ch.Rows)
	if err != nil {
		return nil, fmt.Errorf("store: %s: chunk %d: %w", filepath.Base(t.path), i, err)
	}
	if len(b.Cols) != len(t.ft.kinds) {
		return nil, fmt.Errorf("store: %s: chunk %d has %d columns, schema has %d", filepath.Base(t.path), i, len(b.Cols), len(t.ft.kinds))
	}
	for ci := range b.Cols {
		if err := coerceKind(&b.Cols[ci], t.ft.kinds[ci], b.N); err != nil {
			return nil, fmt.Errorf("store: %s: chunk %d column %d: %w", filepath.Base(t.path), i, ci, err)
		}
	}
	return b, nil
}

// coerceKind reconciles a chunk-local column kind with the schema
// kind. Two legitimate mismatches exist: a typed chunk in an Any
// column (another chunk mixed the types) degrades to boxed, and an
// all-null chunk (encoded Any) in a typed column promotes to a fully
// null typed column. A typed-vs-other-typed mismatch cannot come from
// the writer and reports corruption.
func coerceKind(c *vec.Col, want vec.Kind, n int) error {
	if c.Kind == want {
		return nil
	}
	if want == vec.Any {
		// An Any column lives in its Box (nulls are nil there): box the
		// decoded mirror, then forget it and the bitmap.
		c.FillBox()
		c.Kind = vec.Any
		c.I64, c.F64, c.Str, c.B, c.Null = nil, nil, nil, nil, nil
		return nil
	}
	if c.Kind != vec.Any {
		return fmt.Errorf("kind %s under schema kind %s", c.Kind, want)
	}
	for i := 0; i < n; i++ {
		if c.Value(i) != nil {
			return fmt.Errorf("non-null value in an all-null-encoded chunk of schema kind %s", want)
		}
	}
	// Promoted like any decoded typed column: mirror and bitmap, no Box.
	c.Kind, c.Box = want, nil
	switch want {
	case vec.Int, vec.Int32, vec.Int64, vec.Uint64:
		c.I64 = make([]int64, n)
	case vec.Float64:
		c.F64 = make([]float64, n)
	case vec.Bool:
		c.B = make([]bool, n)
	case vec.String:
		c.Str = make([]string, n)
	}
	c.Null = make([]uint64, (n+63)/64)
	for w := range c.Null {
		c.Null[w] = ^uint64(0) // bits past n are never queried
	}
	return nil
}

// Close closes the file handle. Idempotent; the file stays on disk.
func (t *TableFile) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f = nil
	return err
}
