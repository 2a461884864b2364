// Table-file reader. Open validates the trailer (magic, footer length,
// checksum) and decodes the footer with at most two ReadAts — one for
// the tail, a second only when the footer outgrows the speculative
// tail read. After that every chunk is independent: ReadChunkWhere
// issues its own ReadAt and decode, so concurrent scan activations
// stream disjoint chunks with no shared cursor or cache — each through
// its worker's Scanner, which filters inside the decoder and hands back
// only the rows the scan predicates keep.
package store

import (
	"encoding/binary"
	"errors"
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

// ErrTableFile is matched (errors.Is) by every failure to read or decode
// a chunk of an opened table file: the file was truncated, replaced or
// corrupted after Open validated its footer.
var ErrTableFile = errors.New("store: table file unreadable")

// ChunkError is a chunk read or decode failure: which file, which
// chunk, and the I/O or codec error underneath.
type ChunkError struct {
	Path  string
	Chunk int
	Err   error
}

func (e *ChunkError) Error() string {
	return fmt.Sprintf("store: %s: chunk %d: %v", filepath.Base(e.Path), e.Chunk, e.Err)
}

func (e *ChunkError) Unwrap() error { return e.Err }

// Is makes every ChunkError match ErrTableFile.
func (e *ChunkError) Is(target error) bool { return target == ErrTableFile }

// Scanner is one scan worker's reusable chunk-read state: the column
// decoder's scratch mirrors and the list of predicates a chunk's zone
// maps leave undecided. The zero value is ready; not safe for
// concurrent use.
type Scanner struct {
	dec   spill.Decoder
	preds []vec.Pred
}

// ReadChunk reads and decodes every row of chunk i — ReadChunkWhere
// without predicates.
func (t *TableFile) ReadChunk(i int) (*vec.Batch, error) {
	return t.ReadChunkWhere(i, nil, nil)
}

// ReadChunkWhere reads chunk i and returns the rows satisfying every
// predicate (ANDed, with the semantics of vec.ApplyPreds) as a dense
// batch, in row order, with every column coerced to the schema kind, so
// chunk-streamed scans present exactly the kinds a resident table
// would. Typed columns come back as every typed column is, mirror and
// null bitmap and no Box (see internal/vec); read their values through
// Col.Value. The batch owns its storage, and is empty and without
// columns when no row qualifies.
//
// Predicates the chunk's zone maps prove true of every row are dropped
// before the decode, which evaluates the rest on the encoded chunk (see
// spill.Decoder) and materializes the surviving rows only; a chunk whose
// selection empties part-way is abandoned there, its remaining bytes
// unread and unvalidated. sc carries the scratch between calls (nil
// allocates it afresh). Safe for concurrent callers with distinct
// Scanners. Failures are *ChunkError.
func (t *TableFile) ReadChunkWhere(i int, preds []vec.Pred, sc *Scanner) (*vec.Batch, error) {
	b, err := t.readChunk(i, preds, sc)
	if err != nil {
		return nil, &ChunkError{Path: t.path, Chunk: i, Err: err}
	}
	return b, nil
}

func (t *TableFile) readChunk(i int, preds []vec.Pred, sc *Scanner) (*vec.Batch, error) {
	ch := &t.ft.chunks[i]
	var dec *spill.Decoder
	if len(preds) > 0 {
		if sc == nil {
			sc = new(Scanner)
		}
		dec, sc.preds = &sc.dec, sc.preds[:0]
		for pi := range preds {
			switch t.zoneMatch(ch, &preds[pi]) {
			case matchNone:
				return &vec.Batch{}, nil
			case matchSome:
				sc.preds = append(sc.preds, preds[pi])
			}
		}
		preds = sc.preds
	}
	t.mu.Lock()
	f := t.f
	t.mu.Unlock()
	if f == nil {
		return nil, os.ErrClosed
	}
	b, err := dec.ReadAt(f, ch.Off, ch.Len, ch.Rows, preds)
	if err != nil || b.N == 0 {
		return b, err
	}
	if len(b.Cols) != len(t.ft.kinds) {
		return nil, fmt.Errorf("%d columns, schema has %d", len(b.Cols), len(t.ft.kinds))
	}
	for ci := range b.Cols {
		if err := coerceKind(&b.Cols[ci], t.ft.kinds[ci], b.N); err != nil {
			return nil, fmt.Errorf("column %d: %w", ci, err)
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
		// An Any column lives in its Box (nulls are nil there).
		c.FillBox()
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
