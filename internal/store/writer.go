// Table-file writer: buffers rows, seals them into fixed-size chunks
// (columnized per chunk with vec.FromRows, encoded with the spill
// columnar codec), and writes the footer on Close. The writer is
// single-goroutine — table files are built offline by cmd/hdbtable or
// test fixtures, never on the query path — so it carries no locks.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"hierdb/internal/spill"
	"hierdb/internal/vec"
)

// Writer builds one table file. Create it with Create, feed rows with
// Append/AppendRows, and seal it with Close — a file without a footer
// (writer crashed or abandoned) never opens.
type Writer struct {
	f         *os.File
	path      string
	cols      []string
	chunkRows int
	buf       []byte    // chunk encode scratch, reused
	pend      []vec.Row // rows buffered toward the next chunk
	ft        footer
	resolved  []bool // schema kind resolved per column
	off       int64
	err       error // first error; sticky
}

// Create opens a new table file at path with the given column names.
// chunkRows is the row-group size (<= 0 means DefaultChunkRows). An
// existing file at path is an error, not an overwrite.
func Create(path string, cols []string, chunkRows int) (*Writer, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("store: create %s: no columns", filepath.Base(path))
	}
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: create: %w", err)
	}
	w := &Writer{
		f:         f,
		path:      path,
		cols:      append([]string(nil), cols...),
		chunkRows: chunkRows,
		pend:      make([]vec.Row, 0, chunkRows),
		resolved:  make([]bool, len(cols)),
	}
	w.ft.cols = w.cols
	w.ft.kinds = make([]vec.Kind, len(cols))
	return w, nil
}

// Append buffers one row. The row must be exactly as wide as the
// schema (table files are rectangular: a short row is malformed input
// here, where a resident table reads it as null in the columns it
// lacks) and is copied, so the caller may reuse it.
func (w *Writer) Append(row vec.Row) error {
	if w.err != nil {
		return w.err
	}
	if len(row) != len(w.cols) {
		w.err = fmt.Errorf("store: %s: row width %d, schema width %d", filepath.Base(w.path), len(row), len(w.cols))
		return w.err
	}
	w.pend = append(w.pend, append(vec.Row(nil), row...))
	if len(w.pend) >= w.chunkRows {
		return w.flush()
	}
	return nil
}

// AppendRows buffers rows (see Append).
func (w *Writer) AppendRows(rows []vec.Row) error {
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			return err
		}
	}
	return nil
}

// flush seals the buffered rows as one chunk: columnize, zone-map,
// encode, write.
func (w *Writer) flush() error {
	if w.err != nil {
		return w.err
	}
	if len(w.pend) == 0 {
		return nil
	}
	b := vec.FromRows(w.pend)
	buf, err := spill.EncodeCols(w.buf[:0], b)
	if err != nil {
		w.err = fmt.Errorf("store: %s: %w", filepath.Base(w.path), err)
		return w.err
	}
	w.buf = buf
	if _, err := w.f.Write(buf); err != nil {
		w.err = fmt.Errorf("store: write %s: %w", filepath.Base(w.path), err)
		return w.err
	}
	info := ChunkInfo{
		Off:   w.off,
		Len:   int64(len(buf)),
		Rows:  b.N,
		Zones: make([]ZoneMap, len(b.Cols)),
	}
	for ci := range b.Cols {
		info.Zones[ci] = zoneFor(&b.Cols[ci], b.N)
		w.combineKind(ci, &b.Cols[ci], &info.Zones[ci])
	}
	w.ft.chunks = append(w.ft.chunks, info)
	w.ft.rows += int64(b.N)
	w.off += info.Len
	w.pend = w.pend[:0]
	return nil
}

// combineKind folds one chunk column's kind into the footer schema: a
// typed chunk sets (or, on disagreement, degrades) the column kind; an
// all-null chunk encodes as Any and constrains nothing; an Any chunk
// with real values pins the column to Any. This mirrors what
// vec.FromRows over the whole table would have resolved, so a
// chunk-streamed scan presents the same kinds as a resident one.
func (w *Writer) combineKind(ci int, c *vec.Col, z *ZoneMap) {
	if c.Kind == vec.Any {
		if !z.HasNonNull {
			return // all-null chunk: no evidence either way
		}
		w.ft.kinds[ci] = vec.Any
		w.resolved[ci] = true
		return
	}
	if !w.resolved[ci] {
		w.ft.kinds[ci] = c.Kind
		w.resolved[ci] = true
	} else if w.ft.kinds[ci] != c.Kind {
		w.ft.kinds[ci] = vec.Any
	}
}

// Close flushes the final partial chunk, writes the footer + trailer,
// and closes the file. The writer is unusable afterwards; Close after
// an Append error returns that error and leaves the partial file on
// disk (footerless, so it will never Open).
func (w *Writer) Close() error {
	if w.f == nil {
		return w.err
	}
	err := w.flush()
	if err == nil {
		fbuf := appendFooter(w.buf[:0], &w.ft)
		flen := len(fbuf)
		fbuf = binary.LittleEndian.AppendUint32(fbuf, crc32.ChecksumIEEE(fbuf[:flen]))
		fbuf = binary.LittleEndian.AppendUint64(fbuf, uint64(flen))
		fbuf = append(fbuf, magic[:]...)
		if _, werr := w.f.Write(fbuf); werr != nil {
			err = fmt.Errorf("store: write footer %s: %w", filepath.Base(w.path), werr)
		}
	}
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	w.f = nil
	if w.err == nil {
		w.err = fmt.Errorf("store: %s: writer closed", filepath.Base(w.path))
	}
	return err
}

// WriteTable writes a complete table file in one call — the fixture
// path used by tests, difftest legs and cmd/hdbtable.
func WriteTable(path string, cols []string, chunkRows int, rows []vec.Row) error {
	w, err := Create(path, cols, chunkRows)
	if err != nil {
		return err
	}
	if err := w.AppendRows(rows); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}
