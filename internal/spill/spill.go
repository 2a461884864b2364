// Package spill is the disk format of the engine's memory governance:
// columnar batches encoded to a temp file when a hash-join build side
// (or a group-by partial) exceeds its node's memory budget, and decoded
// back one batch at a time during the partition-wise join phases.
//
// A query fragment spills into one Disk: one append-only file, created
// on the fragment's first spill and closed and removed when the
// fragment retires. Every partition is a File inside it, a list of the
// byte ranges its batches were written to; a write reserves its range
// with one atomic add on the Disk's end offset, so partitions share the
// descriptor without a lock. A partition's bytes stay on disk until the
// Disk is removed: a fragment's peak disk use is what it spilled.
// Create makes a File that owns a Disk of its own.
//
// A File is append-only and batch-granular — every written batch has a
// Ref, and ReadCols(Ref) is safe for concurrent readers via ReadAt — so
// spill-phase activations can decode independent batches in parallel
// without coordination.
//
// Writes are coalesced: AppendSel gathers the selected rows of however
// many small batches into the File's typed write buffer and encodes one
// full batch each time the buffer reaches the caller's flush threshold,
// so a partition holds threshold-sized batches plus one tail (written
// by Seal) no matter how finely its input was fanned out.
//
// The batch encoding (colcodec.go) supports nil, bool, int, int32,
// int64, uint64, float64 and string values; a column carrying any other
// type fails the write with a descriptive error, which the engine
// surfaces as the query's terminal error rather than silently
// corrupting the spill.
package spill

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"hierdb/internal/vec"
)

// Row is one tuple, positionally indexed. It is a type alias so the
// executor's row type ([]any throughout the module) interchanges with it
// without copying.
type Row = []any

// Ref addresses one written batch inside a File.
type Ref struct {
	// Off is the batch's byte offset in the file.
	Off int64
	// Len is the encoded length in bytes.
	Len int64
	// Rows is the number of rows in the batch.
	Rows int
}

// Disk is one append-only spill file shared by any number of Files.
// Writes land at offsets reserved by an atomic add on end, so Files
// append to it concurrently; a write that fails leaves its range a hole
// no Ref points into.
type Disk struct {
	f      *os.File
	end    atomic.Int64
	closed atomic.Bool
}

// CreateTemp creates a Disk: a new file named hierdb-spill-* in dir
// (the system temp dir when dir is empty).
func CreateTemp(dir string) (*Disk, error) {
	f, err := os.CreateTemp(dir, "hierdb-spill-*")
	if err != nil {
		return nil, fmt.Errorf("spill: create: %w", err)
	}
	return &Disk{f: f}, nil
}

// NewFile returns an empty File that writes into d, with room for the
// refs of a few batches.
func (d *Disk) NewFile() *File { return &File{disk: d, refs: make([]Ref, 0, 4)} }

// Close closes and deletes the file. Its Files keep their counters but
// can no longer read or write. Idempotent.
func (d *Disk) Close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := d.f.Close()
	if rmErr := os.Remove(d.f.Name()); err == nil {
		err = rmErr
	}
	return err
}

// name is the file's base name, for errors.
func (d *Disk) name() string { return filepath.Base(d.f.Name()) }

// File is one spill partition: the encoded batches it wrote into its
// Disk, behind a write buffer. Appends are serialized internally
// (concurrent producer workers share a partition); reads go through
// ReadAt and may run concurrently with each other, but not with
// appends — the engine's chain barrier separates the write phase from
// the read phase, and Seal marks the boundary.
type File struct {
	mu    sync.Mutex //hierdb:lock spillfile
	disk  *Disk
	owner bool // made by Create: Close also closes the Disk
	refs  []Ref
	bytes int64
	held  int64 // what the written batches held in memory (vec.Batch.Bytes)
	rows  int64 // written + buffered
	// wb is the File's write storage, taken from writeBufs by its first
	// write and given back by Seal or Close. wbuf holds the rows AppendSel
	// has gathered but not yet written, in wb's columns: dense columns of
	// typed mirror + null bitmap, a Box only on Any columns (which have
	// no mirror); nil Cols until the first batch fixes the schema.
	// Flushing keeps the storage, so steady-state appends allocate
	// nothing, and neither do a later partition's first ones.
	wb   *writeBuf
	wbuf vec.Batch
}

// writeBuf is a File's write storage: its buffer's columns and its
// encode scratch.
type writeBuf struct {
	cols []vec.Col
	enc  []byte
}

// writeBufs recycles the write storage of sealed and closed Files, as
// readBufs recycles read buffers: the next partition starts with
// buffers at the size the last one's reached instead of regrowing them
// by doubling. A recycled writeBuf is empty and points into no batch:
// its strings and boxed values were cleared (emptyBuf).
var writeBufs = sync.Pool{New: func() any { return new(writeBuf) }}

// Create opens a File with a Disk of its own, the new file dir/name,
// which the File's Close deletes. The file is created eagerly so an
// unwritable spill directory fails at spill time with a clear error,
// not at first read.
func Create(dir, name string) (*File, error) {
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o600)
	if err != nil {
		return nil, fmt.Errorf("spill: create %s: %w", name, err)
	}
	return &File{disk: &Disk{f: f}, owner: true}, nil
}

// AppendSel buffers the logical rows of b listed in sel (nil = all) and
// writes one batch of exactly flushRows rows each time the buffer fills;
// the remainder stays buffered until a later append or Seal. Values are
// copied mirror to mirror and never boxed. The File takes its first
// batch's schema, its width and column kinds; a batch of another is an
// error, and none of its rows is taken. Safe for concurrent callers.
func (s *File) AppendSel(b *vec.Batch, sel []int32, flushRows int) error {
	if sel == nil {
		sel = vec.Ident(b.N)
	}
	flushRows = max(flushRows, 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wbuf.Cols == nil {
		s.shapeLocked(b)
	} else if !sameSchema(&s.wbuf, b) {
		return fmt.Errorf("spill: %s: a batch of %d columns of another schema than the partition's", s.disk.name(), len(b.Cols))
	}
	for len(sel) > 0 {
		k := min(len(sel), max(flushRows-s.wbuf.N, 0))
		s.gatherLocked(b, sel[:k])
		sel = sel[k:]
		if s.wbuf.N >= flushRows {
			if err := s.flushLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// AppendCols writes b as one batch of its own, after any buffered rows,
// and returns its Ref. Safe for concurrent callers.
func (s *File) AppendCols(b *vec.Batch) (Ref, error) {
	if b == nil || b.N == 0 {
		return Ref{}, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked(); err != nil {
		return Ref{}, err
	}
	ref, err := s.writeLocked(b)
	if err == nil {
		s.rows += int64(b.N)
	}
	return ref, err
}

// Seal writes the buffered tail, if any, and gives the write buffer and
// encode scratch to the next File. Once every appender has returned and
// the file is sealed, Refs and Bytes are complete. Idempotent.
func (s *File) Seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.flushLocked()
	s.recycleLocked()
	return err
}

// storageLocked returns the File's write storage, taking a recycled one
// on first use.
func (s *File) storageLocked() *writeBuf {
	if s.wb == nil {
		s.wb = writeBufs.Get().(*writeBuf)
	}
	return s.wb
}

// shapeLocked gives the write buffer b's schema, in the storage's
// columns: a column keeps the mirrors it had (whatever kind it held
// before, emptied) and starts without a null bitmap.
func (s *File) shapeLocked(b *vec.Batch) {
	wb := s.storageLocked()
	cols := wb.cols[:cap(wb.cols)]
	if len(cols) < len(b.Cols) {
		cols = append(cols, make([]vec.Col, len(b.Cols)-len(cols))...)
	}
	cols = cols[:len(b.Cols)]
	for ci := range cols {
		c := &cols[ci]
		*c = vec.Col{Kind: b.Cols[ci].Kind, Box: c.Box[:0], I64: c.I64[:0], F64: c.F64[:0], Str: c.Str[:0], B: c.B[:0]}
	}
	wb.cols = cols
	s.wbuf = vec.Batch{Cols: cols}
}

// recycleLocked drops the rows still buffered and gives the write
// storage to writeBufs.
func (s *File) recycleLocked() {
	if s.wb != nil {
		emptyBuf(&s.wbuf)
		writeBufs.Put(s.wb)
	}
	s.wb, s.wbuf = nil, vec.Batch{}
}

// sameSchema reports whether b has the buffered columns' schema: equal
// width and kinds.
func sameSchema(buf, b *vec.Batch) bool {
	if len(buf.Cols) != len(b.Cols) {
		return false
	}
	for ci := range buf.Cols {
		if buf.Cols[ci].Kind != b.Cols[ci].Kind {
			return false
		}
	}
	return true
}

// gatherLocked appends b's logical rows sel to the write buffer, whose
// schema is b's.
func (s *File) gatherLocked(b *vec.Batch, sel []int32) {
	w := &s.wbuf
	for ci := range w.Cols {
		dst, src := &w.Cols[ci], &b.Cols[ci]
		switch {
		case src.Kind == vec.Any:
			dst.Box = gather(dst.Box, src.Box, src.Idx, sel)
		case src.Kind.IntFamily():
			dst.I64 = gather(dst.I64, src.I64, src.Idx, sel)
		case src.Kind == vec.Float64:
			dst.F64 = gather(dst.F64, src.F64, src.Idx, sel)
		case src.Kind == vec.Bool:
			dst.B = gather(dst.B, src.B, src.Idx, sel)
		default:
			dst.Str = gather(dst.Str, src.Str, src.Idx, sel)
		}
		// Only typed columns carry a bitmap; Any marks nulls in Box.
		if src.Kind != vec.Any && src.Null != nil {
			dst.Null = gatherNulls(dst.Null, w.N, src, sel)
		}
	}
	w.N += len(sel)
	s.rows += int64(len(sel))
}

// gather appends src[idx[li]] (idx nil = the identity) to dst for every
// li in sel.
//
//hierdb:hotpath
func gather[T any](dst, src []T, idx, sel []int32) []T {
	if idx == nil {
		for _, li := range sel {
			dst = append(dst, src[li])
		}
		return dst
	}
	for _, li := range sel {
		dst = append(dst, src[idx[li]])
	}
	return dst
}

// gatherNulls sets bit base+j of the growing bitmap dst for every j
// whose source row sel[j] is null in src.
//
//hierdb:hotpath
func gatherNulls(dst []uint64, base int, src *vec.Col, sel []int32) []uint64 {
	for j, li := range sel {
		if src.NullAt(src.Pos(int(li))) {
			pos := base + j
			for len(dst) <= pos>>6 {
				dst = append(dst, 0)
			}
			dst[pos>>6] |= 1 << (uint(pos) & 63)
		}
	}
	return dst
}

// flushLocked writes the buffered rows as one batch and empties the
// buffer, keeping its storage.
func (s *File) flushLocked() error {
	w := &s.wbuf
	if w.N == 0 {
		return nil
	}
	for ci := range w.Cols {
		// A column that has a bitmap must have one covering every row.
		if c := &w.Cols[ci]; c.Null != nil {
			for len(c.Null) < (w.N+63)/64 {
				c.Null = append(c.Null, 0)
			}
		}
	}
	_, err := s.writeLocked(w)
	emptyBuf(w)
	return err
}

// emptyBuf empties the buffered rows b, keeping their storage. The
// storage must not pin the source batches its strings and boxed values
// point into, in this File or the next one.
func emptyBuf(b *vec.Batch) {
	for ci := range b.Cols {
		c := &b.Cols[ci]
		clear(c.Str)
		clear(c.Box)
		c.I64, c.F64, c.B, c.Str, c.Box = c.I64[:0], c.F64[:0], c.B[:0], c.Str[:0], c.Box[:0]
		if c.Null != nil {
			c.Null = c.Null[:0]
		}
	}
	b.N = 0
}

// writeLocked encodes b, reserves its length at the Disk's end and
// writes it there. It writes at an explicit offset and records a Ref
// only on a full write, so a failed write cannot misalign the Refs of
// the batches around it.
func (s *File) writeLocked(b *vec.Batch) (Ref, error) {
	wb := s.storageLocked()
	buf, err := EncodeCols(wb.enc[:0], b)
	if err != nil {
		return Ref{}, err
	}
	wb.enc = buf
	n := int64(len(buf))
	off := s.disk.end.Add(n) - n
	if _, err := s.disk.f.WriteAt(buf, off); err != nil {
		return Ref{}, fmt.Errorf("spill: write %s: %w", s.disk.name(), err)
	}
	ref := Ref{Off: off, Len: n, Rows: b.N}
	s.refs = append(s.refs, ref)
	s.bytes += n
	s.held += b.Bytes()
	return ref, nil
}

// ReadCols decodes one written batch into a dense columnar batch. Safe
// for concurrent callers once appends have stopped.
func (s *File) ReadCols(ref Ref) (*vec.Batch, error) {
	if ref.Rows == 0 {
		return &vec.Batch{}, nil
	}
	b, err := ReadColsAt(s.disk.f, ref.Off, ref.Len, ref.Rows)
	if err != nil {
		return nil, fmt.Errorf("spill: %s: %w", s.disk.name(), err)
	}
	return b, nil
}

// Refs returns the refs of every written batch, in write order. Call
// only after appends have stopped and the file is sealed.
func (s *File) Refs() []Ref {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refs
}

// Bytes returns the total encoded bytes written so far.
func (s *File) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Held returns what the written batches held in memory (vec.Batch.Bytes,
// summed): the price of loading them back, known without a decode.
func (s *File) Held() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held
}

// Rows returns the total rows appended so far, written or still
// buffered.
func (s *File) Rows() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows
}

// Close drops any rows still buffered and gives the write storage to
// the next File; Refs, Bytes and Rows stay readable. A partition leaves
// its Disk's file in place; a File made by Create also closes and
// deletes its own. Idempotent.
func (s *File) Close() error {
	s.mu.Lock()
	s.recycleLocked()
	s.mu.Unlock()
	if s.owner {
		return s.disk.Close()
	}
	return nil
}
