package spill

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"hierdb/internal/vec"
)

// readAll seals f and decodes every written batch, in write order.
func readAll(t *testing.T, f *File) []Row {
	t.Helper()
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	var out []Row
	for _, ref := range f.Refs() {
		b, err := f.ReadCols(ref)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, materialize(t, b)...)
	}
	return out
}

func sameRowsExact(t *testing.T, name string, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", name, i, got[i], want[i])
		}
		for ci := range want[i] {
			if !sameValue(got[i][ci], want[i][ci]) {
				t.Fatalf("%s: row %d col %d = %#v, want %#v", name, i, ci, got[i][ci], want[i][ci])
			}
		}
	}
}

// checkCoalesced asserts the shape coalescing promises: every written
// batch holds exactly flush rows except at most one shorter tail per
// schema run (here: per file, the inputs share one schema).
func checkCoalesced(t *testing.T, name string, refs []Ref, flush int) {
	t.Helper()
	for i, ref := range refs {
		if ref.Rows > flush || (ref.Rows < flush && i != len(refs)-1) {
			t.Fatalf("%s: ref %d of %d has %d rows, want %d (only the last may be shorter)", name, i, len(refs), ref.Rows, flush)
		}
	}
}

var kindGens = map[string]func(r *rand.Rand) any{
	"int":     func(r *rand.Rand) any { return r.Intn(1000) - 500 },
	"int32":   func(r *rand.Rand) any { return int32(r.Intn(1000) - 500) },
	"int64":   func(r *rand.Rand) any { return r.Int63() - math.MaxInt64/2 },
	"uint64":  func(r *rand.Rand) any { return r.Uint64() | 1<<63 }, // high bit set
	"float64": func(r *rand.Rand) any { return [...]float64{r.NormFloat64(), math.NaN(), math.Inf(-1), 0}[r.Intn(4)] },
	"bool":    func(r *rand.Rand) any { return r.Intn(2) == 0 },
	"string":  func(r *rand.Rand) any { return [...]string{"", "a", "héllo", "payload-0123456789"}[r.Intn(4)] },
	"any": func(r *rand.Rand) any {
		return [...]any{1, "s", 2.5, true, uint64(1) << 63, int32(-3), int64(9)}[r.Intn(7)]
	},
}

// TestAppendSelRoundTrip is the write buffer's property test: rows fed
// through AppendSel in small slices — from resident (boxed) and decoded
// (boxless) sources, through dense and selected views — read back as
// exactly the rows appended, in order, coalesced to the flush threshold.
func TestAppendSelRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for name, gen := range kindGens {
		for _, nullPct := range []int{0, 30, 100} {
			for _, n := range []int{1, 63, 64, 65, 200} {
				rows := make([]Row, n)
				for i := range rows {
					var v any
					if r.Intn(100) >= nullPct {
						v = gen(r)
					}
					rows[i] = Row{i, v}
				}
				resident := vec.FromRows(rows)
				enc, err := EncodeCols(nil, resident)
				if err != nil {
					t.Fatal(err)
				}
				boxless, err := DecodeCols(enc, n)
				if err != nil {
					t.Fatal(err)
				}
				for srcName, src := range map[string]*vec.Batch{"resident": resident, "boxless": boxless} {
					for _, flush := range []int{1, 64, 100, 1 << 20} {
						id := fmt.Sprintf("%s/nulls%d/n%d/%s/flush%d", name, nullPct, n, srcName, flush)
						f := colFile(t)
						// Slices of 7 rows, alternately through a selection view.
						var a vec.Arena
						for lo := 0; lo < n; lo += 7 {
							hi := min(lo+7, n)
							sel := vec.Ident(hi)[lo:hi]
							if (lo/7)%2 == 1 {
								view := vec.Select(src, sel, &a)
								err = f.AppendSel(view, nil, flush)
							} else {
								err = f.AppendSel(src, sel, flush)
							}
							if err != nil {
								t.Fatal(err)
							}
							if got := f.Rows(); got != int64(hi) {
								t.Fatalf("%s: Rows() = %d after appending %d (buffered rows must count)", id, got, hi)
							}
						}
						sameRowsExact(t, id, readAll(t, f), rows)
						checkCoalesced(t, id, f.Refs(), flush)
						f.Close()
					}
				}
			}
		}
	}
}

// TestAppendSelSelections: a selection may repeat and reorder rows.
func TestAppendSelSelections(t *testing.T) {
	rows := []Row{{0, "a", nil}, {1, nil, 1.5}, {2, "c", 2.5}, {3, "d", nil}}
	b := vec.FromRows(rows)
	f := colFile(t)
	sel := []int32{3, 3, 1, 0, 2, 1, 0}
	if err := f.AppendSel(b, sel, 4); err != nil {
		t.Fatal(err)
	}
	var want []Row
	for _, li := range sel {
		want = append(want, rows[li])
	}
	sameRowsExact(t, "selection", readAll(t, f), want)
	checkCoalesced(t, "selection", f.Refs(), 4)
}

// TestAppendSelSchemaChange: a batch whose kinds or width differ from
// the buffered rows' starts a new written batch instead of corrupting
// or boxing the buffered one — an all-null slice of a typed column
// (kind Any), a kind flip, ragged Absent-padded rows and a narrower
// batch all survive inside one file, in order.
func TestAppendSelSchemaChange(t *testing.T) {
	inputs := [][]Row{
		{{1, "a"}, {2, "b"}},
		{{3, nil}, {4, nil}},           // column 1 all null: kind Any
		{{5, "e"}},                     // back to String
		{{"six", 6.5}, {"seven", 7.5}}, // both kinds flip
		{{8}, {9, "ragged", true}, {}}, // ragged: Absent padding, wider
		{{10}},                         // narrower
		{{11}, {12}},
	}
	f := colFile(t)
	var want []Row
	for _, rows := range inputs {
		if err := f.AppendSel(vec.FromRows(rows), nil, 100); err != nil {
			t.Fatal(err)
		}
		want = append(want, rows...)
	}
	if got := f.Rows(); got != int64(len(want)) {
		t.Fatalf("Rows() = %d, want %d", got, len(want))
	}
	sameRowsExact(t, "schema change", readAll(t, f), want)
	// The last two inputs share a schema and coalesce; every other
	// boundary is a schema change.
	if got := len(f.Refs()); got != len(inputs)-1 {
		t.Fatalf("%d written batches, want %d (one per schema run)", got, len(inputs)-1)
	}
	for _, ref := range f.Refs() {
		b, err := f.ReadCols(ref)
		if err != nil {
			t.Fatal(err)
		}
		for ci := range b.Cols {
			if c := &b.Cols[ci]; (c.Kind == vec.Any) != (c.Box != nil) {
				t.Fatalf("col %d kind %v decoded with Box=%v", ci, c.Kind, c.Box != nil)
			}
		}
	}
}

// TestAppendSelBufferBoundAndAllocs pins the write buffer's two
// resource promises: it never holds flushRows rows or more once an
// append returns, and appends that fit its grown storage allocate
// nothing — no Box, no arena, no selection copy.
func TestAppendSelBufferBoundAndAllocs(t *testing.T) {
	const flush = 256
	rows := make([]Row, 1000)
	for i := range rows {
		rows[i] = Row{i, fmt.Sprintf("v%d", i), float64(i) / 3, i%2 == 0}
	}
	rows[17][1] = nil
	b := vec.FromRows(rows)
	f := colFile(t)
	r := rand.New(rand.NewSource(3))
	sel := make([]int32, 0, 40)
	appendSome := func() {
		sel = sel[:0]
		for k := 1 + r.Intn(39); k > 0; k-- {
			sel = append(sel, int32(r.Intn(len(rows))))
		}
		if err := f.AppendSel(b, sel, flush); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		appendSome()
		var written int64
		for _, ref := range f.Refs() {
			written += int64(ref.Rows)
		}
		if buffered := f.Rows() - written; buffered < 0 || buffered >= flush {
			t.Fatalf("append %d left %d rows buffered, want < %d", i, buffered, flush)
		}
	}
	// Warm: the buffer and encode scratch have reached their high-water
	// marks; only the refs slice still grows (amortized).
	if avg := testing.AllocsPerRun(200, appendSome); avg > 0.1 {
		t.Fatalf("steady-state AppendSel allocates %.2f per call, want ~0", avg)
	}
	checkCoalesced(t, "bound", f.Refs(), flush)
}

// TestConcurrentAppendSelThenParallelReads mirrors the engine's usage
// (run under -race in CI): producer workers append slices of their
// batches to one partition concurrently during the write phase, then
// spill-phase activations decode independent refs in parallel.
func TestConcurrentAppendSelThenParallelReads(t *testing.T) {
	f := colFile(t)
	const writers, batches, rowsPer, flush = 4, 25, 17, 64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]Row, rowsPer)
				for i := range batch {
					batch[i] = Row{w, b, fmt.Sprintf("w%d-b%d-r%d", w, b, i)}
				}
				if err := f.AppendSel(vec.FromRows(batch), nil, flush); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	const total = writers * batches * rowsPer
	if f.Rows() != total {
		t.Fatalf("%d rows, want %d", f.Rows(), total)
	}
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	refs := f.Refs()
	checkCoalesced(t, "concurrent", refs, flush)
	if want := (total + flush - 1) / flush; len(refs) != want {
		t.Fatalf("%d refs, want %d", len(refs), want)
	}
	seen := make([]map[string]bool, writers)
	var mu sync.Mutex
	for w := range seen {
		seen[w] = make(map[string]bool)
	}
	for r := 0; r < 3; r++ { // parallel readers over all refs
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, ref := range refs {
				b, err := f.ReadCols(ref)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				for i := 0; i < b.N; i++ {
					seen[b.Cols[0].I64[i]][b.Cols[2].Str[i]] = true
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for w := range seen {
		if len(seen[w]) != batches*rowsPer {
			t.Fatalf("writer %d: %d distinct rows read back, want %d", w, len(seen[w]), batches*rowsPer)
		}
	}
}

// TestWritesIgnoreFileCursor: batches land at the offset their Ref
// records whatever the descriptor's cursor says, so nothing that moves
// it (a short or failed write included) can misalign later refs.
func TestWritesIgnoreFileCursor(t *testing.T) {
	f := colFile(t)
	first := []Row{{1, "one"}, {2, "two"}}
	second := []Row{{3, "three"}}
	r1, err := f.AppendCols(vec.FromRows(first))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.disk.f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	r2, err := f.AppendCols(vec.FromRows(second))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Off != r1.Len || f.Bytes() != r1.Len+r2.Len {
		t.Fatalf("second ref at %d (first is %d bytes), file reports %d bytes", r2.Off, r1.Len, f.Bytes())
	}
	sameRowsExact(t, "cursor", readAll(t, f), append(first, second...))
}

// TestFailedWriteLeavesOffsets: a write that fails (here: the Disk was
// closed under the writer) returns the error and advances nothing the
// partition reports.
func TestFailedWriteLeavesOffsets(t *testing.T) {
	d, err := CreateTemp(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := d.NewFile()
	if _, err := f.AppendCols(vec.FromRows([]Row{{1}})); err != nil {
		t.Fatal(err)
	}
	bytes, refs := f.Bytes(), len(f.Refs())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AppendCols(vec.FromRows([]Row{{2}})); err == nil {
		t.Fatal("AppendCols on a closed descriptor succeeded")
	}
	if err := f.AppendSel(vec.FromRows([]Row{{3}}), nil, 1); err == nil {
		t.Fatal("flushing AppendSel on a closed descriptor succeeded")
	}
	if f.Bytes() != bytes || len(f.Refs()) != refs {
		t.Fatalf("failed writes moved the file: %d bytes %d refs, want %d and %d", f.Bytes(), len(f.Refs()), bytes, refs)
	}
}

// TestCloseRemovesFile: Create's File owns its file — dir/name, there
// until Close, gone after it — and Close is idempotent.
func TestCloseRemovesFile(t *testing.T) {
	dir := t.TempDir()
	f, err := Create(dir, "p0")
	if err != nil {
		t.Fatal(err)
	}
	b := vec.FromRows([]Row{{1}})
	if _, err := f.AppendCols(b); err != nil {
		t.Fatal(err)
	}
	if err := f.AppendSel(b, nil, 100); err != nil { // left unflushed
		t.Fatal(err)
	}
	if got := dirNames(t, dir); len(got) != 1 || got[0] != "p0" {
		t.Fatalf("spill dir holds %v, want [p0]", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if got := dirNames(t, dir); len(got) != 0 {
		t.Fatalf("spill dir not empty after Close: %v", got)
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

// TestDiskSharedByConcurrentPartitions is the shared file's contract
// (run under -race in CI): 4 writers append to each of 8 partitions of
// one Disk at once; each partition reads back exactly its own rows, in
// each writer's order, and the partitions' Refs tile the file — no
// overlap, no gap, Σ Len = the file's size.
func TestDiskSharedByConcurrentPartitions(t *testing.T) {
	const parts, writers, batches, rowsPer, flush = 8, 4, 20, 13, 32
	d, err := CreateTemp(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	files := make([]*File, parts)
	for p := range files {
		files[p] = d.NewFile()
	}
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(p, w int) {
				defer wg.Done()
				for b := 0; b < batches; b++ {
					batch := make([]Row, rowsPer)
					for i := range batch {
						batch[i] = Row{p, w, b*rowsPer + i, fmt.Sprintf("p%d-w%d", p, w)}
					}
					if err := files[p].AppendSel(vec.FromRows(batch), nil, flush); err != nil {
						t.Error(err)
						return
					}
				}
			}(p, w)
		}
	}
	wg.Wait()
	var all []Ref
	var total int64
	for p, f := range files {
		if err := f.Seal(); err != nil {
			t.Fatal(err)
		}
		next := make([]int, writers) // each writer's next expected sequence number
		for _, ref := range f.Refs() {
			b, err := f.ReadCols(ref)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range materialize(t, b) {
				w := r[1].(int)
				if r[0].(int) != p || r[2].(int) != next[w] || r[3].(string) != fmt.Sprintf("p%d-w%d", p, w) {
					t.Fatalf("partition %d read back %v, want writer %d's row %d", p, r, w, next[w])
				}
				next[w]++
			}
		}
		for w, n := range next {
			if n != batches*rowsPer {
				t.Fatalf("partition %d: writer %d's %d rows read back, want %d", p, w, n, batches*rowsPer)
			}
		}
		all = append(all, f.Refs()...)
		total += f.Bytes()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Off < all[j].Off })
	var end int64
	for _, ref := range all {
		if ref.Off != end {
			t.Fatalf("ref at %d, want %d: the partitions' ranges overlap or leave a gap", ref.Off, end)
		}
		end += ref.Len
	}
	st, err := d.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if end != st.Size() || total != st.Size() {
		t.Fatalf("refs cover %d bytes, partitions report %d, file is %d", end, total, st.Size())
	}
}

// TestPartitionCloseLeavesDisk: closing a partition drops its buffers
// and nothing else — the file stays, the other partitions still read —
// while the Disk's Close deletes the file, idempotently.
func TestPartitionCloseLeavesDisk(t *testing.T) {
	dir := t.TempDir()
	d, err := CreateTemp(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := d.NewFile(), d.NewFile()
	rows := []Row{{1, "x"}, {2, "y"}}
	for _, f := range []*File{a, b} {
		if _, err := f.AppendCols(vec.FromRows(rows)); err != nil {
			t.Fatal(err)
		}
		if err := f.AppendSel(vec.FromRows(rows), nil, 100); err != nil { // left unflushed
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dirNames(t, dir); len(got) != 1 || !strings.HasPrefix(got[0], "hierdb-spill-") {
		t.Fatalf("spill dir holds %v after a partition's Close, want one hierdb-spill-* file", got)
	}
	if a.Rows() != 4 || a.Bytes() == 0 || len(a.Refs()) != 1 {
		t.Fatalf("closed partition lost its counters: rows %d bytes %d refs %d", a.Rows(), a.Bytes(), len(a.Refs()))
	}
	sameRowsExact(t, "sibling", readAll(t, b), append(rows, rows...))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if got := dirNames(t, dir); len(got) != 0 {
		t.Fatalf("spill dir not empty after the Disk's Close: %v", got)
	}
}

// BenchmarkSpillFanout is the file layer's own benchmark: one spilling
// join's fan-out lifecycle — 16 partitions (8 build, 8 probe) of one
// Disk written in Batch-row batches through AppendSel, sealed, read
// back and closed — over join_spill-shaped rows (int key, string).
func BenchmarkSpillFanout(b *testing.B) {
	const parts, batch, rows = 16, 256, 25_000
	src := make([]Row, rows)
	for i := range src {
		src[i] = Row{i, fmt.Sprintf("payload-%d", i)}
	}
	var windows []*vec.Batch
	for lo := 0; lo < rows; lo += batch {
		windows = append(windows, vec.FromRows(src[lo:min(lo+batch, rows)]))
	}
	sels := make([][]int32, parts)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := CreateTemp(dir)
		if err != nil {
			b.Fatal(err)
		}
		files := make([]*File, parts)
		for p := range files {
			files[p] = d.NewFile()
		}
		for _, w := range windows {
			for p := range sels {
				sels[p] = sels[p][:0]
			}
			for li := 0; li < w.N; li++ {
				sels[li%parts] = append(sels[li%parts], int32(li))
			}
			for p, f := range files {
				if err := f.AppendSel(w, sels[p], batch); err != nil {
					b.Fatal(err)
				}
			}
		}
		for _, f := range files {
			if err := f.Seal(); err != nil {
				b.Fatal(err)
			}
			for _, ref := range f.Refs() {
				var err error
				if sinkBatch, err = f.ReadCols(ref); err != nil {
					b.Fatal(err)
				}
			}
			f.Close()
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEmptyAppendIsNoop(t *testing.T) {
	f := colFile(t)
	ref, err := f.AppendCols(&vec.Batch{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AppendSel(vec.FromRows([]Row{{1}}), []int32{}, 10); err != nil {
		t.Fatal(err)
	}
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	if ref.Rows != 0 || f.Bytes() != 0 || f.Rows() != 0 || len(f.Refs()) != 0 {
		t.Fatalf("empty appends left state: ref %+v bytes %d rows %d refs %d", ref, f.Bytes(), f.Rows(), len(f.Refs()))
	}
	b, err := f.ReadCols(ref)
	if err != nil || b.N != 0 {
		t.Fatalf("ReadCols of empty ref = %v, %v", b, err)
	}
}
