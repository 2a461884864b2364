package spill

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
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
	if _, err := f.f.Seek(0, io.SeekStart); err != nil {
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

// TestFailedWriteLeavesOffsets: a write that fails (here: the file was
// closed under the writer) returns the error and advances nothing.
func TestFailedWriteLeavesOffsets(t *testing.T) {
	f := colFile(t)
	if _, err := f.AppendCols(vec.FromRows([]Row{{1}})); err != nil {
		t.Fatal(err)
	}
	bytes, refs := f.Bytes(), len(f.Refs())
	f.f.Close()
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
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill dir not empty after Close: %v", ents)
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
