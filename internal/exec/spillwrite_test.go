package exec

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"

	"hierdb/internal/spill"
	"hierdb/internal/vec"
)

// spillWriteFixture is the partition-write path on its own: a bare
// governed query owning one fan-out of partitions, and a resident
// two-column table to partition into them.
func spillWriteFixture(t testing.TB, rows int) (q *query, files []*spill.File, src *vec.Batch) {
	t.Helper()
	ns, err := newNodes(EngineConfig{SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	q = &query{mq: &mquery{nodes: ns}}
	q.vscratch = make([]vecScratch, 1)
	t.Cleanup(q.releaseSpill)
	if files, err = q.newSpillFiles(spillFanout); err != nil {
		t.Fatal(err)
	}
	tb := tbl("w", rows, func(i int) any { return i }, func(i int) any { return fmt.Sprintf("v%d", i) })
	return q, files, columnize(tb)
}

// partitionAll feeds src through spillBatch one Batch-row window at a
// time, as the build and probe activations do.
func partitionAll(t testing.TB, q *query, files []*spill.File, src *vec.Batch) {
	batch := q.mq.nodes.cfg.Batch
	for lo := 0; lo < src.N; lo += batch {
		if err := q.spillBatch(files, 0, 0, window(src, lo, min(lo+batch, src.N)), &q.vscratch[0]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpillWriteAllocBound is the spill-write alloc gate (run by CI):
// partitioning computes its selections in the worker's scratch and
// gathers them into the files' reusable typed buffers, so in steady
// state a spilled row costs no allocation of its own — what remains is
// per input batch (its window) and amortized (the files' ref lists).
func TestSpillWriteAllocBound(t *testing.T) {
	const rows = 100_000
	q, files, src := spillWriteFixture(t, rows)
	partitionAll(t, q, files, src) // warm: scratch, buffers and encode scratch at their high-water marks
	avg := testing.AllocsPerRun(3, func() { partitionAll(t, q, files, src) })
	if perRow := avg / rows; perRow > 0.05 {
		t.Fatalf("partitioning allocates %.3f allocs/spilled row (avg %.0f per %d rows), want <= 0.05", perRow, avg, rows)
	}
}

func BenchmarkSpillPartitionWrite(b *testing.B) {
	const rows = 100_000
	q, files, src := spillWriteFixture(b, rows)
	partitionAll(b, q, files, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partitionAll(b, q, files, src)
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// spillFilesOf snapshots the fragment's partition registry (it only
// grows until retirement; a closed partition keeps its refs and byte
// count).
func spillFilesOf(q *query) []*spill.File {
	q.spillMu.Lock()
	defer q.spillMu.Unlock()
	return append([]*spill.File(nil), q.spillFiles...)
}

// encodedBytes is what coalesced spilling of rows into one partition
// file must write: Batch-row batches plus one tail. Encoded sizes do
// not depend on row order, so the model needs no knowledge of which
// worker appended what when.
func encodedBytes(t *testing.T, rows []Row, batch int) (n int64) {
	t.Helper()
	for lo := 0; lo < len(rows); lo += batch {
		buf, err := spill.EncodeCols(nil, vec.FromRows(rows[lo:min(lo+batch, len(rows))]))
		if err != nil {
			t.Fatal(err)
		}
		n += int64(len(buf))
	}
	return n
}

// TestSpillCoalescedBatches: after a governed join every partition file
// holds only Batch-row batches plus at most one tail — however the 4
// workers interleaved their 1/8-batch slices — the result equals the
// ungoverned one, and Stats.SpilledBytes is the files' byte total.
func TestSpillCoalescedBatches(t *testing.T) {
	checkQueryHygiene(t)
	plan := govPlan(5_000, 20_000)
	want, _, err := runOnce(context.Background(), plan, nil, EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	pool := newNodesT(t, EngineConfig{MemoryPerNode: 128 << 10, SpillDir: t.TempDir()})
	h, err := pool.Submit(context.Background(), plan, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	// The first result batch comes out of a partition phase: every
	// top-level file exists by then, and this budget never repartitions.
	first, ok := h.Next()
	if !ok {
		t.Fatalf("no output: %v", h.Err())
	}
	files := spillFilesOf(h.mq.frags[0])
	var arena vec.Arena
	got := first.AppendRows(nil, &arena)
	got = append(got, collectHandle(t, h)...)
	sameRows(t, got, want)
	st := h.Stats()
	if len(files) != 2*spillFanout || st.SpilledPartitions != spillFanout {
		t.Fatalf("fixture must spill one fan-out without repartitioning: %d files, %+v", len(files), st)
	}
	batch := h.mq.nodes.cfg.Batch
	var rows, bytes int64
	for fi, f := range files {
		refs := f.Refs()
		for i, ref := range refs {
			if ref.Rows > batch || (ref.Rows < batch && i != len(refs)-1) {
				t.Fatalf("file %d: batch %d of %d has %d rows, want %d (only the last may be shorter)", fi, i, len(refs), ref.Rows, batch)
			}
			rows += int64(ref.Rows)
		}
		bytes += f.Bytes()
	}
	if rows != 5_000+20_000 {
		t.Fatalf("partition files hold %d rows, want every build and probe row (%d)", rows, 5_000+20_000)
	}
	if st.SpilledBytes != bytes {
		t.Fatalf("Stats.SpilledBytes = %d, partition files total %d", st.SpilledBytes, bytes)
	}
}

// TestSpilledBytesMatchesFiles checks the spilled-bytes counter against
// an independent model of the partition files instead of against the
// write path's own bookkeeping: every build and probe row lands in the
// partition its key hashes to, and each partition file is written as
// Batch-row batches plus a tail — threshold flushes and seals alike must
// be counted, and nothing else.
func TestSpilledBytesMatchesFiles(t *testing.T) {
	checkQueryHygiene(t)
	const buildRows, probeRows, batch = 5_000, 20_000, 256
	plan := govPlan(buildRows, probeRows).(*Join)
	_, st := runGoverned(t, plan, EngineConfig{MemoryPerNode: 128 << 10, SpillDir: t.TempDir(), Batch: batch})
	if st.SpilledPartitions != spillFanout {
		t.Fatalf("fixture must spill one fan-out without repartitioning: %+v", st)
	}
	var want int64
	for _, side := range []*Table{plan.Build.(*Scan).Table, plan.Probe.(*Scan).Table} {
		parts := make([][]Row, spillFanout)
		for _, r := range side.Rows {
			p := spillPartIndexH(keyHash64(r[0]), 0, spillFanout)
			parts[p] = append(parts[p], r)
		}
		for _, rows := range parts {
			want += encodedBytes(t, rows, batch)
		}
	}
	if st.SpilledBytes != want {
		t.Fatalf("Stats.SpilledBytes = %d, the partition files of this join hold %d", st.SpilledBytes, want)
	}
}

// TestSpillWriteBufferBound samples a recursively repartitioning join
// while it runs: the rows sitting in its files' write buffers — memory
// outside MemoryPerNode — never exceed one fan-out's worth, 2 ×
// spillFanout × Batch, because every load first seals whatever the
// previous stage left buffered.
func TestSpillWriteBufferBound(t *testing.T) {
	checkQueryHygiene(t)
	const batch = 32
	pool := newNodesT(t, EngineConfig{MemoryPerNode: 4 << 10, SpillDir: t.TempDir(), Batch: batch})
	h, err := pool.Submit(context.Background(), govPlan(8_000, 8_000), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	buffered := func() (n int64) {
		for _, f := range spillFilesOf(h.mq.frags[0]) {
			// Rows before Refs: a flush in between only lowers the sample.
			rows := f.Rows()
			for _, ref := range f.Refs() {
				rows -= int64(ref.Rows)
			}
			n += rows
		}
		return n
	}
	peakC := make(chan int64)
	go func() {
		var peak int64
		for {
			select {
			case <-h.Done():
				peakC <- peak
				return
			default:
				peak = max(peak, buffered())
			}
		}
	}()
	rows := 0
	for b, ok := h.Next(); ok; b, ok = h.Next() {
		rows += b.N
	}
	peak := <-peakC
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); rows != 8_000 || st.SpilledPartitions < 3*spillFanout {
		t.Fatalf("fixture must repartition recursively: %d rows, %+v", rows, st)
	}
	if limit := int64(2 * spillFanout * batch); peak == 0 || peak > limit {
		t.Fatalf("sampled %d rows in write buffers, want within (0, %d]", peak, limit)
	}
}

// TestSpillCancelWithUnflushedBuffers cancels a governed join while its
// inputs are still being partitioned — every file holds an unwritten
// tail — and requires the abort to drop the buffers with the files:
// prompt retirement, an empty spill directory, no leaked goroutine.
func TestSpillCancelWithUnflushedBuffers(t *testing.T) {
	checkQueryHygiene(t)
	dir := t.TempDir()
	// Batch far above any partition's share: nothing reaches the flush
	// threshold, so all spilled rows are buffered when the cancel lands.
	pool := newNodesT(t, EngineConfig{MemoryPerNode: 32 << 10, SpillDir: dir, Batch: 1 << 20, Morsel: 256})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := pool.Submit(ctx, govPlan(60_000, 240_000), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	var unflushed int64
	for unflushed == 0 {
		select {
		case <-h.Done():
			t.Fatal("query finished before any row was buffered for spilling")
		default:
		}
		for _, f := range spillFilesOf(h.mq.frags[0]) {
			unflushed += f.Rows()
		}
		runtime.Gosched()
	}
	cancel()
	drain(h)
	if err := h.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled spilling query reported %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill temp files leaked after cancel: %v", names(ents))
	}
	verifyIdle(t, pool)
}
