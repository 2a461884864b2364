package exec

// Chunk-streamed scans over file-backed tables (store.TableFile). A
// scan activation is one row-group chunk: the worker consults the
// chunk's zone maps against the scan predicates first — a chunk no
// predicate can match is skipped before any I/O — then reads and
// decodes the chunk and runs the same predicate/filter/emit tail as
// the resident scan kernel. Under a MemoryPerNode budget the decoded
// chunk's footprint is charged against the fragment and refunded once
// every activation sharing the chunk's column storage has been
// processed (chunkRes refcounting in the worker loop), so streaming a
// table much larger than the budget holds only the in-flight chunks.

import (
	"sync/atomic"

	"hierdb/internal/vec"
)

// chunkRes is the refcounted memory charge of one decoded chunk. The
// scan activation holds one reference; every downstream activation
// whose batch shares the chunk's column storage inherits one (the
// worker loop propagates refs to the outs of a res-carrying
// activation), and the last release refunds the charge. Root-scan
// result batches are refunded at delivery — the consumer owns them
// from there, an accepted approximation mirroring how join outputs
// leave governance once delivered. An abort can drop queued
// activations without releasing their refs; the fragment's memUsed is
// never read again after an abort, so the leak is of accounting the
// query no longer does, not of memory.
type chunkRes struct {
	q     *query
	bytes int64
	refs  atomic.Int32
}

// release drops one reference, refunding the chunk's charge at zero.
// nil-safe: ungoverned queries carry no chunkRes.
//
//hierdb:hotpath
func (r *chunkRes) release() {
	if r != nil && r.refs.Add(-1) == 0 {
		r.q.unchargeMem(r.bytes)
	}
}

// retainFor gives each downstream activation of a res-carrying one its
// own reference. Called by the worker loop between process and the
// release of a's own reference, so the count never touches zero early.
//
//hierdb:hotpath
func (a *activation) retainFor(outs []*activation) {
	if a.res == nil {
		return
	}
	for _, out := range outs {
		out.res = a.res
	}
	a.res.refs.Add(int32(len(outs)))
}

// processScanFile runs one chunk-streamed scan activation (a.lo is the
// chunk index): zone-map pruning, read + decode, budget charge, then
// the shared predicate/filter/emit tail.
//
//hierdb:hotpath
func (q *query) processScanFile(a *activation, w int) (outs []*activation, results *vec.Batch) {
	s := a.op.scan
	ft := s.Table.File
	ci := a.lo
	if len(s.Preds) > 0 && ft.Skippable(ci, s.Preds) {
		q.chunksSkipped.Add(1)
		return nil, nil
	}
	b, err := ft.ReadChunk(ci)
	if err != nil {
		q.spillFail(err)
		return nil, nil
	}
	q.chunksScanned.Add(1)
	q.diskBytes.Add(ft.Chunk(ci).Len)
	if q.memBudget > 0 {
		bytes := batchBytes(b, nil)
		// Scans never block on the budget: the charge shrinks the join
		// headroom (pushing builds to spill earlier) instead — streamed
		// input must keep flowing for the chain to drain. Correctness
		// over governance, like the depth-capped partition load.
		q.chargeMem(bytes)
		a.res = &chunkRes{q: q, bytes: bytes}
		a.res.refs.Store(1)
	}
	vs := &q.vscratch[w]
	arena := &q.varenas[w]
	b = q.filterScan(s, b, vs, arena)
	if b == nil {
		return nil, nil
	}
	if a.op.consumer == nil {
		return nil, b
	}
	q.emitBatch(a.op.consumer, b, &outs, vs, arena)
	return outs, nil
}
