package exec

// Chunk-streamed scans over file-backed tables (store.TableFile). A
// scan activation is one row-group chunk: the worker consults the
// chunk's zone maps against the scan predicates first — a chunk no
// predicate can match is skipped before any I/O — then reads the chunk
// through its own store.Scanner, which evaluates the predicates inside
// the column decoder and materializes only the rows they keep, and runs
// the resident scan kernel's filter/emit tail on that compact batch.
// Under a MemoryPerNode budget its footprint — the survivors', not the
// chunk's — is charged against the fragment and refunded once every
// activation sharing its column storage has been processed (chunkRes
// refcounting in the worker loop), so streaming a table much larger
// than the budget holds only the in-flight chunks' survivors.

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
// activations without releasing their refs; finalize returns what they
// still hold to the node's account with the rest of the fragment's
// memUsed.
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
// chunk index): zone-map pruning, read + filtering decode on worker w's
// scanner, budget charge, then the shared filter/emit tail.
//
//hierdb:hotpath
func (q *query) processScanFile(a *activation, w int) (outs []*activation, results *vec.Batch) {
	s := a.op.scan
	ft := s.Table.File
	ci := a.lo
	if len(s.Preds) > 0 && ft.Skippable(ci, s.Preds) {
		q.disk.skipped.Add(1)
		return nil, nil
	}
	b, err := ft.ReadChunkWhere(ci, s.Preds, &q.pool.scanners[w])
	if err != nil {
		q.mq.fail(err)
		return nil, nil
	}
	ch := ft.Chunk(ci)
	q.disk.scanned.Add(1)
	q.disk.bytes.Add(ch.Len)
	q.disk.decoded.Add(int64(ch.Rows))
	q.disk.kept.Add(int64(b.N))
	if b.N == 0 {
		return nil, nil
	}
	if q.mem != nil {
		bytes := b.Bytes()
		// Scans never block on the budget: the charge shrinks the join
		// headroom (pushing builds to spill earlier) instead — streamed
		// input must keep flowing for the chain to drain. Correctness
		// over governance, like the depth-capped partition load.
		q.chargeMem(bytes)
		a.res = &chunkRes{q: q, bytes: bytes}
		a.res.refs.Store(1)
	}
	return q.scanTail(a, b, 0, b.N, nil, w)
}
