package exec

// Memory governance: the paper's memory-constrained execution model
// (internal/core/opstate.go charges every hash-table bucket against
// MemoryPerNode) brought to the real-data engine, and the paper's §3.2
// condition (i) applied across queries as well as within one. Each node
// has one memory account of EngineConfig.MemoryPerNode bytes
// (memAccount), as it has in the simulator (internal/core charges every
// bucket to its node's memUsed): every query fragment in flight on the
// node charges its bytes to the node's total, idle memory is whatever no
// fragment has charged, and the account is one atomic count that takes
// no lock. Only chargeMem, unchargeMem and settleMem change it.
// Everything is charged at one price, what its columns hold in memory
// (vec.Batch.Bytes), plus the one layout fact vec cannot see: the
// chained hash index's 12 bytes a row it has room for (sealIndexRowBytes)
// — a sealed build side's (buildBytes) and a group partial's
// (groupTable.bytes). Hash-join builds charge each batch so, and a
// build the account cannot cover switches the join to Grace-style
// partitioned execution:
//
//   - the in-memory parts are drained into hash partitions
//     (internal/spill Files) and all further build input is partitioned
//     straight to disk — through each partition's write buffer, which
//     coalesces the 1/spillFanout-sized slices of many input batches
//     into EngineConfig.Batch-row spilled batches;
//   - the probe input, arriving in the next chain, is partitioned to a
//     parallel set of probe partitions instead of probing;
//   - once the probe input is exhausted, the partitions are joined one
//     at a time within the budget — a load activation builds partition
//     p's hash table, one probe activation per spilled batch probes it
//     in parallel, and a partition whose build side still exceeds the
//     budget is re-partitioned with a fresh hash salt (bounded depth);
//   - group-by partials respect the same budget: a worker partial that
//     grows past it spills its batch form to the worker's spill
//     partition, read back and merged like any other partial.
//
// Every partition of a fragment, join and group-by alike, is a range
// list inside one spill.Disk: a single temp file in EngineConfig.SpillDir,
// created by the fragment's first spill and removed when the fragment
// retires (releaseSpill). A spilling fragment holds one descriptor, and
// a finished partition's bytes stay on disk until retirement.
//
// With MemoryPerNode == 0 (the default) none of this state exists and
// the hot path is untouched. Spill-phase advancement rides the existing
// operator lifecycle: a spilled probe operator whose pending count hits
// zero is not finished but advanced to its next partition by
// spillNextLocked, so the coordinator's chain barrier and the group-by
// merge see a perfectly ordinary (if long-lived) operator.
//
// A governed build side is what an ungoverned one is — one append-only
// part per worker, here presized within the budget, filled by the one
// build kernel (processBuild) — and a partition's store is sealed and
// indexed exactly like a whole build side (sealStore).
//
// Lock order: mq.mu -> pool.mu -> joinSpill.mu -> part lock ->
// query.spillMu -> spill.File's internal mutex. The node's memory
// account takes no lock. A build side's seal is an activation
// (opRun.seal) and takes none of them.

import (
	"math"
	"sync"
	"sync/atomic"

	"hierdb/internal/spill"
	"hierdb/internal/vec"
)

const (
	// spillFanout is the number of partitions a spilling join (or a
	// re-partitioned oversized partition) fans out to.
	spillFanout = 8
	// maxSpillDepth bounds re-partitioning recursion; a partition still
	// oversized at the cap (e.g. one giant key) is joined anyway —
	// correctness over governance.
	maxSpillDepth = 6
)

// spillKind discriminates spill-phase activations.
type spillKind int8

const (
	spillLoad  spillKind = iota + 1 // build one partition's hash table
	spillProbe                      // probe one spilled batch against it
)

// spillAct is the payload of a spill-phase activation.
type spillAct struct {
	kind  spillKind
	part  spillPart   // load: the partition to open
	ref   spill.Ref   // probe: the batch to decode
	file  *spill.File // probe: the partition's probe file
	phase *spillPhase // probe: the loaded partition table
}

// spillPart is one pending partition pair of a spilled join.
type spillPart struct {
	build, probe *spill.File
	salt         uint64
	depth        int
}

// spillPhase is the in-flight partition join: partition part's build
// side loaded into memory and sealed by the load, charged bytes against
// the node's budget until the partition's probes complete.
type spillPhase struct {
	part  spillPart
	side  *buildSide
	bytes int64
}

// joinSpill is the spill state of one governed hash join on one
// fragment, hung off the build operator's opRun. active flips once,
// from the build worker that overflowed the budget; everything under mu
// is touched by at most one load/advance at a time after that.
type joinSpill struct {
	active atomic.Bool

	mu      sync.Mutex //hierdb:lock jspill
	build   []*spill.File
	probe   []*spill.File
	phased  bool // top-level partitions converted to pending
	pending []spillPart
	cur     *spillPhase
}

// seal writes the buffered tails of part and of every pending partition.
// A load is the one point where the join's unsealed partitions are
// exactly known: loads are single-flight and start only once the chain
// barrier (or the repartition that created the partitions) has quiesced
// every writer. Sealing them all here keeps at most one fan-out's write
// buffers live per join — 2 × spillFanout partitions of under
// EngineConfig.Batch rows each. Called with no scheduler locks held.
func (sp *joinSpill) seal(part spillPart) error {
	sp.mu.Lock()
	parts := append([]spillPart{part}, sp.pending...)
	sp.mu.Unlock()
	for _, p := range parts {
		if err := p.build.Seal(); err != nil {
			return err
		}
		if err := p.probe.Seal(); err != nil {
			return err
		}
	}
	return nil
}

// memAccount is one node's memory budget and the bytes its in-flight
// fragments have charged against it. budget is fixed at engine start;
// used is the sum of those fragments' memUsed.
type memAccount struct {
	budget int64
	used   atomic.Int64
}

// memRetired is what settleMem leaves in a retired fragment's memUsed.
// A charge or uncharge whose Add lands below memRetired/2 finds the
// fragment settled and leaves the node's account alone: settlement and
// a late uncharge race on memUsed alone, so exactly one of them returns
// each byte to the node. (A live fragment's memUsed is never negative,
// and no fragment moves 2^62 bytes after retiring.)
const memRetired = math.MinInt64 / 2

// chargeMem adds n bytes to the fragment's charge and to its node's
// account, and reports whether the node's total is now past the budget
// — the caller then spills. The bytes stay charged either way: the
// caller returns them with unchargeMem as it frees them. No-op (never
// over) when ungoverned or once the fragment has retired.
//
//hierdb:hotpath
func (q *query) chargeMem(n int64) bool {
	if q.mem == nil || n == 0 {
		return false
	}
	if q.memUsed.Add(n) < memRetired/2 {
		return false
	}
	return q.mem.used.Add(n) > q.mem.budget
}

// unchargeMem releases bytes charged by chargeMem. The node's account
// is exact only because no live fragment uncharges more than it
// charged: memUsed never goes negative before retirement, so
// settleMem's return of what is left never credits the node bytes
// another fragment charged. An uncharge after retirement — the last
// release of a chunkRes whose activation was still running on another
// node when an abort retired the chunk's fragment — was settled already
// and leaves the node alone.
//
//hierdb:hotpath
func (q *query) unchargeMem(n int64) {
	if q.mem == nil || n == 0 {
		return
	}
	if q.memUsed.Add(-n) < memRetired/2 {
		return
	}
	q.mem.used.Add(-n)
}

// settleMem returns everything the fragment still has charged to its
// node — including the charges of chunkRes refs an abort dropped with
// their activations — and marks the fragment retired, so later charges
// and uncharges skip the node. Called once, at finalize.
func (q *query) settleMem() {
	if q.mem != nil {
		q.mem.used.Add(-q.memUsed.Swap(memRetired))
	}
}

// spillPartIndexH maps a key, by its keyHash64, to its partition at the
// given recursion salt — the kernels hash a key column once and reuse
// the hashes for node routing, partition indexing and the sealed
// index. Every salt level uses an independent mix of the hash, so an
// oversized partition genuinely splits when re-partitioned.
//
//hierdb:hotpath
func spillPartIndexH(h, salt uint64, nparts int) int {
	return int(mix64(h^(salt+1)*0x9e3779b97f4a7c15) % uint64(nparts))
}

// newSpillFiles opens n partitions in the fragment's spill file,
// creating the file (in EngineConfig.SpillDir, default the system temp
// dir) on the fragment's first spill, and registers them for
// retirement.
func (q *query) newSpillFiles(n int) ([]*spill.File, error) {
	q.spillMu.Lock()
	defer q.spillMu.Unlock()
	if q.spillDisk == nil {
		d, err := spill.CreateTemp(q.mq.nodes.cfg.SpillDir)
		if err != nil {
			return nil, err
		}
		q.spillDisk = d
	}
	files := make([]*spill.File, n)
	for i := range files {
		files[i] = q.spillDisk.NewFile()
	}
	q.spillFiles = append(q.spillFiles, files...)
	return files, nil
}

// releaseSpill drops every partition's buffers and closes and deletes
// the fragment's spill file, sealing the spilled-bytes counter as the
// sum of what the partitions were written — whichever path wrote it,
// threshold flush, seal or whole batch. Called exactly once per query
// at finalize, when no worker can touch the query again.
func (q *query) releaseSpill() {
	q.spillMu.Lock()
	files, disk := q.spillFiles, q.spillDisk
	q.spillFiles, q.spillDisk = nil, nil
	q.spillMu.Unlock()
	var written int64
	for _, f := range files {
		written += f.Bytes()
		f.Close()
	}
	q.spilledBytes.Store(written)
	if disk != nil {
		disk.Close()
	}
}

// spilled reports whether the join owning this probe operator has
// switched to partitioned execution on fragment q. The flag is fixed
// before the first probe activation runs (builds precede probes across
// the chain barrier), so probe-side reads need no lock.
func (q *query) spilled(probeOp *pop) bool {
	sp := q.ops[probeOp.partner.id].spill
	return sp != nil && sp.active.Load()
}

// spillBatch hash-partitions one batch into the given partitions: the
// key column is hashed vectorized, and each partition's rows, selected in
// the worker's scratch, join its write buffer.
//
//hierdb:hotpath
func (q *query) spillBatch(files []*spill.File, keyCol int, salt uint64, b *vec.Batch, vs *vecScratch) error {
	hs := keyHashes(b, keyCol, vs)
	n := len(files)
	parts := vs.dests(n)
	for i, h := range hs {
		d := spillPartIndexH(h, salt, n)
		parts[d] = append(parts[d], int32(i))
	}
	for d, psel := range parts {
		if len(psel) == 0 {
			continue
		}
		if err := files[d].AppendSel(b, psel, q.mq.nodes.cfg.Batch); err != nil {
			return err
		}
	}
	return nil
}

// spillTransition switches a governed join to partitioned execution:
// open the partitions, flip active, drain the in-memory parts into the
// partitions and refund their charge. Single-flight via sp.mu; vs is the
// calling worker's scratch. The partitions are published before the
// flag and the flag raised before any part is drained, so a builder that
// reads it under its part's lock (processBuild) either appended to a part
// still to be drained or spills its batch: no row is lost.
func (q *query) spillTransition(or *opRun, vs *vecScratch) error {
	sp := or.spill
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.active.Load() {
		return nil
	}
	var err error
	if sp.build, sp.probe, err = q.newSpillFanout(); err != nil {
		return err
	}
	sp.active.Store(true)
	for w := range or.parts {
		or.locks[w].Lock()
		ap, held := or.parts[w], or.held[w]
		or.parts[w], or.held[w] = nil, 0
		or.locks[w].Unlock()
		// Encoding runs outside the part lock: its worker spills from now on.
		if ap == nil {
			continue
		}
		for _, b := range windows(ap.Batch(), q.mq.nodes.cfg.Batch) {
			if err := q.spillBatch(sp.build, or.op.keyCol, 0, b, vs); err != nil {
				return err
			}
		}
		q.unchargeMem(held)
	}
	return nil
}

// newSpillFanout opens one fan-out of build and probe partitions.
func (q *query) newSpillFanout() (build, probe []*spill.File, err error) {
	files, err := q.newSpillFiles(2 * spillFanout)
	if err != nil {
		return nil, nil, err
	}
	q.spilledParts.Add(spillFanout)
	return files[:spillFanout:spillFanout], files[spillFanout:], nil
}

// spillNextLocked advances a spilled probe operator when its pending
// count hits zero: finish the current partition phase (refund its
// charge), then hand back a load activation for the next non-empty
// partition — or nil when all partitions are joined and the operator
// may truly finish. Callers (mquery.opFinished) hold mq.mu and the
// fragment's pool mutex.
func (q *query) spillNextLocked(or *opRun) *activation {
	if q.aborted {
		return nil
	}
	sp := q.ops[or.op.partner.id].spill
	if sp == nil || !sp.active.Load() {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.cur != nil {
		q.unchargeMem(sp.cur.bytes)
		sp.cur = nil
	}
	if !sp.phased {
		sp.phased = true
		for i := range sp.build {
			sp.pending = append(sp.pending, spillPart{build: sp.build[i], probe: sp.probe[i], salt: 0})
		}
		sp.build, sp.probe = nil, nil
	}
	for len(sp.pending) > 0 {
		part := sp.pending[0]
		sp.pending = sp.pending[1:]
		if part.build.Rows() == 0 || part.probe.Rows() == 0 {
			// An inner join with an empty side yields nothing; the other
			// side's unsealed tail is dropped.
			part.build.Close()
			part.probe.Close()
			continue
		}
		return &activation{op: or.op, dest: q.node, spill: &spillAct{kind: spillLoad, part: part}}
	}
	return nil
}

// processSpillLoad opens one partition: re-partition it at the next
// salt if its build side still exceeds the budget (bounded depth), or
// build its hash table and fan out one probe activation per spilled
// probe batch. Runs outside all scheduler locks, on worker w.
func (q *query) processSpillLoad(a *activation, w int) (outs []*activation) {
	sp := q.ops[a.op.partner.id].spill
	part := a.spill.part
	if err := sp.seal(part); err != nil {
		q.mq.fail(err)
		return nil
	}
	vs := &q.vscratch[w]
	// The partition holds what its batches held when encoded
	// (spill.File.Held) plus the sealed index. It must fit the budget's
	// headroom — what no fragment on the node has charged (advisory:
	// concurrent charges move it) — but never re-partition below a quarter
	// of the budget: that would recurse every partition to the depth cap
	// for no achievable fit.
	headroom := max(q.mem.budget-q.mem.used.Load(), q.mem.budget/4)
	bytes := part.build.Held() + part.build.Rows()*sealIndexRowBytes
	if bytes > headroom && part.depth < maxSpillDepth {
		if err := q.repartition(sp, a.op, part, vs); err != nil {
			q.mq.fail(err)
		}
		return nil // pending grew; the next pend==0 advance picks it up
	}
	// The spill codec keeps every column's kind, so each decoded batch has
	// the build input's schema, the store's.
	build := a.op.partner
	app := vec.NewAppender(build.outKinds, int(part.build.Rows()))
	for _, ref := range part.build.Refs() {
		db, err := part.build.ReadCols(ref)
		if err != nil {
			q.mq.fail(err)
			return nil
		}
		app.AppendBatch(db)
	}
	side, err := sealStore(app.Batch(), build.keyCol, 0, 0)
	if err != nil {
		q.mq.fail(err)
		return nil
	}
	q.chargeMem(bytes) // may exceed at the depth cap; accepted
	q.spillPhases.Add(1)
	phase := &spillPhase{part: part, side: side, bytes: bytes}
	sp.mu.Lock()
	sp.cur = phase
	sp.mu.Unlock()
	for _, ref := range part.probe.Refs() {
		outs = append(outs, &activation{op: a.op, dest: q.node,
			spill: &spillAct{kind: spillProbe, ref: ref, file: part.probe, phase: phase}})
	}
	return outs
}

// repartition splits one oversized partition into a fresh fan-out at
// the next hash salt; the old pair's bytes stay in the spill file until
// retirement. The new partitions stay unsealed until the next load.
// Loads are single-flight per fragment join, so only sp.pending
// mutation needs sp.mu.
func (q *query) repartition(sp *joinSpill, probeOp *pop, part spillPart, vs *vecScratch) error {
	salt := part.salt + 1
	builds, probes, err := q.newSpillFanout()
	if err != nil {
		return err
	}
	split := func(src *spill.File, dst []*spill.File, keyCol int) error {
		for _, ref := range src.Refs() {
			db, err := src.ReadCols(ref)
			if err != nil {
				return err
			}
			if err := q.spillBatch(dst, keyCol, salt, db, vs); err != nil {
				return err
			}
		}
		return nil
	}
	if err := split(part.build, builds, probeOp.partner.keyCol); err != nil {
		return err
	}
	if err := split(part.probe, probes, probeOp.keyCol); err != nil {
		return err
	}
	next := make([]spillPart, 0, len(builds))
	for i := range builds {
		next = append(next, spillPart{build: builds[i], probe: probes[i], salt: salt, depth: part.depth + 1})
	}
	sp.mu.Lock()
	sp.pending = append(sp.pending, next...)
	sp.mu.Unlock()
	return nil
}

// processSpillProbe decodes one spilled probe batch and probes it
// against the loaded partition store, emitting downstream batches (or
// a result batch at the root) exactly like the in-memory probe path.
func (q *query) processSpillProbe(a *activation, w int) (outs []*activation, results *vec.Batch) {
	pb, err := a.spill.file.ReadCols(a.spill.ref)
	if err != nil {
		q.mq.fail(err)
		return nil, nil
	}
	return q.probe(a, pb, a.spill.phase.side, w)
}

// governGroupPartial charges worker w's group-by partial growth — what
// the groups added since its last charge hold (groupTable.bytes) — and
// spills the partial to the worker's spill partition when it crosses the
// budget. Only worker w touches its partial and counters, so the only
// shared state is the byte account.
func (q *query) governGroupPartial(w int) error {
	gf := &q.partials[w]
	if gf.priced == gf.t.groups() {
		return nil
	}
	add := gf.t.bytes(gf.priced)
	gf.priced, gf.charged = gf.t.groups(), gf.charged+add
	if !q.chargeMem(add) {
		return nil
	}
	// Over budget: spill the whole partial and reset.
	if gf.file == nil {
		files, err := q.newSpillFiles(1)
		if err != nil {
			return err
		}
		gf.file = files[0]
		q.spilledParts.Add(1)
	}
	for _, b := range windows(gf.t.batch(), q.mq.nodes.cfg.Batch) {
		if _, err := gf.file.AppendCols(b); err != nil {
			return err
		}
	}
	q.unchargeMem(gf.charged)
	gf.charged, gf.priced, gf.t = 0, 0, newGroupTable(q.mq.gb.Aggs, gf.t.key.Kind)
	return nil
}

// mergedGroups merges the worker partials, in memory and spilled, into
// the first.
func (q *query) mergedGroups() (*groupTable, error) {
	merged := q.partials[0].t
	for w := 1; w < len(q.partials); w++ {
		merged.merge(q.partials[w].t.batch())
	}
	for w := range q.partials {
		f := q.partials[w].file
		if f == nil {
			continue
		}
		for _, ref := range f.Refs() {
			b, err := f.ReadCols(ref)
			if err != nil {
				return nil, err
			}
			merged.merge(b)
		}
	}
	return merged, nil
}
