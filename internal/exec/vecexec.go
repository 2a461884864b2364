package exec

// Vectorized execution kernels: the columnar hot path of the engine.
// Scans carve windows from columnized tables and evaluate predicates
// as per-column loops, builds append whole batches to the worker's own
// columnar part — nothing is hashed or indexed while the build runs —
// and probes hash the probe key column and walk one chained hash
// index. A join's output is a pair of selections: past the chain barrier
// the first probe seals the build side (opRun.seal) — the parts' rows
// move into one dense store and one pass over its key column fills the
// index — and an output batch is the probe batch's columns under a
// composed selection next to the sealed store's columns under one
// shared position vector — no build value is copied per match. All row
// materialization funnels through vec's AppendRows/ReadRow boundary,
// and column values are read typed or through Col.Value, never
// Box[pos]: batches decoded from table files and spill partitions are
// boxless (see internal/vec), and a value read from them is boxed in
// place over its mirror slot — no allocation at the sink or a build
// store.
//
// Every operator's width, column kinds and key column are fixed when
// the plan is compiled (expand, runtime.go), and every batch an
// operator receives has that width: no kernel here runs user code to
// find a key or asks whether a schema is known.
//
// Hash parity: every kernel reproduces keyHash64 bit-for-bit (mix64
// for the int family and float bits with -0.0 folded into +0.0, FNV-1a
// for strings, and the precomputed fmt-fallback hashes for nil/bool), so
// node ownership, steal pricing, spill partitioning and the sealed
// index's slots all derive from one hash per row.

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"hierdb/internal/vec"
)

// Precomputed key hashes for values the row engine hashes through the
// fmt fallback of keyHash64 — computing them once keeps the vectorized
// loops free of fmt.
var (
	hNil   = keyHash64(nil)
	hTrue  = keyHash64(true)
	hFalse = keyHash64(false)
)

// fnvString is FNV-1a over a string, matching hash/fnv (and therefore
// keyHash64's string case) exactly.
//
//hierdb:hotpath
func fnvString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// ---------------------------------------------------------------------
// Operator schemas
// ---------------------------------------------------------------------

// scanKinds is a scan's output schema. A file-backed table's is its
// footer's — exactly what a resident FromRows over the table would have
// resolved; a resident table's is its columnization's, as wide as its
// widest row; a table without rows is as wide as it declares (Cols).
func scanKinds(t *Table) []vec.Kind {
	if ft := t.File; ft != nil {
		return append([]vec.Kind(nil), ft.Kinds()...)
	}
	tb := columnize(t)
	if tb.N == 0 {
		return make([]vec.Kind, len(t.Cols))
	}
	kinds := make([]vec.Kind, len(tb.Cols))
	for i := range tb.Cols {
		kinds[i] = tb.Cols[i].Kind
	}
	return kinds
}

// joinKinds is a probe operator's output schema: the columns out lists
// (empty = all) of the probe input's kinds followed by Any for each of
// the bw build columns. Build columns are reported Any although the
// batches carry them as the sealed store holds them, typed or not — a
// consumer pre-shaped for Any takes either.
func joinKinds(probe []vec.Kind, bw int, out []int) []vec.Kind {
	all := make([]vec.Kind, len(probe)+bw)
	copy(all, probe)
	if len(out) == 0 {
		return all
	}
	kinds := make([]vec.Kind, len(out))
	for i, c := range out {
		kinds[i] = all[c]
	}
	return kinds
}

// producerOf finds the operator feeding op (nil for scans).
func producerOf(p *physical, op *pop) *pop {
	for _, o := range p.ops {
		if o.consumer == op {
			return o
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Table columnization
// ---------------------------------------------------------------------

// tableVec caches a table's columnized form alongside a fingerprint of
// the row slice it was built from.
type tableVec struct {
	n     int
	first *Row
	b     *vec.Batch
}

// columnize returns the table's columnar form, cached on the table.
// The cache is invalidated when the row slice changes identity or
// length (tables are registered once and then immutable in practice).
func columnize(t *Table) *vec.Batch {
	var first *Row
	if len(t.Rows) > 0 {
		first = &t.Rows[0]
	}
	if tv := t.vcache.Load(); tv != nil && tv.n == len(t.Rows) && tv.first == first {
		return tv.b
	}
	b := vec.FromRows(t.Rows)
	t.vcache.Store(&tableVec{n: len(t.Rows), first: first, b: b})
	return b
}

// ---------------------------------------------------------------------
// Per-worker scratch
// ---------------------------------------------------------------------

// vecScratch is one worker's reusable kernel state for one query —
// grown to the high-water mark once, then allocation-free.
type vecScratch struct {
	hs        []uint64 // key hashes per logical row
	sel       []int32  // predicate/filter survivors
	row       Row      // ReadRow scratch (filters, aggregates)
	probeRows []int32  // probe match: logical probe row per match
	bpos      []int32  // probe match: position in the sealed build store
	perDest   [][]int32
	win       vec.Batch // header of the input rows' view (viewInto)
}

func (vs *vecScratch) hashes(n int) []uint64 {
	if cap(vs.hs) < n {
		vs.hs = make([]uint64, n)
	}
	vs.hs = vs.hs[:n]
	return vs.hs
}

func (vs *vecScratch) rowScratch(w int) Row {
	if cap(vs.row) < w {
		vs.row = make(Row, w)
	}
	return vs.row[:0]
}

// dests returns n empty routing lists (rows per node or spill partition)
// backed by the scratch; they stay valid until the next call.
func (vs *vecScratch) dests(n int) [][]int32 {
	if cap(vs.perDest) < n {
		vs.perDest = make([][]int32, n)
	}
	per := vs.perDest[:n]
	for d := range per {
		per[d] = per[d][:0]
	}
	return per
}

// ---------------------------------------------------------------------
// Vectorized key hashing
// ---------------------------------------------------------------------

// keyHashes fills the scratch hash vector with keyHash64 of each
// logical row's join key, column keyCol of b.
//
//hierdb:hotpath
func keyHashes(b *vec.Batch, keyCol int, vs *vecScratch) []uint64 {
	hs := vs.hashes(b.N)
	hashKeys(&b.Cols[keyCol], 0, hs)
	return hs
}

// hashKeys fills hs with keyHash64 of the keys at logical rows lo,
// lo+1, … of key column c: one typed, fmt-free loop per kind over the
// mirror, then the null rows, if the column has any, overwritten.
//
//hierdb:hotpath
func hashKeys(c *vec.Col, lo int, hs []uint64) {
	switch {
	case c.Kind.IntFamily():
		for i := range hs {
			hs[i] = mix64(uint64(c.I64[c.Pos(lo+i)]))
		}
	case c.Kind == vec.String:
		for i := range hs {
			hs[i] = fnvString(c.Str[c.Pos(lo+i)])
		}
	case c.Kind == vec.Float64:
		for i := range hs {
			hs[i] = mix64(math.Float64bits(c.F64[c.Pos(lo+i)] + 0)) // -0.0 as +0.0, like keyHash64
		}
	case c.Kind == vec.Bool:
		for i := range hs {
			if hs[i] = hFalse; c.B[c.Pos(lo+i)] {
				hs[i] = hTrue
			}
		}
	default:
		for i := range hs {
			hs[i] = keyHash64(c.Value(c.Pos(lo + i)))
		}
	}
	if c.Null != nil { // typed columns only: an Any column's nil hashed as hNil above
		for i := range hs {
			if c.NullAt(c.Pos(lo + i)) {
				hs[i] = hNil
			}
		}
	}
}

// ---------------------------------------------------------------------
// Build sides (the join's hash table)
// ---------------------------------------------------------------------

// buildSide is a join's build side on one node once sealed: the dense
// store holding its rows and one flat chained hash index over the
// store's key column. While the build chain runs there is no such thing
// — each worker appends whole batches to a vec.Appender of its own, its
// part of the side, and nothing is hashed: nothing is looked up before
// the chain barrier, and a governed join may yet drain the rows to disk.
// The seal builds the index in one pass: position p hangs off
// slot(keyHash64(key)), the hash every router computes anyway, and a
// chain ascends — the order rows arrived in within their part.
// Equality is decided on the store's columns, under the kind the two key
// columns share (match); the boxed == it falls back to is the
// semantic reference: int 1 is not int64 1, NaN equals nothing, 0.0
// equals -0.0, null meets null. A spill partition's store (memgov.go) is
// sealed the same way. Immutable once built, so a thief shares it.
type buildSide struct {
	store  *vec.Batch
	keyCol int
	// heads[s] is 1 + the first position of slot s's chain, next[p] 1 + the
	// position following p in its chain; 0 ends a chain. Two slots per row.
	heads, next []int32
	// bucketRows[b] counts the rows in the node's local hash bucket b
	// (global bucket b*nodes + node) — what a thief pays to ship that
	// bucket. Counted on stealing queries only; nil otherwise.
	bucketRows []int
}

// ErrBuildTooLarge fails a join whose build side holds more rows on one
// node, or in one spill partition, than a batch position (int32) addresses.
var ErrBuildTooLarge = errors.New("exec: join build side too large")

// sealStore indexes a dense store on column keyCol: one allocation, three
// words per row, whatever the number of distinct keys. Rows are linked
// from the last to the first, so every chain ascends. With buckets > 0
// it also counts the rows per local hash bucket (bucketRows) of a node
// of a nodes-node engine with buckets global buckets.
//
//hierdb:hotpath
func sealStore(store *vec.Batch, keyCol int, vs *vecScratch, buckets, nodes int) (*buildSide, error) {
	n := store.N
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("%w: over %d rows", ErrBuildTooLarge, math.MaxInt32) //hierdb:ignore hotpath the failure path
	}
	const chunk = 1024 // rows hashed at a time, on the worker's hash scratch
	slots := max(2*n, 1)
	buf := make([]int32, slots+n)
	bs := &buildSide{store: store, keyCol: keyCol, heads: buf[:slots], next: buf[slots:]}
	if buckets > 0 {
		bs.bucketRows = make([]int, buckets/nodes)
	}
	for hi := n; hi > 0; hi -= chunk {
		lo := max(hi-chunk, 0)
		hs := vs.hashes(hi - lo)
		hashKeys(&store.Cols[keyCol], lo, hs)
		for p := hi - 1; p >= lo; p-- {
			s := bs.slot(hs[p-lo])
			bs.next[p] = bs.heads[s]
			bs.heads[s] = int32(p + 1)
		}
		if bs.bucketRows != nil {
			for _, h := range hs {
				bs.bucketRows[int(h%uint64(buckets))/nodes]++
			}
		}
	}
	return bs, nil
}

// slot maps a key hash to its chain. Rows that reach one node (or one
// spill partition) agree in the residue that routed them there, so the
// hash is remixed — Fibonacci hashing — and range-reduced by its high
// bits rather than masked by its low ones.
//
//hierdb:hotpath
func (bs *buildSide) slot(h uint64) int {
	hi, _ := bits.Mul64(h*0x9e3779b97f4a7c15, uint64(len(bs.heads)))
	return int(hi)
}

// match walks the chain of logical row i of probe key column kc, whose
// key hashes to h, and records one (probe row, store position) pair in
// the worker's scratch per store row with the same key. Keys compare
// under the kind both key columns are of, else — kind Any — by Go's ==
// on the boxed values.
//
//hierdb:hotpath
func (bs *buildSide) match(vs *vecScratch, kc *vec.Col, i int, h uint64) {
	pos := kc.Pos(i)
	null := kc.NullAt(pos)
	sc := &bs.store.Cols[bs.keyCol]
	kind := vec.Any
	if sc.Kind == kc.Kind {
		kind = sc.Kind
	} else if sc.Kind != vec.Any && kc.Kind != vec.Any && !null {
		return // two different typed kinds: only null meets null
	}
	for p := bs.heads[bs.slot(h)]; p != 0; p = bs.next[p-1] {
		sp := int(p - 1)
		var eq bool
		switch snull := sc.NullAt(sp); {
		case null || snull:
			eq = null && snull
		case kind == vec.Any:
			eq = kc.Value(pos) == sc.Box[sp] // a store keeps its Box
		case kind == vec.String:
			eq = kc.Str[pos] == sc.Str[sp]
		case kind == vec.Float64:
			eq = kc.F64[pos] == sc.F64[sp]
		case kind == vec.Bool:
			eq = kc.B[pos] == sc.B[sp]
		default: // the int family
			eq = kc.I64[pos] == sc.I64[sp]
		}
		if eq {
			vs.probeRows = append(vs.probeRows, int32(i))
			vs.bpos = append(vs.bpos, int32(sp))
		}
	}
}

// seal seals the operator's build side, a build operator of mq on one
// node, on first call, on the caller's scratch: the parts' rows move into
// one dense store (vec.Concat: exact-size columns, each part's storage
// released as it is copied, a single non-empty part aliased) and the
// store is indexed — and, when mq steals, its rows counted per bucket.
// Every later call (any worker's probe, a thief pricing or probing this
// node's rows) returns the same outcome; concurrent first callers wait.
// The parts are quiescent: builds precede probes across the chain
// barrier.
func (or *opRun) seal(mq *mquery, vs *vecScratch) (*buildSide, error) {
	or.sealOnce.Do(func() {
		store := vec.Concat(or.parts)
		clear(or.parts)
		var buckets int
		if mq.stealing {
			buckets = mq.buckets
		}
		or.side, or.sealErr = sealStore(store, or.op.keyCol, vs, buckets, mq.n)
	})
	return or.side, or.sealErr
}

// ---------------------------------------------------------------------
// Batch windows and emission
// ---------------------------------------------------------------------

// viewInto views logical rows [lo,hi) of b on win's header (b itself
// when they are all of it). Storage is never re-sliced; dense columns
// get an identity-index window, indexed columns slice their index (index
// slices, unlike storage, are position-free).
//
//hierdb:hotpath
func viewInto(win, b *vec.Batch, lo, hi int) *vec.Batch {
	if lo == 0 && hi == b.N {
		return b
	}
	win.Cols, win.N = append(win.Cols[:0], b.Cols...), hi-lo
	for ci := range win.Cols {
		if c := &win.Cols[ci]; c.Idx == nil {
			c.Idx = vec.Ident(hi)[lo:hi]
		} else {
			c.Idx = c.Idx[lo:hi]
		}
	}
	return win
}

// window is the view on a header of its own, for a batch that outlives
// the activation (a result).
func window(b *vec.Batch, lo, hi int) *vec.Batch { return viewInto(new(vec.Batch), b, lo, hi) }

// input is batch activation a's rows, viewed on the worker's one
// reusable header: valid until the worker's next view, so a kernel keeps
// nothing of it — Select, Compose and the stores copy column headers and
// values, never the header array — and whatever it emits names a batch
// that outlives it (emitBatch).
//
//hierdb:hotpath
func (a *activation) input(vs *vecScratch) *vec.Batch { return viewInto(&vs.win, a.b, a.lo, a.hi) }

// emitBatch hands rows [lo,hi) of a produced batch b to consumer,
// chunked to the pipeline granularity, routing each row to the node
// owning its partition key (the consumer's key column: a build op
// receives build-side rows, a probe op probe-side rows), one batch
// stream per destination. b outlives the activation (a table's
// columnization, a decoded chunk, a Select or join output — never a
// view). With a single destination there is nothing to route, so the
// keys are not hashed.
//
//hierdb:hotpath
func (q *query) emitBatch(consumer *pop, b *vec.Batch, lo, hi int, outs *[]*activation, vs *vecScratch, arena *vec.Arena) {
	if lo == hi {
		return
	}
	nb, n := q.mq.buckets, q.mq.n
	if n == 1 {
		q.emitWindows(consumer, b, lo, hi, 0, outs)
		return
	}
	v := viewInto(&vs.win, b, lo, hi)
	hs := keyHashes(v, consumer.keyCol, vs)
	perDest := vs.dests(n)
	for i := 0; i < v.N; i++ {
		d := int(hs[i]%uint64(nb)) % n
		perDest[d] = append(perDest[d], int32(i))
	}
	for d := 0; d < n; d++ {
		if sel := perDest[d]; len(sel) == v.N { // every row is d's (skewed keys, a clustered scan)
			q.emitWindows(consumer, b, lo, hi, d, outs)
		} else if len(sel) > 0 {
			q.emitWindows(consumer, vec.Select(v, sel, arena), 0, len(sel), d, outs)
		}
	}
}

// emitWindows queues rows [lo,hi) of b for consumer on node dest, one
// activation per Batch rows: each names b and its bounds, and its kernel
// views them (activation.input) — no header is built per activation.
//
//hierdb:hotpath
func (q *query) emitWindows(consumer *pop, b *vec.Batch, lo, hi, dest int, outs *[]*activation) {
	batch := q.mq.nodes.cfg.Batch
	for ; lo < hi; lo += batch {
		*outs = append(*outs, &activation{op: consumer, b: b, lo: lo, hi: min(lo+batch, hi), dest: dest})
	}
}

// ---------------------------------------------------------------------
// Operator kernels
// ---------------------------------------------------------------------

// processScanVec runs one scan morsel of a resident table: rows
// [a.lo,a.hi) of the columnized source go through the scan tail with the
// column predicates.
//
//hierdb:hotpath
func (q *query) processScanVec(a *activation, w int) (outs []*activation, results *vec.Batch) {
	return q.scanTail(a, q.scanSrc(a.op), a.lo, a.hi, a.op.scan.Preds, w)
}

// scanTail is the shared end of the resident and chunk-streamed scan
// kernels over rows [lo,hi) of src (a table's columnization, a decoded
// chunk): shrink the selection with the column predicates still to be
// applied (none for a file scan — its chunk decoder has evaluated
// them), then with the row filter closure over a reused scratch row,
// and emit the survivors (for a root scan: fold them into the group-by,
// or return them as results). A scan that keeps every row emits src's
// own rows: nothing is built for it.
//
//hierdb:hotpath
func (q *query) scanTail(a *activation, src *vec.Batch, lo, hi int, preds []vec.Pred, w int) (outs []*activation, results *vec.Batch) {
	s := a.op.scan
	vs := &q.vscratch[w]
	arena := &q.varenas[w]
	if len(preds) > 0 || s.Filter != nil {
		b := viewInto(&vs.win, src, lo, hi)
		if cap(vs.sel) < b.N {
			vs.sel = make([]int32, 0, b.N)
		}
		sel := vec.ApplyPreds(b, preds, nil, vs.sel[:0])
		if s.Filter != nil {
			scratch := vs.rowScratch(len(b.Cols) + 1)
			kept := sel[:0]
			for _, li := range sel {
				if s.Filter(b.ReadRow(int(li), scratch)) {
					kept = append(kept, li)
				}
			}
			sel = kept
		}
		vs.sel = sel[:0]
		if len(sel) == 0 {
			return nil, nil
		}
		if len(sel) < b.N {
			src, lo, hi = vec.Select(b, sel, arena), 0, len(sel)
		}
	}
	if a.op.consumer != nil {
		q.emitBatch(a.op.consumer, src, lo, hi, &outs, vs, arena)
		return outs, nil
	}
	if q.mq.gb != nil {
		q.addOpRows(a.op, q.foldGroups(a.op, w, viewInto(&vs.win, src, lo, hi), nil))
		return nil, nil
	}
	return nil, window(src, lo, hi) // a result outlives the activation: a header of its own
}

// processBuild appends one routed batch to the worker's own part of the
// join's build side — whole, with no key hashed and no row selected:
// every row routed here is this node's. A governed join charges the
// batch to the node's memory account and, denied a top-up, switches to
// partitioned execution (spillTransition); from then on a batch is
// partitioned to disk instead. The flag is read under the part's lock,
// which the transition takes to drain the part after raising it: a batch
// is either appended before the drain or spilled.
//
//hierdb:hotpath
func (q *query) processBuild(a *activation, w int) error {
	or := q.ops[a.op.id]
	vs := &q.vscratch[w]
	b := a.input(vs)
	sp := or.spill
	or.locks[w].Lock()
	if sp != nil && sp.active.Load() {
		or.locks[w].Unlock()
		return q.spillBatch(sp.build, a.op.keyCol, 0, b, vs)
	}
	ap := or.parts[w]
	if ap == nil {
		ap = vec.NewAppender(a.op.outKinds, or.partHint)
		or.parts[w] = ap
	}
	ap.AppendBatch(b)
	or.locks[w].Unlock()
	if sp != nil && q.chargeMem(batchBytes(b, nil)+int64(b.N)*hashEntryBytes) {
		return q.spillTransition(or, vs)
	}
	return nil
}

// processProbeVec streams one routed batch against the build side. Every
// row of a probe activation is owned by its destination node a.dest —
// emitBatch routes by owner, a steal moves whole activations with their
// dest — so the batch matches against that node's sealed side: this
// node's own, or for stolen rows the owner's, sealed by whichever probe
// or thief reaches it first.
//
//hierdb:hotpath
func (q *query) processProbeVec(a *activation, w int) (outs []*activation, results *vec.Batch) {
	vs := &q.vscratch[w]
	side, err := q.mq.frags[a.dest].ops[a.op.partner.id].seal(q.mq, vs)
	if err != nil {
		q.mq.fail(err)
		return nil, nil
	}
	return q.probe(a, a.input(vs), side, w)
}

// probe matches every row of b — probe activation a's rows — against a
// sealed build side, shared by the in-memory and spill-phase probe
// kernels: hash the key column, walk each row's chain and record every
// match as a pair of positions (probe row, row of the sealed store) in
// worker w's scratch. Under a group-by the root probe emits nothing: the
// pairs fold straight into the worker's partial. Any other probe
// assembles them into the join's output batch, the query's result at the
// root, routed downstream elsewhere. An empty side has no key column to
// compare with and matches nothing.
//
//hierdb:hotpath
func (q *query) probe(a *activation, b *vec.Batch, side *buildSide, w int) (outs []*activation, results *vec.Batch) {
	store := side.store
	if store.N == 0 {
		return nil, nil
	}
	vs := &q.vscratch[w]
	hs := keyHashes(b, a.op.keyCol, vs)
	kc := &b.Cols[a.op.keyCol]
	vs.probeRows = vs.probeRows[:0]
	vs.bpos = vs.bpos[:0]
	for i := range hs {
		side.match(vs, kc, i, hs[i])
	}
	if len(vs.probeRows) == 0 {
		return nil, nil
	}
	root := a.op.consumer == nil
	if root && q.mq.gb != nil {
		q.addOpRows(a.op, q.foldGroups(a.op, w, b, store))
		return nil, nil
	}
	arena := &q.varenas[w]
	out := gatherJoin(b, store, a.op.join.Out, vs, arena)
	if root {
		return nil, out
	}
	q.emitBatch(a.op.consumer, out, 0, out.N, &outs, vs, arena)
	return outs, nil
}

// gatherJoin assembles a join's output batch from the match pairs in
// scratch, by reference: the probe batch's columns under the composed
// selection of the matched probe rows, and the sealed store's columns —
// kind, mirror, Box and null bitmap as stored — under one position
// vector they all share. A join with an Out list emits the headers it
// lists, in its order, from that concatenation: a projection or
// permutation costs nothing per row.
//
//hierdb:hotpath
func gatherJoin(b, store *vec.Batch, out []int, vs *vecScratch, arena *vec.Arena) *vec.Batch {
	m, pw := len(vs.probeRows), len(b.Cols)
	w := pw + len(store.Cols)
	// One header array: the concatenation, then the columns out picks.
	cols := make([]vec.Col, w+len(out))
	vec.Compose(cols, b, vs.probeRows, arena)
	idx := arena.I32(m)
	copy(idx, vs.bpos)
	for ci := range store.Cols {
		oc := &cols[pw+ci]
		*oc = store.Cols[ci]
		oc.Idx = idx
	}
	if len(out) == 0 {
		return &vec.Batch{Cols: cols, N: m}
	}
	for i, c := range out {
		cols[w+i] = cols[c]
	}
	return &vec.Batch{Cols: cols[w:], N: m}
}

// batchRowsVec columnizes rows and slices the result into Batch-sized
// result batches (windows over one shared columnization).
func batchRowsVec(rows []Row, size int) []*vec.Batch {
	if len(rows) == 0 {
		return nil
	}
	b := vec.FromRows(rows)
	out := make([]*vec.Batch, 0, (b.N+size-1)/size)
	for lo := 0; lo < b.N; lo += size {
		hi := min(lo+size, b.N)
		out = append(out, window(b, lo, hi))
	}
	return out
}

// batchBytes approximates the in-memory footprint of b's logical rows
// listed in sel (nil = all), summed column-wise from the typed mirrors
// as what the materialized rows would weigh: a 24-byte header per row,
// an interface word pair per present value, string payloads on top.
func batchBytes(b *vec.Batch, sel []int32) int64 {
	k := b.N
	if sel != nil {
		k = len(sel)
	}
	n := int64(24 * k)
	for ci := range b.Cols {
		c := &b.Cols[ci]
		if c.Kind != vec.Any && c.Kind != vec.String {
			n += int64(16 * k)
			continue
		}
		for j := 0; j < k; j++ {
			li := j
			if sel != nil {
				li = int(sel[j])
			}
			pos := c.Pos(li)
			if c.Kind == vec.String {
				n += 16 + int64(len(c.Str[pos])) // "" at null positions
				continue
			}
			v := c.Value(pos)
			if vec.IsAbsent(v) {
				continue // ragged padding: the row ends before this column
			}
			n += 16
			if s, ok := v.(string); ok {
				n += int64(len(s))
			}
		}
	}
	return n
}
