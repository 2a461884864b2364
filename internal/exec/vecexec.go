package exec

// Vectorized execution kernels: the columnar hot path of the engine.
// Scans carve windows from columnized tables and evaluate predicates
// as per-column loops, builds hash whole key columns and accumulate
// typed per-stripe column stores, probes hash the probe key column and
// walk typed indexes. A join's output is a pair of selections: the
// stripes' rows are sealed into one dense store before the first probe
// (sealStripes), and an output batch is the probe batch's columns under
// a composed selection next to the sealed store's columns under one
// shared position vector — no build value is copied per match. All row
// materialization funnels through vec's AppendRows/ReadRow boundary,
// and column values are read typed or through Col.Value, never
// Box[pos]: batches decoded from table files and spill partitions are
// boxless (see internal/vec), boxed only for the rows that reach the
// sink or a build store.
//
// Every operator's width, column kinds and key column are fixed when
// the plan is compiled (expand, runtime.go), and every batch an
// operator receives has that width: no kernel here runs user code to
// find a key or asks whether a schema is known.
//
// Hash parity: every kernel reproduces keyHash64 bit-for-bit (mix64
// for the int family and float bits, FNV-1a for strings, and the
// precomputed fmt-fallback hashes for nil/bool), so stripe routing,
// node ownership and spill partitioning are identical to the row
// engine's.

import (
	"errors"
	"fmt"
	"math"

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

// Index representations of a build operator's hash table.
const (
	idxBoxed = iota // map[any] — exact Go map semantics for every key type
	idxI64          // int-family keys, both sides the identical kind
	idxStr          // string keys both sides
)

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
// consumer pre-shaped for Any takes either, and typed indexes over them
// are not claimed here.
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

// indexKind picks a build's index representation from the two sides'
// key-column kinds: typed only when they are the identical int-family
// kind or both String — the boxed map is the semantic reference
// (cross-type inequality, NaN, ±0.0, nil keys), so anything else stays
// boxed.
func indexKind(build, probe vec.Kind) int {
	switch {
	case build != probe:
	case build == vec.String:
		return idxStr
	case build.IntFamily():
		return idxI64
	}
	return idxBoxed
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

// dests returns n empty routing lists (rows per node, stripe or spill
// partition) backed by the scratch; they stay valid until the next
// call.
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
// logical row's join key, column keyCol of b: one typed, fmt-free loop
// per kind.
//
//hierdb:hotpath
func keyHashes(b *vec.Batch, keyCol int, vs *vecScratch) []uint64 {
	n := b.N
	hs := vs.hashes(n)
	c := &b.Cols[keyCol]
	switch {
	case c.Kind.IntFamily():
		for i := 0; i < n; i++ {
			pos := c.Pos(i)
			if c.NullAt(pos) {
				hs[i] = hNil
			} else {
				hs[i] = mix64(uint64(c.I64[pos]))
			}
		}
	case c.Kind == vec.String:
		for i := 0; i < n; i++ {
			pos := c.Pos(i)
			if c.NullAt(pos) {
				hs[i] = hNil
			} else {
				hs[i] = fnvString(c.Str[pos])
			}
		}
	case c.Kind == vec.Float64:
		for i := 0; i < n; i++ {
			pos := c.Pos(i)
			if c.NullAt(pos) {
				hs[i] = hNil
			} else {
				hs[i] = mix64(math.Float64bits(c.F64[pos]))
			}
		}
	case c.Kind == vec.Bool:
		for i := 0; i < n; i++ {
			pos := c.Pos(i)
			if c.NullAt(pos) {
				hs[i] = hNil
			} else if c.B[pos] {
				hs[i] = hTrue
			} else {
				hs[i] = hFalse
			}
		}
	default:
		for i := 0; i < n; i++ {
			hs[i] = keyHash64(c.Value(c.Pos(i)))
		}
	}
	return hs
}

// ---------------------------------------------------------------------
// Stripe stores (the build side's hash table)
// ---------------------------------------------------------------------

// stripeStore is one lock stripe of a join's hash table: an index from
// key to row positions, plus — while the build runs — an appender
// accumulating the stripe's rows as dense columns. Once the build is
// complete sealStripes moves every stripe's rows into one dense store
// shared by the whole build side; the stripe keeps its index, whose
// positions then count from base in that store. The index is typed
// (map[int64] or map[string]) when both sides' key columns are of the
// identical kind, boxed (map[any], the semantic reference) otherwise
// (indexKind); null keys live in a side list so nil==nil matching is
// preserved under typed indexing.
type stripeStore struct {
	app     *vec.Appender // row storage while building; nil once sealed
	idxKind int
	keyCol  int // key column in the stored schema
	m64     map[int64][]int32
	mstr    map[string][]int32
	many    map[any][]int32
	nulls   []int32
	rows    int
	// sealed is the build side's dense store and base this stripe's
	// first position in it (set by sealStripes, immutable afterwards).
	sealed *vec.Batch
	base   int32
}

func newStripeStore(kinds []vec.Kind, idxKind, keyCol, hint int) *stripeStore {
	ss := &stripeStore{
		app:     vec.NewAppender(kinds, hint),
		idxKind: idxKind,
		keyCol:  keyCol,
	}
	switch ss.idxKind {
	case idxI64:
		ss.m64 = make(map[int64][]int32, hint)
	case idxStr:
		ss.mstr = make(map[string][]int32, hint)
	default:
		ss.many = make(map[any][]int32, hint)
	}
	return ss
}

// insertSel appends the logical rows of b listed in sel and indexes
// their keys. Caller holds the stripe lock.
//
//hierdb:hotpath
func (ss *stripeStore) insertSel(b *vec.Batch, sel []int32) {
	base := int32(ss.app.Len())
	ss.app.AppendRowsSel(b, sel)
	ss.rows += len(sel)
	c := &b.Cols[ss.keyCol]
	for j, li := range sel {
		pos := base + int32(j)
		switch ss.idxKind {
		case idxI64:
			cp := c.Pos(int(li))
			if c.NullAt(cp) {
				ss.nulls = append(ss.nulls, pos)
			} else {
				ss.m64[c.I64[cp]] = append(ss.m64[c.I64[cp]], pos)
			}
		case idxStr:
			cp := c.Pos(int(li))
			if c.NullAt(cp) {
				ss.nulls = append(ss.nulls, pos)
			} else {
				ss.mstr[c.Str[cp]] = append(ss.mstr[c.Str[cp]], pos)
			}
		default:
			// Key by the stored word: a boxless key was boxed by the append.
			k := ss.app.Col(ss.keyCol).Value(int(pos))
			ss.many[k] = append(ss.many[k], pos)
		}
	}
}

// lookup returns the storage positions matching logical probe row li of
// the probe batch's key column c.
//
//hierdb:hotpath
func (ss *stripeStore) lookup(c *vec.Col, li int) []int32 {
	pos := c.Pos(li)
	switch ss.idxKind {
	case idxI64:
		if c.NullAt(pos) {
			return ss.nulls
		}
		return ss.m64[c.I64[pos]]
	case idxStr:
		if c.NullAt(pos) {
			return ss.nulls
		}
		return ss.mstr[c.Str[pos]]
	}
	return vec.Lookup(ss.many, c, pos)
}

// ErrBuildTooLarge fails a join whose build side holds more rows on one
// node than a batch position (int32) can address.
var ErrBuildTooLarge = errors.New("exec: join build side too large")

// sealStripes moves the rows of a completed build side out of its
// stripes' appenders into one dense store (vec.Concat: exact-size
// columns, each stripe's storage released as it is copied, a single
// non-empty stripe aliased) and points every stripe at it. The stripes
// must be quiescent — builds precede probes across the chain barrier —
// and the caller single-flight.
func sealStripes(stripes []*stripeStore) error {
	var few [32]*vec.Appender // keeps a default-striped seal's list off the heap
	parts := few[:0]
	total := 0
	for _, ss := range stripes {
		if ss == nil || ss.rows == 0 {
			continue
		}
		if total+ss.rows > math.MaxInt32 {
			return fmt.Errorf("%w: over %d rows on one node", ErrBuildTooLarge, math.MaxInt32)
		}
		ss.base = int32(total)
		total += ss.rows
		parts = append(parts, ss.app)
	}
	sealed := vec.Concat(parts)
	for _, ss := range stripes {
		if ss != nil {
			ss.app, ss.sealed = nil, sealed
		}
	}
	return nil
}

// seal seals the operator's build side on first call; every later call
// (any worker's probe, a thief acquiring this node's buckets) returns
// the same outcome. Concurrent first callers wait for the one sealing.
func (or *opRun) seal() error {
	or.sealOnce.Do(func() { or.sealErr = sealStripes(or.stripes) })
	return or.sealErr
}

// addMatches records one (probe row, sealed build position) pair per
// index position in ps, the matches of logical probe row i in a stripe
// whose rows start at base.
//
//hierdb:hotpath
func (vs *vecScratch) addMatches(i int, base int32, ps []int32) {
	for _, pos := range ps {
		vs.probeRows = append(vs.probeRows, int32(i))
		vs.bpos = append(vs.bpos, base+pos)
	}
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
	for ; lo < hi; lo += q.mq.opt.Batch {
		*outs = append(*outs, &activation{op: consumer, b: b, lo: lo, hi: min(lo+q.mq.opt.Batch, hi), dest: dest})
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

// stripeSels groups a build batch's logical rows, given their key
// hashes, by the lock stripe each routes to, in the worker's scratch:
// global bucket g = hash mod nodes*Stripes is owned by node g mod nodes
// as its stripe g div nodes (every row here is this node's own).
//
//hierdb:hotpath
func (q *query) stripeSels(hs []uint64, stripes int, vs *vecScratch) [][]int32 {
	per := vs.dests(stripes)
	nb, n := uint64(q.mq.buckets), q.mq.n
	for i, h := range hs {
		s := int(h%nb) / n
		per[s] = append(per[s], int32(i))
	}
	return per
}

// processBuildVec inserts one routed batch into the join's striped
// hash table: hash the key column once, group rows by stripe, then one
// lock round per touched stripe.
//
//hierdb:hotpath
func (q *query) processBuildVec(a *activation, w int) {
	or := q.ops[a.op.id]
	vs := &q.vscratch[w]
	b := a.input(vs)
	hs := keyHashes(b, a.op.keyCol, vs)
	for s, sel := range q.stripeSels(hs, len(or.stripes), vs) {
		if len(sel) == 0 {
			continue
		}
		or.locks[s].Lock()
		or.stripes[s].insertSel(b, sel)
		or.stripeRows[s] += len(sel)
		or.locks[s].Unlock()
	}
}

// processProbeVec streams one routed batch against the build side:
// seal the build on the first probe, hash the key column, walk each
// row's stripe index (local stripe or the steal cache's acquired one)
// and record every match as a pair of positions — probe row, row of the
// sealed store. All of an activation's rows belong to one owner node
// (emitBatch routes by owner, a steal moves whole activations), so all
// its matches lie in that owner's sealed store; should a row match in
// another store, the batch is cut there and its tail handed back as an
// activation of its own.
//
//hierdb:hotpath
func (q *query) processProbeVec(a *activation, w int) (outs []*activation, results *vec.Batch) {
	bo := q.ops[a.op.partner.id]
	if err := bo.seal(); err != nil {
		q.mq.fail(err)
		return nil, nil
	}
	vs := &q.vscratch[w]
	b := a.input(vs)
	hs := keyHashes(b, a.op.keyCol, vs)
	keyCol := &b.Cols[a.op.keyCol]
	var cache bucketCache
	po := q.ops[a.op.id]
	vs.probeRows = vs.probeRows[:0]
	vs.bpos = vs.bpos[:0]
	nb, nn := uint64(q.mq.buckets), q.mq.n
	var store *vec.Batch // the sealed store the matches so far lie in
	cut := b.N
	for i := 0; i < b.N; i++ {
		var ss *stripeStore
		g := int(hs[i] % nb)
		if g%nn == q.node {
			ss = bo.stripes[g/nn]
		} else {
			// A stolen row: its bucket's stripe was acquired into this
			// node's cache with the activation.
			if cache == nil {
				if c := po.cache.Load(); c != nil {
					cache = *c
				}
			}
			ss = cache[g]
		}
		if ss == nil {
			continue
		}
		ps := ss.lookup(keyCol, i)
		if len(ps) == 0 {
			continue
		}
		if ss.sealed != store {
			if store != nil {
				cut = i
				break
			}
			store = ss.sealed
		}
		vs.addMatches(i, ss.base, ps)
	}
	outs, results = q.finishProbe(a, b, store, w)
	if a.lo+cut < a.hi {
		outs = append(outs, &activation{op: a.op, b: a.b, lo: a.lo + cut, hi: a.hi, dest: q.node})
	}
	return outs, results
}

// finishProbe consumes the match pairs accumulated in worker w's scratch
// (probe row, position in the sealed build store) — shared by the
// in-memory and spill-phase probe kernels. Under a group-by the root
// probe emits nothing: the pairs fold straight into the worker's
// partial. Any other probe assembles them into the join's output batch,
// the query's result at the root, routed downstream elsewhere.
//
//hierdb:hotpath
func (q *query) finishProbe(a *activation, b, store *vec.Batch, w int) (outs []*activation, results *vec.Batch) {
	vs := &q.vscratch[w]
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
// (parity with approxRowBytes over the materialized rows: a 24-byte
// header per row, an interface word pair per present value, string
// payloads on top).
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
