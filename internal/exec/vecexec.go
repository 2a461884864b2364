package exec

// Vectorized execution kernels: the columnar hot path of the engine.
// Scans carve windows from columnized tables and evaluate predicates
// as per-column loops, builds append whole batches to the worker's own
// columnar part — nothing is hashed or indexed while the build runs —
// and probes hash the probe key column and walk one chained hash index
// a batch at a time: one typed loop over the two key mirrors per probe
// batch (matchAll), its kind, index and null bitmaps resolved once. A
// join's output is a pair of selections: at the chain barrier
// one activation per node seals the build side (opRun.seal) — the parts'
// rows move into one dense store and one pass over its key column fills
// the index — and an output batch is the probe batch's columns under a
// composed selection next to the sealed store's columns under one
// shared position vector — no build value is copied per match. All row
// materialization funnels through vec's one boxing kernel — AppendRows
// at the sink, a batch at a time, and Col.BoxRows for the row tiles a
// Filter or an aggregate's Arg reads, a few rows at a time, filled a
// column at a time — and column values are read typed or through Col.Value, never
// Box[pos]: a typed column has no Box, wherever it comes from (see
// internal/vec), and a value read from it is boxed in place over its
// mirror slot — no allocation at the sink, and a build store copies
// typed values into its own mirrors.
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
	"slices"

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

// scanSchema is a scan's output schema and, for a resident table, the
// columnization it reads — one snapshot for both. A file-backed table's
// schema is its footer's — exactly what a resident FromRows over the
// table would have resolved; a resident table's is its columnization's,
// as wide as its widest row (a shorter row is null in the columns it
// lacks); a table without rows is as wide as it declares (Cols).
func scanSchema(t *Table) ([]vec.Kind, *vec.Batch) {
	if ft := t.File; ft != nil {
		return append([]vec.Kind(nil), ft.Kinds()...), nil
	}
	tb := t.Columnar()
	if tb.N == 0 {
		return make([]vec.Kind, len(t.Cols)), tb
	}
	kinds := make([]vec.Kind, len(tb.Cols))
	for i := range tb.Cols {
		kinds[i] = tb.Cols[i].Kind
	}
	return kinds, tb
}

// joinKinds is a probe operator's output schema: the columns out lists
// (empty = all) of the probe input's kinds followed by the build input's.
// A join's output batches carry build columns as its sealed store holds
// them, and the store holds them with the build input's kinds: every
// batch a build part or a partition load appends has them.
func joinKinds(probe, build []vec.Kind, out []int) []vec.Kind {
	all := slices.Concat(probe, build)
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

// Columnar returns the table's columnar form, cached on the table: the
// columnization every resident scan reads its rows from (registration
// warms it). The cache is invalidated when the row slice changes
// identity or length (tables are registered once and then immutable in
// practice).
func (t *Table) Columnar() *vec.Batch {
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

// vecScratch is one worker's reusable kernel state, the pool's
// (pool.vscratch), used by every query the worker serves — grown to the
// high-water mark once, then allocation-free.
type vecScratch struct {
	hs        []uint64       // key hashes per logical row
	sel       []int32        // predicate/filter survivors
	block     []any          // row tile: a few rows filled column-major (tileRows)
	keyPos    [tileMax]int32 // a fold tile's group key positions (foldGroups)
	probeRows []int32        // probe match: logical probe row per match
	bpos      []int32        // probe match: position in the sealed build store
	perDest   [][]int32
	win       vec.Batch // header of the input rows' view (viewInto)
}

// release drops what the scratch points into — the last input view's
// columns, the last row tile's boxed values — keeping its storage, so a
// parked worker pins no query's batches.
func (vs *vecScratch) release() {
	clear(vs.block[:cap(vs.block)])
	clear(vs.win.Cols[:cap(vs.win.Cols)])
	vs.win = vec.Batch{Cols: vs.win.Cols[:0]}
}

func (vs *vecScratch) hashes(n int) []uint64 {
	if cap(vs.hs) < n {
		vs.hs = make([]uint64, n)
	}
	vs.hs = vs.hs[:n]
	return vs.hs
}

// Row tiles: a closure that reads rows — a scan's Filter, an aggregate's
// Arg — is fed a tile at a time. The tile's rows are filled column-major,
// one vec boxing call per column (Col.BoxRows), into a block of the
// worker's scratch that holds at most tileWords values (1 KiB) — up to
// tileMax rows, fewer when rows are wide, one when a row alone is wider.
const (
	tileMax   = 8
	tileWords = 64
)

// tileLen is the number of rows of width w a tile holds.
func tileLen(w int) int { return max(1, min(tileMax, tileWords/max(w, 1))) }

// tileRows returns the worker's row block for k rows of width w: row j is
// block[j*w : (j+1)*w]. Its previous contents are left to be overwritten.
//
//hierdb:hotpath
func (vs *vecScratch) tileRows(k, w int) []any {
	if cap(vs.block) < k*w {
		vs.block = make([]any, tileLen(w)*w)
	}
	return vs.block[:k*w]
}

// tileRow is row j of a filled block of width-w rows, capped at its end
// so a closure's append cannot run into the next row.
//
//hierdb:hotpath
func tileRow(block []any, j, w int) Row {
	return block[j*w : (j+1)*w : (j+1)*w]
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
// The seal (opRun.seal) builds the index in one pass: position p hangs off
// slot(keyHash64(key)), the hash every router computes anyway, and a
// chain ascends — the order rows arrived in within their part.
// Equality is decided on the store's columns, under the kind the two key
// columns share (matchAll); the boxed == it falls back to (match) is the
// semantic reference: int 1 is not int64 1, NaN equals nothing, 0.0
// equals -0.0, null meets null. A spill partition's store (memgov.go) is
// sealed the same way, and a group partial (groupTable) keeps its keys in
// the same chained layout under the same equality. Immutable once built,
// so a thief shares it.
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

// sealIndexRowBytes is what a chained index holds a row it has room
// for: two heads and one next, int32 each.
const sealIndexRowBytes = 3 * 4

// ErrBuildTooLarge fails a join whose build side holds more rows on one
// node, or in one spill partition, than a batch position (int32) addresses.
var ErrBuildTooLarge = errors.New("exec: join build side too large")

// sealStore indexes a dense store on column keyCol: one allocation, three
// words per row, whatever the number of distinct keys. Rows are linked
// from the last to the first, so every chain ascends. With buckets > 0
// it also counts the rows per local hash bucket (bucketRows) of a node
// of a nodes-node engine with buckets global buckets. Keys are hashed a
// chunk at a time on the stack: a seal grows no worker's scratch.
//
//hierdb:hotpath
func sealStore(store *vec.Batch, keyCol int, buckets, nodes int) (*buildSide, error) {
	n := store.N
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("%w: over %d rows", ErrBuildTooLarge, math.MaxInt32) //hierdb:ignore hotpath the failure path
	}
	slots := max(2*n, 1)
	buf := make([]int32, slots+n)
	bs := &buildSide{store: store, keyCol: keyCol, heads: buf[:slots], next: buf[slots:]}
	if buckets > 0 {
		bs.bucketRows = make([]int, buckets/nodes)
	}
	var chunk [256]uint64
	for hi := n; hi > 0; hi -= len(chunk) {
		lo := max(hi-len(chunk), 0)
		hs := chunk[:hi-lo]
		hashKeys(&store.Cols[keyCol], lo, hs)
		for p := hi - 1; p >= lo; p-- {
			s := slot(hs[p-lo], len(bs.heads))
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

// slot maps a key hash to its chain among n slots. Rows that reach one
// node (or one spill partition) agree in the residue that routed them
// there, so the hash is remixed — Fibonacci hashing — and range-reduced
// by its high bits rather than masked by its low ones.
//
//hierdb:hotpath
func slot(h uint64, n int) int {
	hi, _ := bits.Mul64(h*0x9e3779b97f4a7c15, uint64(n))
	return int(hi)
}

// matchAll matches every logical row of probe key column kc, whose keys
// hash to hs, against the side, and records one (probe row, store
// position) pair in the worker's scratch per store row with the same
// key: row by row, and within a row in chain order — ascending store
// positions — so the pairs come out in the order the output keeps. When
// both key columns are of one typed kind the batch runs one typed loop
// (matchKeys) over the two mirrors, with the kind, the probe column's
// index and the null bitmaps resolved once per call; Any keys, and two
// different typed kinds — which meet at null only — take match, row by
// row.
//
//hierdb:hotpath
func (bs *buildSide) matchAll(vs *vecScratch, kc *vec.Col, hs []uint64) {
	sc := &bs.store.Cols[bs.keyCol]
	idx := kc.Idx
	if idx == nil {
		idx = vec.Ident(len(hs))
	}
	switch {
	case kc.Kind != sc.Kind || kc.Kind == vec.Any:
		for i := range hs {
			bs.match(vs, kc, i, hs[i])
		}
	case kc.Kind.IntFamily():
		matchKeys(bs, vs, kc.I64, sc.I64, idx, kc.Null, sc.Null, hs)
	case kc.Kind == vec.Float64:
		matchKeys(bs, vs, kc.F64, sc.F64, idx, kc.Null, sc.Null, hs)
	case kc.Kind == vec.Bool:
		matchKeys(bs, vs, kc.B, sc.B, idx, kc.Null, sc.Null, hs)
	default:
		matchKeys(bs, vs, kc.Str, sc.Str, idx, kc.Null, sc.Null, hs)
	}
}

// matchKeys is matchAll's typed loop: probe row i's key is probe[idx[i]],
// store position p's is store[p], and keys are equal under Go's == on the
// kind — which is what the boxed == says of two values of one kind (NaN
// equals nothing, 0.0 equals -0.0). Without null bitmaps a chain step is
// one compare; with either, the null-aware shape keeps the rule that null
// meets null and nothing else (a null's mirror slot holds the zero value,
// which must not meet a stored zero).
//
//hierdb:hotpath
func matchKeys[T int64 | float64 | string | bool](bs *buildSide, vs *vecScratch, probe, store []T, idx []int32, pnull, snull []uint64, hs []uint64) {
	prs, bps := vs.probeRows, vs.bpos
	heads, next := bs.heads, bs.next
	if pnull == nil && snull == nil {
		for i, h := range hs {
			x := probe[idx[i]]
			for p := heads[slot(h, len(heads))]; p != 0; p = next[p-1] {
				if store[p-1] == x {
					prs = append(prs, int32(i))
					bps = append(bps, p-1)
				}
			}
		}
	} else {
		for i, h := range hs {
			pos := idx[i]
			x, null := probe[pos], bitSet(pnull, int(pos))
			for p := heads[slot(h, len(heads))]; p != 0; p = next[p-1] {
				sp := p - 1
				if sn := bitSet(snull, int(sp)); null == sn && (null || store[sp] == x) {
					prs = append(prs, int32(i))
					bps = append(bps, sp)
				}
			}
		}
	}
	vs.probeRows, vs.bpos = prs, bps
}

// bitSet reports whether bit pos of a null bitmap is set; a nil bitmap
// has none.
//
//hierdb:hotpath
func bitSet(bm []uint64, pos int) bool {
	return bm != nil && bm[pos>>6]&(1<<(uint(pos)&63)) != 0
}

// match is matchAll's row-at-a-time path for the key pairs its typed
// loop does not take — an Any column on either side, or two different
// typed kinds: it walks the chain of logical row i of kc, whose key
// hashes to h, and records a pair per store row whose key is == to row
// i's, boxed. The boxed == is the semantic reference the typed loop
// keeps: int 1 is not int64 1, and a null (nil) meets a null only.
//
//hierdb:hotpath
func (bs *buildSide) match(vs *vecScratch, kc *vec.Col, i int, h uint64) {
	v := kc.Value(kc.Pos(i))
	sc := &bs.store.Cols[bs.keyCol]
	for p := bs.heads[slot(h, len(bs.heads))]; p != 0; p = bs.next[p-1] {
		if sc.Value(int(p-1)) == v {
			vs.probeRows = append(vs.probeRows, int32(i))
			vs.bpos = append(vs.bpos, p-1)
		}
	}
}

// seal is a build operator's closing activation on one node, run once
// the operator has drained: the parts' rows move into one dense store
// (vec.Concat: exact-size columns, each part's storage released as it
// is copied, a single non-empty part aliased), the store is indexed —
// and, when mq steals, its rows counted per bucket — and the result
// becomes side. The parts are quiescent: no build activation is left,
// and no probe runs before the seals drain.
func (or *opRun) seal(mq *mquery) error {
	store := vec.Concat(or.parts)
	clear(or.parts)
	var buckets int
	if mq.stealing {
		buckets = mq.buckets
	}
	var err error
	or.side, err = sealStore(store, or.op.keyCol, buckets, mq.n)
	return err
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

// windows slices b into windows of at most size rows.
func windows(b *vec.Batch, size int) []*vec.Batch {
	var out []*vec.Batch
	for lo := 0; lo < b.N; lo += size {
		out = append(out, window(b, lo, min(lo+size, b.N)))
	}
	return out
}

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
	n := q.mq.n
	if n == 1 {
		q.emitWindows(consumer, b, lo, hi, 0, outs)
		return
	}
	v := viewInto(&vs.win, b, lo, hi)
	hs := keyHashes(v, consumer.keyCol, vs)
	perDest := vs.dests(n)
	for i := 0; i < v.N; i++ {
		d := int(hs[i] % uint64(n))
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
	return q.scanTail(a, a.op.src, a.lo, a.hi, a.op.scan.Preds, w)
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
		sel := vec.Ident(b.N) // a Filter alone reads every row in place, not a copy
		if len(preds) > 0 {
			sel = vec.ApplyPreds(b, preds, nil, vs.sel[:0])
		}
		if s.Filter != nil {
			sel = filterRows(b, sel, s.Filter, vs)
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

// filterRows keeps the logical rows sel of b that filter accepts, written
// over the worker's selection scratch (behind the read cursor when sel is
// that scratch). The rows reach the closure a tile at a time: each tile is
// filled column-major by one boxing call per column, then the closure
// runs on each of its rows, in sel's order.
//
//hierdb:hotpath
func filterRows(b *vec.Batch, sel []int32, filter func(Row) bool, vs *vecScratch) []int32 {
	w := len(b.Cols)
	kept := vs.sel[:0]
	for lo, tile := 0, tileLen(w); lo < len(sel); lo += tile {
		rows := sel[lo:min(lo+tile, len(sel))]
		block := vs.tileRows(len(rows), w)
		for ci := range b.Cols {
			b.Cols[ci].BoxRows(block[ci:], w, rows)
		}
		for j, li := range rows {
			if filter(tileRow(block, j, w)) {
				kept = append(kept, li)
			}
		}
	}
	return kept
}

// processBuild appends one routed batch to the worker's own part of the
// join's build side — whole, with no key hashed and no row selected:
// every row routed here is this node's. A governed join charges the
// batch to the node's memory account and, denied a top-up, switches to
// partitioned execution (spillTransition); from then on a batch is
// partitioned to disk instead.
//
//hierdb:hotpath
func (q *query) processBuild(a *activation, w int) error {
	or := q.ops[a.op.id]
	vs := &q.vscratch[w]
	b := a.input(vs)
	spilling, over := q.appendPart(or, b, w)
	if spilling {
		return q.spillBatch(or.spill.build, a.op.keyCol, 0, b, vs)
	}
	if over {
		return q.spillTransition(or, vs)
	}
	return nil
}

// appendPart appends b to worker w's part under the part's lock and, for
// a governed join, charges it, reporting whether the node total crossed
// the budget (over) — unless the join has already switched to partitioned
// execution (spilling). The spill flag is read under the lock, which the
// transition takes to drain the part after raising it: a batch is either
// appended before the drain or spilled. The lock is released on return
// even when the append panics on a batch of another schema, so a
// transition never waits on a failed activation's part.
//
//hierdb:hotpath
func (q *query) appendPart(or *opRun, b *vec.Batch, w int) (spilling, over bool) {
	sp := or.spill
	or.locks[w].Lock()
	defer or.locks[w].Unlock()
	if sp != nil && sp.active.Load() {
		return true, false
	}
	var charge int64
	if sp != nil {
		charge = buildBytes(b)
	}
	ap := or.parts[w]
	if ap == nil {
		hint := or.partHint
		if sp != nil { // no more rows than the budget holds at this batch's price
			hint = min(hint, int(q.mem.budget/(charge/int64(max(b.N, 1))+1))+b.N)
		}
		ap = vec.NewAppender(or.op.outKinds, hint)
		or.parts[w] = ap
	}
	ap.AppendBatch(b)
	if sp != nil { // under the part's lock: the draining transition refunds what was charged
		or.held[w] += charge
		over = q.chargeMem(charge)
	}
	return false, over
}

// buildBytes is what the rows of b hold in a build side: their columns'
// bytes and their share of the sealed index.
//
//hierdb:hotpath
func buildBytes(b *vec.Batch) int64 {
	return b.Bytes() + int64(b.N)*sealIndexRowBytes
}

// processProbeVec streams one routed batch against the build side. Every
// row of a probe activation is owned by its destination node a.dest —
// emitBatch routes by owner, a steal moves whole activations with their
// dest — so the batch matches against that node's sealed side: this
// node's own, or for stolen rows the owner's, sealed at the chain
// barrier like every other.
//
//hierdb:hotpath
func (q *query) processProbeVec(a *activation, w int) (outs []*activation, results *vec.Batch) {
	return q.probe(a, a.input(&q.vscratch[w]), q.mq.frags[a.dest].ops[a.op.partner.id].side, w)
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
	side.matchAll(vs, kc, hs)
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
// kind, mirror or Box, and null bitmap as stored — under one position
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
