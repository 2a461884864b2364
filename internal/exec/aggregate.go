package exec

// Aggregation on top of the join pipeline: the decision-support queries
// that motivate the paper (§1, data-warehouse workloads) end in a group-by
// over the join result. Aggregation runs as parallel partial aggregation:
// each pool worker folds the root operator's output into a private
// partial as it is produced (foldGroups: a root probe's match pairs go in
// directly, no output batch in between, no synchronization on the hot
// path), and the partials merge in one activation per node at the end.
// A partial has one format, a groupTable: a typed key column hashed and
// chained as a join's build side is, a count and aggregate columns. Its
// batch view is what a partial spills, merges and leaves in. The fold
// runs a tile of a few matches at a time: the tile's groups are resolved
// in one call, its Arg rows filled column-major by vec's boxing kernel,
// and only then do the Arg closures run — so the per-match work is the
// group's own and the closures', not a row built value by value.

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"hierdb/internal/spill"
	"hierdb/internal/vec"
)

// AggFunc identifies an aggregate function.
type AggFunc int

const (
	// Count counts rows per group.
	Count AggFunc = iota
	// Sum sums a numeric column per group.
	Sum
	// Min keeps the per-group minimum of a numeric column.
	Min
	// Max keeps the per-group maximum.
	Max
)

// String implements fmt.Stringer.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	}
	return fmt.Sprintf("AggFunc(%d)", int(f))
}

// Aggregation is one aggregate over the input rows.
type Aggregation struct {
	Func AggFunc
	// Arg extracts the numeric argument (ignored for Count). The value
	// must be an int, int64 or float64.
	Arg func(Row) float64
}

// GroupBy describes a grouped aggregation over a plan's output.
type GroupBy struct {
	// Key is the group key's column in the plan's output.
	Key int
	// Aggs lists the aggregates; output rows are [key, agg0, agg1, ...].
	Aggs []Aggregation
}

// groupTable is one group-by partial — a worker's, a node's, the
// query's — as columns: group g has key key[g], of the key's compile-time
// kind, count n[g] and the running value of aggregate i in vals[i][g] (0
// for a Count). heads and next chain the groups as a build side's rows
// are chained (buildSide), in one buffer allocated by the first group.
// Its one other form is batch().
type groupTable struct {
	aggs        []Aggregation
	key         vec.Col
	heads, next []int32
	n           []int64
	vals        [][]float64
}

var noGroups = []int32{0} // an empty table's heads: one empty chain, never written

func newGroupTable(aggs []Aggregation, key vec.Kind) *groupTable {
	return &groupTable{aggs: aggs, key: vec.Col{Kind: key}, heads: noGroups, vals: make([][]float64, len(aggs))}
}

func (t *groupTable) groups() int { return len(t.n) }

// resolve sets gs[j] to the group of the key at logical row lo+j of kc,
// creating the new ones, with hs as scratch for the keys' hashes. Keys
// are equal as a probe key meets a build key (matchKeys, match): by ==
// on the kind, null meeting null only, and by boxed == in an Any column.
//
//hierdb:hotpath
func (t *groupTable) resolve(kc *vec.Col, lo int, hs []uint64, gs []int32) {
	if kc.Kind != t.key.Kind {
		panic(fmt.Sprintf("exec: %v group keys resolved in a table of %v keys", kc.Kind, t.key.Kind)) //hierdb:ignore hotpath the failure path
	}
	hashKeys(kc, lo, hs)
	switch {
	case kc.Kind == vec.Any:
		resolveKeys(t, kc, kc.Box, &t.key.Box, lo, hs, gs)
	case kc.Kind.IntFamily():
		resolveKeys(t, kc, kc.I64, &t.key.I64, lo, hs, gs)
	case kc.Kind == vec.Float64:
		resolveKeys(t, kc, kc.F64, &t.key.F64, lo, hs, gs)
	case kc.Kind == vec.Bool:
		resolveKeys(t, kc, kc.B, &t.key.B, lo, hs, gs)
	default:
		resolveKeys(t, kc, kc.Str, &t.key.Str, lo, hs, gs)
	}
}

// resolveKeys is resolve's loop over one kind's values: kc's src and
// the table's keys.
//
//hierdb:hotpath
func resolveKeys[T comparable](t *groupTable, kc *vec.Col, src []T, keys *[]T, lo int, hs []uint64, gs []int32) {
	for j, h := range hs {
		pos := kc.Pos(lo + j)
		x, null := src[pos], bitSet(kc.Null, pos)
		g := int32(-1)
		for e := t.heads[slot(h, len(t.heads))]; e != 0; e = t.next[e-1] {
			if bitSet(t.key.Null, int(e-1)) == null && (null || (*keys)[e-1] == x) {
				g = e - 1
				break
			}
		}
		if g < 0 {
			if f, ok := any(x).(float64); ok && f == 0 {
				x = any(0.0).(T) // ±0 are one key, printed 0 whichever sign its first row had
			}
			*keys = append(*keys, x)
			g = t.insert(h, null)
		}
		gs[j] = g
	}
}

// aggIdentity is each function's starting value: Min and Max start from
// the infinities, so any first value replaces them.
var aggIdentity = [...]float64{Min: math.Inf(1), Max: math.Inf(-1)}

// insert makes the key just appended, hashing to h, a group at every
// aggregate's identity.
func (t *groupTable) insert(h uint64, null bool) int32 {
	g, c := len(t.n), &t.key
	if g == len(t.next) {
		t.grow(g)
	}
	for (null || c.Null != nil) && len(c.Null) <= g>>6 {
		c.Null = append(c.Null, 0)
	}
	if null {
		c.Null[g>>6] |= 1 << (g & 63)
	}
	s := slot(h, len(t.heads))
	t.next[g], t.heads[s] = t.heads[s], int32(g+1)
	t.n = append(t.n, 0)
	for i, a := range t.aggs {
		t.vals[i] = append(t.vals[i], aggIdentity[a.Func])
	}
	return int32(g)
}

// indexCap is the room of a table of k groups' index: a power of two,
// at least 8, so its heads are at most half full.
func indexCap(k int) int {
	if k == 0 {
		return 0
	}
	return max(8, 1<<bits.Len(uint(k-1)))
}

// grow reallocates the index for indexCap(g+1) groups and relinks
// groups [0,g), hashing the table's own key column.
func (t *groupTable) grow(g int) {
	c := indexCap(g + 1)
	buf := make([]int32, 3*c)
	t.heads, t.next = buf[:2*c], buf[2*c:]
	var hs [256]uint64
	for lo := 0; lo < g; lo += len(hs) {
		hashKeys(&t.key, lo, hs[:min(len(hs), g-lo)])
		for j, h := range hs[:min(len(hs), g-lo)] {
			s := slot(h, len(t.heads))
			t.next[lo+j], t.heads[s] = t.heads[s], int32(lo+j+1)
		}
	}
}

// fold folds v into group g's running value of aggregate i — the one
// statement of what each function does. A partial's value folds in the
// same way (a sum of sums), so merge uses it too; Count lives in n.
//
//hierdb:hotpath
func (t *groupTable) fold(i int, g int32, v float64) {
	p := &t.vals[i][g]
	switch t.aggs[i].Func {
	case Sum:
		*p += v
	case Min:
		if v < *p {
			*p = v
		}
	case Max:
		if v > *p {
			*p = v
		}
	}
}

// batch views the table, without a copy, as the batch [key, n (Int64),
// val0, val1, ... (Float64)] — the form a partial spills in, merges in
// and leaves in. Valid until the table next changes.
func (t *groupTable) batch() *vec.Batch {
	cols := []vec.Col{t.key, {Kind: vec.Int64, I64: t.n}}
	for _, v := range t.vals {
		cols = append(cols, vec.Col{Kind: vec.Float64, F64: v})
	}
	return &vec.Batch{Cols: cols, N: t.groups()}
}

// bytes returns what groups [from, groups()) hold: their rows of
// batch() and the index's growth since it held from groups.
func (t *groupTable) bytes(from int) int64 {
	return window(t.batch(), from, t.groups()).Bytes() + sealIndexRowBytes*int64(indexCap(t.groups())-indexCap(from))
}

// merge folds partial b — another table's batch(), or one read back from
// a spill — into t: the one merge, of a peer worker's partial, a spilled
// partial and a peer node's alike.
func (t *groupTable) merge(b *vec.Batch) {
	var hs [256]uint64
	var gs [256]int32
	for lo := 0; lo < b.N; lo += len(gs) {
		k := min(len(gs), b.N-lo)
		t.resolve(&b.Cols[0], lo, hs[:k], gs[:k])
		for j, g := range gs[:k] {
			t.n[g] += b.Cols[1].I64[lo+j]
			for i := range t.aggs {
				t.fold(i, g, b.Cols[2+i].F64[lo+j])
			}
		}
	}
}

// result orders the groups and returns them as output batches [key,
// agg0, agg1, ...] of at most size rows: windows, through one index of
// sorted group ids, over the table's own columns, which must not change
// afterwards. The order is by formatted key, each key formatted once;
// keys that print alike (1, int64(1) and "1" in an Any column are three
// groups) by their Go type; then by count and aggregate values.
func (t *groupTable) result(size int) []*vec.Batch {
	ids, str := make([]int32, t.groups()), make([]string, t.groups())
	for g := range ids {
		ids[g], str[g] = int32(g), fmt.Sprint(t.key.Value(g))
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if str[a] != str[b] {
			return str[a] < str[b]
		}
		if ta, tb := fmt.Sprintf("%T", t.key.Value(int(a))), fmt.Sprintf("%T", t.key.Value(int(b))); ta != tb {
			return ta < tb
		}
		if t.n[a] != t.n[b] {
			return t.n[a] < t.n[b]
		}
		for _, v := range t.vals {
			if v[a] != v[b] {
				return v[a] < v[b]
			}
		}
		return false
	})
	part := t.batch()
	out := &vec.Batch{Cols: []vec.Col{part.Cols[0]}, N: len(ids)}
	for i, a := range t.aggs {
		out.Cols = append(out.Cols, part.Cols[2+i])
		if a.Func == Count {
			out.Cols[1+i] = part.Cols[1]
		}
	}
	for ci := range out.Cols {
		out.Cols[ci].Idx = ids
	}
	return windows(out, size)
}

// validateGroupBy checks a group-by description against the width of
// the plan output it folds, before execution.
func validateGroupBy(gb *GroupBy, width int) error {
	if gb.Key < 0 || gb.Key >= width {
		return fmt.Errorf("exec: group-by Key column %d out of range (plan output has %d columns)", gb.Key, width)
	}
	for i, a := range gb.Aggs {
		if a.Func < Count || a.Func > Max {
			return fmt.Errorf("exec: aggregate %d has unknown function %v", i, a.Func)
		}
		if a.Func != Count && a.Arg == nil {
			return fmt.Errorf("exec: aggregate %d (%v) without Arg", i, a.Func)
		}
	}
	return nil
}

// groupFold is one worker's state of a group-by query: its private
// partial; foldGroups' scratch — the source of each root output column
// (filled on first use) and, by position, the ids plus one of the groups
// resolved so far for the rows of sealed build store store (0 = not
// yet); and, governed, the partial's spill file, the bytes charged for
// its groups and how many of them were priced.
type groupFold struct {
	t       *groupTable
	src     []int
	store   *vec.Batch
	slots   []int32
	file    *spill.File
	charged int64
	priced  int
}

// foldGroups folds the root operator's output into worker w's private
// partial without building it, and returns the number of rows folded.
// For a root probe they are the match pairs in the worker's scratch —
// row probeRows[j] of the probe batch b beside row bpos[j] of the sealed
// build store, seen through the join's Out list; for a root scan (store
// == nil), b's own rows. The rows fold a tile at a time (tileLen): the
// tile's groups are resolved, then — when some aggregate has an Arg — the
// tile's argument rows are filled column-major, one boxing call per
// output column, and the Arg closures run on them in match order. A
// build-column key is resolved once per build row: the slots hold the
// group of each store position until the store changes (a thief folds
// an owner's store, a spill phase loads the next partition), except a
// NaN key's, which equals nothing. A store with more than four rows per
// pair folded is looked up per match instead — a reset never costs more
// than the fold it serves — and under a memory budget the slots last one
// activation: governGroupPartial may spill the partial they point into,
// and they would pin an ended phase's store.
//
//hierdb:hotpath
func (q *query) foldGroups(op *pop, w int, b, store *vec.Batch) int {
	gb := q.mq.gb
	vs, gf := &q.vscratch[w], &q.partials[w]
	n, pw := b.N, len(b.Cols)
	prs, bps := vec.Ident(n), []int32(nil) // a root scan's rows are b's own
	if store != nil {
		n, prs, bps = len(vs.probeRows), vs.probeRows, vs.bpos
	}
	if gf.src == nil {
		// Output column i is column src[i] of probe ++ build: Out, or all.
		if store != nil && len(op.join.Out) > 0 {
			gf.src = op.join.Out
		}
		for i := len(gf.src); i < len(op.outKinds); i++ {
			gf.src = append(gf.src, i)
		}
	}
	src := gf.src
	var keyCol *vec.Col
	keyBuild, slotted := src[gb.Key] >= pw, false
	if keyBuild {
		keyCol = &store.Cols[src[gb.Key]-pw]
		if slotted = store.N <= 4*n; slotted && gf.store != store {
			gf.store = store
			gf.slots = append(gf.slots[:0], make([]int32, store.N)...)
		}
	} else {
		keyCol = &b.Cols[src[gb.Key]]
	}
	needRow := false
	for _, a := range gb.Aggs {
		needRow = needRow || a.Func != Count
	}
	width := len(src)
	t := gf.t
	kv := *keyCol // the key column at a tile's storage positions
	var gs [tileMax]int32
	var hs [tileMax]uint64
	for lo, tile := 0, tileLen(width); lo < n; lo += tile {
		hi := min(lo+tile, n)
		pr := prs[lo:hi]
		var bp []int32
		if store != nil {
			bp = bps[lo:hi]
		}
		gs := gs[:len(pr)]
		if slotted {
			for j, p := range bp {
				if gs[j] = gf.slots[p] - 1; gs[j] < 0 {
					kv.Idx = bp[j : j+1]
					t.resolve(&kv, 0, hs[:1], gs[j:j+1])
					if k := keyCol.Value(int(p)); k == k { // NaN equals nothing: each match a group of its own
						gf.slots[p] = gs[j] + 1
					}
				}
				t.n[gs[j]]++
			}
		} else { // the tile's keys, resolved in one call
			kv.Idx = bp // a sealed store is dense
			if !keyBuild {
				for j, r := range pr {
					vs.keyPos[j] = int32(keyCol.Pos(int(r)))
				}
				kv.Idx = vs.keyPos[:len(pr)]
			}
			t.resolve(&kv, 0, hs[:len(pr)], gs)
			for _, g := range gs {
				t.n[g]++
			}
		}
		if !needRow {
			continue
		}
		block := vs.tileRows(len(pr), width)
		for i, c := range src {
			if c < pw {
				b.Cols[c].BoxRows(block[i:], width, pr)
			} else {
				store.Cols[c-pw].BoxRows(block[i:], width, bp) // a sealed store is dense
			}
		}
		for j, g := range gs {
			row := tileRow(block, j, width)
			for i, a := range gb.Aggs {
				if a.Func != Count {
					t.fold(i, g, a.Arg(row))
				}
			}
		}
	}
	if q.mem != nil {
		gf.store = nil
		if err := q.governGroupPartial(w); err != nil {
			q.mq.fail(err)
		}
	}
	return n
}
