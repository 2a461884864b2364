package exec

// Aggregation on top of the join pipeline: the decision-support queries
// that motivate the paper (§1, data-warehouse workloads) end in a group-by
// over the join result. Aggregation runs as parallel partial aggregation:
// each pool worker folds the root operator's output into a private
// partial as it is produced (foldGroups: a root probe's match pairs go in
// directly, no output batch in between, no synchronization on the hot
// path), and the partials merge in one activation per node at the end.
// A partial has one format, a groupTable of key, count and aggregate
// columns, whose batch view is what a partial spills, merges and leaves
// in. The fold runs a tile of a few matches at a time: the tile's groups
// are resolved, its Arg rows are filled column-major by vec's boxing
// kernel, one call per column, and only then do the Arg closures run —
// so the per-match work is the group's own and the closures', not a row
// built value by value.

import (
	"fmt"
	"math"
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
// query's — as columns: group g has key keys[g], count n[g] and the
// running value of aggregate i in vals[i][g] (0 for a Count); index maps
// a key to its id. Its one other form is batch().
type groupTable struct {
	aggs  []Aggregation
	index map[any]int32
	keys  []any
	n     []int64
	vals  [][]float64
}

func newGroupTable(aggs []Aggregation) *groupTable {
	return &groupTable{aggs: aggs, index: make(map[any]int32), vals: make([][]float64, len(aggs))}
}

// group returns the id of the group keyed v, creating it when v is new.
// The lookup allocates nothing. A new group's key is detached from the
// column v was read from, so the table pins no batch storage, and a
// float64 zero is stored as +0: ±0 are one key (keyHash64 folds them
// alike), and the group prints 0 whichever sign its first row had.
//
//hierdb:hotpath
func (t *groupTable) group(v any) int32 {
	if g, ok := t.index[v]; ok {
		return g
	}
	if f, ok := v.(float64); ok {
		return t.insert(f + 0) //hierdb:ignore hotpath a new group's key is boxed once; -0 + 0 is +0
	}
	return t.insert(vec.Detach(v))
}

// aggIdentity is each function's starting value: Min and Max start from
// the infinities, so any first value replaces them.
var aggIdentity = [...]float64{Min: math.Inf(1), Max: math.Inf(-1)}

// insert appends the group keyed key, an owned value, at every
// aggregate's identity.
func (t *groupTable) insert(key any) int32 {
	g := int32(len(t.keys))
	t.index[key] = g
	t.keys, t.n = append(t.keys, key), append(t.n, 0)
	for i, a := range t.aggs {
		t.vals[i] = append(t.vals[i], aggIdentity[a.Func])
	}
	return g
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

// batch views the table, without a copy, as the batch [key (Any),
// n (Int64), val0, val1, ... (Float64)] — the form a partial spills in,
// merges in and leaves in. Valid until the table next changes.
func (t *groupTable) batch() *vec.Batch {
	cols := []vec.Col{{Kind: vec.Any, Box: t.keys}, {Kind: vec.Int64, I64: t.n}}
	for _, v := range t.vals {
		cols = append(cols, vec.Col{Kind: vec.Float64, F64: v})
	}
	return &vec.Batch{Cols: cols, N: len(t.keys)}
}

// groupEntryBytes is the index map's slot for a group (interface key,
// int32 id) with a growing table's slack: the one price not read from
// the group's columns.
const groupEntryBytes = 48

// bytes returns what groups [from, len) of the table hold: their rows of
// batch() (vec.Batch.Bytes) and their index entries.
func (t *groupTable) bytes(from int) int64 {
	b := t.batch()
	b.N -= from
	for ci := range b.Cols {
		b.Cols[ci].Idx = vec.Ident(len(t.keys))[from:]
	}
	return b.Bytes() + int64(b.N)*groupEntryBytes
}

// merge folds partial b — another table's batch(), or one read back from
// a spill — into t: the one merge, of a peer worker's partial, a spilled
// partial and a peer node's alike. A partial's keys are detached and
// their zeros folded already, so a group new to t adopts its key as is.
func (t *groupTable) merge(b *vec.Batch) {
	for r, k := range b.Cols[0].Box[:b.N] {
		g, ok := t.index[k]
		if !ok {
			g = t.insert(k)
		}
		t.n[g] += b.Cols[1].I64[r]
		for i := range t.aggs {
			t.fold(i, g, b.Cols[2+i].F64[r])
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
	ids, str := make([]int32, len(t.keys)), make([]string, len(t.keys))
	for g, k := range t.keys {
		ids[g], str[g] = int32(g), fmt.Sprint(k)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if str[a] != str[b] {
			return str[a] < str[b]
		}
		if ta, tb := fmt.Sprintf("%T", t.keys[a]), fmt.Sprintf("%T", t.keys[b]); ta != tb {
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
// tile's argument rows are filled column-major in the worker's row block,
// one boxing call per output column (a probe column through its Idx at
// the tile's probe rows, a store column at its store positions), and the
// Arg closures run on them in match order. When the group key is a build column the group is
// resolved once per build row, not once per match: the slots hold the
// group of each store position until the store changes (a thief folds an
// owner's store, a spill phase loads the next partition), except a NaN
// key's: NaN equals nothing, so each of its matches is a group of its
// own, whatever the store's size. A store with
// more than four rows per pair folded is looked up per match instead — a
// reset never costs more than the fold it serves — and under a memory
// budget the slots last one activation: governGroupPartial may spill the
// partial they point into, and they would pin an ended phase's store.
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
	var gs [tileMax]int32
	for lo, tile := 0, tileLen(width); lo < n; lo += tile {
		hi := min(lo+tile, n)
		pr := prs[lo:hi]
		var bp []int32
		if store != nil {
			bp = bps[lo:hi]
		}
		for j := range pr {
			var g int32
			if !keyBuild {
				g = t.group(keyCol.Value(keyCol.Pos(int(pr[j]))))
			} else if !slotted {
				g = t.group(keyCol.Value(int(bp[j])))
			} else if g = gf.slots[bp[j]] - 1; g < 0 {
				k := keyCol.Value(int(bp[j]))
				if g = t.group(k); k == k { // NaN equals nothing: each match a group of its own
					gf.slots[bp[j]] = g + 1
				}
			}
			t.n[g]++
			gs[j] = g
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
		for j, g := range gs[:len(pr)] {
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
