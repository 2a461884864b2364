package exec

// Aggregation on top of the join pipeline: the decision-support queries
// that motivate the paper (§1, data-warehouse workloads) end in a group-by
// over the join result. Aggregation runs as parallel partial aggregation:
// each pool worker folds the root operator's output into a private hash
// table as it is produced (foldGroups: a root probe's match pairs go in
// directly, no output batch in between, no synchronization on the hot
// path), and the partials merge once at query retirement.

import (
	"fmt"
	"math"
	"sort"

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

type groupState struct {
	key  any
	vals []float64
	n    int64
}

// groupAt returns the state of the group keyed by the value at storage
// position pos of c, creating it in m at every aggregate's identity (Min
// and Max start from the infinities, so any first value replaces them).
// The lookup allocates nothing; a new group's key is detached from the
// column, so the table and the result rows pin no batch storage.
//
//hierdb:hotpath
func groupAt(m map[any]*groupState, aggs []Aggregation, c *vec.Col, pos int) *groupState {
	g := m[c.Value(pos)]
	if g == nil {
		g = &groupState{key: vec.Detach(c.Value(pos)), vals: make([]float64, len(aggs))}
		for i, a := range aggs {
			switch a.Func {
			case Min:
				g.vals[i] = math.Inf(1)
			case Max:
				g.vals[i] = math.Inf(-1)
			}
		}
		m[g.key] = g
	}
	return g
}

// add folds v into the group's running value of aggregate i — the one
// statement of what each function does. A partial's value folds in the
// same way (a sum of sums), so the merges use it too; Count lives in n.
//
//hierdb:hotpath
func (g *groupState) add(f AggFunc, i int, v float64) {
	switch f {
	case Sum:
		g.vals[i] += v
	case Min:
		if v < g.vals[i] {
			g.vals[i] = v
		}
	case Max:
		if v > g.vals[i] {
			g.vals[i] = v
		}
	}
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
// partial, and foldGroups' scratch — the source of each root output
// column (filled on first use) and, by position, the groups resolved so
// far for the rows of sealed build store store (nil = not yet).
type groupFold struct {
	m     map[any]*groupState
	src   []int
	store *vec.Batch
	slots []*groupState
}

// foldGroups folds the root operator's output into worker w's private
// partial without building it, and returns the number of rows folded.
// For a root probe they are the match pairs in the worker's scratch —
// row probeRows[j] of the probe batch b beside row bpos[j] of the sealed
// build store, seen through the join's Out list; for a root scan (store
// == nil), b's own rows. Arg closures see a reused scratch row filled
// from the two sides in place (like ReadRow's, it ends at the first
// Absent). When the group key is a build column the group is resolved
// once per build row, not once per match: the slots hold the group of
// each store position until the store changes (a thief folds an owner's
// store, a spill phase loads the next partition). A store with more
// than four rows per pair folded is looked up per match instead — a
// reset never costs more than the fold it serves — and under a memory
// budget the slots last one activation: governGroupPartial may spill the
// partial they point into, and they would pin an ended phase's store.
//
//hierdb:hotpath
func (q *query) foldGroups(op *pop, w int, b, store *vec.Batch) int {
	gb := q.mq.gb
	vs, gf := &q.vscratch[w], &q.partials[w]
	n, pw := b.N, len(b.Cols)
	if store != nil {
		n = len(vs.probeRows)
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
			gf.slots = append(gf.slots[:0], make([]*groupState, store.N)...)
		}
	} else {
		keyCol = &b.Cols[src[gb.Key]]
	}
	needRow := false
	for _, a := range gb.Aggs {
		needRow = needRow || a.Func != Count
	}
	scratch := vs.rowScratch(len(src))
	for j := 0; j < n; j++ {
		pr, bp := j, 0
		if store != nil {
			pr, bp = int(vs.probeRows[j]), int(vs.bpos[j])
		}
		var g *groupState
		if !keyBuild {
			g = groupAt(gf.m, gb.Aggs, keyCol, keyCol.Pos(pr))
		} else if !slotted {
			g = groupAt(gf.m, gb.Aggs, keyCol, bp)
		} else if g = gf.slots[bp]; g == nil {
			g = groupAt(gf.m, gb.Aggs, keyCol, bp)
			gf.slots[bp] = g
		}
		g.n++
		if !needRow {
			continue
		}
		row := scratch[:0]
		for _, c := range src {
			var v any
			if c < pw {
				v = b.Cols[c].Value(b.Cols[c].Pos(pr))
			} else {
				v = store.Cols[c-pw].Value(bp)
			}
			if vec.IsAbsent(v) {
				break
			}
			row = append(row, v)
		}
		for i, a := range gb.Aggs {
			if a.Func != Count {
				g.add(a.Func, i, a.Arg(row))
			}
		}
	}
	if q.memBudget > 0 {
		gf.store = nil
		if err := q.governGroupPartial(w); err != nil {
			q.mq.fail(err)
		}
	}
	return n
}

// mergeGroups folds partial aggregation state src into dst, adopting the
// states of groups dst has not seen (src is dead afterwards). Every
// query uses it at two levels: per node over the node's worker partials,
// then at retirement over the per-node results.
func mergeGroups(dst, src map[any]*groupState, gb *GroupBy) {
	for k, g := range src {
		t := dst[k]
		if t == nil {
			dst[k] = g
			continue
		}
		t.n += g.n
		for i, a := range gb.Aggs {
			t.add(a.Func, i, g.vals[i])
		}
	}
}

// groupSpillRows renders a partial's group states as spill rows
// [key, n, val0, val1, ...] — the disk form of a memory-governed
// partial that outgrew its budget.
func groupSpillRows(m map[any]*groupState, gb *GroupBy) []Row {
	out := make([]Row, 0, len(m))
	for _, g := range m {
		row := make(Row, 0, 2+len(gb.Aggs))
		row = append(row, g.key, g.n)
		for _, v := range g.vals {
			row = append(row, v)
		}
		out = append(out, row)
	}
	return out
}

// mergeSpilledGroups folds one decoded spill batch (groupSpillRows
// form: any-kind key column, int64 counts, one float64 column per
// aggregate) back into a merged partial, combining with the same
// semantics as mergeGroups.
func mergeSpilledGroups(m map[any]*groupState, gb *GroupBy, b *vec.Batch) {
	keys, counts, vals := &b.Cols[0], b.Cols[1].I64, b.Cols[2:]
	for r := 0; r < b.N; r++ {
		g := groupAt(m, gb.Aggs, keys, r)
		g.n += counts[r]
		for i, a := range gb.Aggs {
			g.add(a.Func, i, vals[i].F64[r])
		}
	}
}

// groupsToRows renders merged group states as output rows, ordered
// deterministically by formatted key.
func groupsToRows(merged map[any]*groupState, gb *GroupBy) []Row {
	out := make([]Row, 0, len(merged))
	for _, g := range merged {
		row := Row{g.key}
		for i, a := range gb.Aggs {
			if a.Func == Count {
				row = append(row, g.n)
			} else {
				row = append(row, g.vals[i])
			}
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		return fmt.Sprint(out[i][0]) < fmt.Sprint(out[j][0])
	})
	return out
}
