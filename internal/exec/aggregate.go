package exec

// Aggregation on top of the join pipeline: the decision-support queries
// that motivate the paper (§1, data-warehouse workloads) end in a group-by
// over the join result. Aggregation runs as parallel partial aggregation:
// each pool worker folds the root-output batches it produced into a
// private hash table as they stream (no materialized intermediate result,
// no synchronization on the hot path), and the partials merge once at
// query retirement.

import (
	"fmt"
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

// foldGroupsBatch folds one columnar result batch into worker w's
// private partial. The group key is the key column's boxed value (an
// interface word copied from a resident column, boxed from the mirror of
// a decoded one). Arg closures see a reused scratch row: they return
// scalars, so reuse is safe.
//
//hierdb:hotpath
func (q *query) foldGroupsBatch(m map[any]*groupState, w int, b *vec.Batch) {
	gb := q.mq.gb
	vs := &q.vscratch[w]
	keyCol := &b.Cols[gb.Key]
	needRow := false
	for _, a := range gb.Aggs {
		if a.Func != Count {
			needRow = true
		}
	}
	scratch := vs.rowScratch(len(b.Cols) + 1)
	for i := 0; i < b.N; i++ {
		var row Row
		if needRow {
			row = b.ReadRow(i, scratch)
		}
		k := keyCol.Value(keyCol.Pos(i))
		g := m[k]
		if g == nil {
			g = &groupState{key: k, vals: make([]float64, len(gb.Aggs))}
			for gi, a := range gb.Aggs {
				switch a.Func {
				case Min:
					g.vals[gi] = 1e308
				case Max:
					g.vals[gi] = -1e308
				}
			}
			m[k] = g
		}
		g.n++
		for gi, a := range gb.Aggs {
			switch a.Func {
			case Count:
			case Sum:
				g.vals[gi] += a.Arg(row)
			case Min:
				if v := a.Arg(row); v < g.vals[gi] {
					g.vals[gi] = v
				}
			case Max:
				if v := a.Arg(row); v > g.vals[gi] {
					g.vals[gi] = v
				}
			}
		}
	}
}

// mergePartials folds any number of partial aggregation states into one,
// adopting the first as the result (the partials are dead afterwards).
// Every query uses it twice: once per node over the node's worker
// partials, then once at retirement over the per-node results.
func mergePartials(partials []map[any]*groupState, gb *GroupBy) map[any]*groupState {
	var merged map[any]*groupState
	for _, m := range partials {
		if merged == nil {
			merged = m
			continue
		}
		for k, g := range m {
			t := merged[k]
			if t == nil {
				merged[k] = g
				continue
			}
			t.n += g.n
			for i, a := range gb.Aggs {
				switch a.Func {
				case Count:
				case Sum:
					t.vals[i] += g.vals[i]
				case Min:
					if g.vals[i] < t.vals[i] {
						t.vals[i] = g.vals[i]
					}
				case Max:
					if g.vals[i] > t.vals[i] {
						t.vals[i] = g.vals[i]
					}
				}
			}
		}
	}
	if merged == nil {
		merged = make(map[any]*groupState)
	}
	return merged
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
// semantics as mergePartials.
func mergeSpilledGroups(m map[any]*groupState, gb *GroupBy, b *vec.Batch) {
	keys, counts, vals := &b.Cols[0], b.Cols[1].I64, b.Cols[2:]
	for r := 0; r < b.N; r++ {
		k, n := keys.Value(r), counts[r]
		g := m[k]
		if g == nil {
			g = &groupState{key: k, n: n, vals: make([]float64, len(gb.Aggs))}
			for i := range gb.Aggs {
				g.vals[i] = vals[i].F64[r]
			}
			m[k] = g
			continue
		}
		g.n += n
		for i, a := range gb.Aggs {
			v := vals[i].F64[r]
			switch a.Func {
			case Count:
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
