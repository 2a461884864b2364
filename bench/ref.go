package main

// The reference checker: a row-at-a-time nested-hash interpreter that
// shares nothing with the engine (no internal/exec query code, no
// engine hash, no difftest) and an order-independent checksum. It runs
// once per set-up; measured queries compare their row count against
// it, and the warm-up and post-window queries compare the checksum.

import (
	"math"

	"hierdb"
)

// refJoin is one hash join of the running left-deep result (probe
// side) with a filtered base table (build side).
type refJoin struct {
	build              []hierdb.Row
	preds              []hierdb.Pred
	probeCol, buildCol int
}

// refQuery mirrors a workload query: filtered scan, left-deep joins,
// optional group-by of one key column with Count and Sum(sumCol).
type refQuery struct {
	scan     []hierdb.Row
	preds    []hierdb.Pred
	joins    []refJoin
	group    bool
	groupCol int
	sumCol   int
}

// expected is what a correct execution returns.
type expected struct {
	rows int64
	sum  uint64
}

// holds evaluates one predicate on a row. Workload predicates compare
// int columns with int constants only; anything else fails closed.
func holds(p hierdb.Pred, r hierdb.Row) bool {
	v, ok := r[p.Col].(int)
	c, okc := p.Val.(int)
	if !ok || !okc {
		return false
	}
	switch p.Op {
	case hierdb.Eq:
		return v == c
	case hierdb.Ne:
		return v != c
	case hierdb.Lt:
		return v < c
	case hierdb.Le:
		return v <= c
	case hierdb.Gt:
		return v > c
	case hierdb.Ge:
		return v >= c
	}
	return false
}

func filter(rows []hierdb.Row, preds []hierdb.Pred) []hierdb.Row {
	if len(preds) == 0 {
		return rows
	}
	var out []hierdb.Row
next:
	for _, r := range rows {
		for _, p := range preds {
			if !holds(p, r) {
				continue next
			}
		}
		out = append(out, r)
	}
	return out
}

// eval computes the query's result rows (unordered).
func (q *refQuery) eval() []hierdb.Row {
	cur := filter(q.scan, q.preds)
	for _, j := range q.joins {
		ht := make(map[any][]hierdb.Row)
		for _, b := range filter(j.build, j.preds) {
			ht[b[j.buildCol]] = append(ht[b[j.buildCol]], b)
		}
		var out []hierdb.Row
		for _, p := range cur {
			for _, b := range ht[p[j.probeCol]] {
				out = append(out, append(append(make(hierdb.Row, 0, len(p)+len(b)), p...), b...))
			}
		}
		cur = out
	}
	if !q.group {
		return cur
	}
	type agg struct {
		n   int64
		sum float64
	}
	groups := make(map[any]*agg)
	for _, r := range cur {
		g := groups[r[q.groupCol]]
		if g == nil {
			g = &agg{}
			groups[r[q.groupCol]] = g
		}
		g.n++
		g.sum += float64(r[q.sumCol].(int))
	}
	out := make([]hierdb.Row, 0, len(groups))
	for k, g := range groups {
		out = append(out, hierdb.Row{k, g.n, g.sum})
	}
	return out
}

// rowHash hashes one row's values with their types, FNV-1a.
func rowHash(r hierdb.Row) uint64 {
	h := uint64(14695981039346656037)
	num := func(tag byte, v uint64) {
		h = (h ^ uint64(tag)) * 1099511628211
		for i := 0; i < 8; i++ {
			h = (h ^ (v >> (8 * i) & 0xff)) * 1099511628211
		}
	}
	for _, v := range r {
		switch x := v.(type) {
		case nil:
			num(0, 0)
		case int:
			num(1, uint64(x))
		case int64:
			num(1, uint64(x))
		case float64:
			num(2, math.Float64bits(x))
		case string:
			num(3, uint64(len(x)))
			for i := 0; i < len(x); i++ {
				h = (h ^ uint64(x[i])) * 1099511628211
			}
		default:
			num(4, 0) // no workload produces other types; a stray one still changes the sum
		}
	}
	return h
}

// add folds one row into the order-independent multiset checksum: the
// wrapping sum of row hashes, so a dropped or duplicated row moves it.
func (e *expected) add(r hierdb.Row) {
	e.rows++
	e.sum += rowHash(r)
}

func checksumOf(rows []hierdb.Row) expected {
	var e expected
	for _, r := range rows {
		e.add(r)
	}
	return e
}
