package exec

// ANALYZE: one pass over a table computing the catalog statistics the
// cost-based planning bridge feeds the optimizer — exact cardinality,
// average decoded tuple width, and per-column linear-counting distinct
// estimates. Resident tables are walked through their cached columnar
// form; file-backed tables stream chunk by chunk, so a table much
// larger than memory is analyzed at one chunk of residency.
//
// Hashing reuses the engine's key-hash family (mix64 for the int
// family and float bits, FNV-1a for strings, the precomputed
// nil/bool fallbacks), so the distinct estimate of a join-key column
// is computed over exactly the hash distribution the join will see.

import (
	"fmt"
	"math"

	"hierdb/internal/catalog"
	"hierdb/internal/vec"
)

// Analyze scans the table once and returns its statistics. It does not
// mutate the table; callers (the DB facade) decide where the result is
// cached.
func Analyze(t *Table) (*catalog.TableStats, error) {
	if t == nil {
		return nil, fmt.Errorf("exec: analyze of nil table")
	}
	st := &catalog.TableStats{Table: t.Name, Cols: make([]catalog.ColStats, len(t.Cols))}
	for i, name := range t.Cols {
		st.Cols[i].Name = name
	}
	counters := make([]catalog.DistinctCounter, len(t.Cols))
	var bytes float64
	if f := t.File; f != nil {
		for ci := 0; ci < f.NumChunks(); ci++ {
			b, err := f.ReadChunk(ci)
			if err != nil {
				return nil, err
			}
			st.Rows += int64(b.N)
			bytes += analyzeBatch(b, counters, st.Cols)
		}
	} else {
		b := columnize(t)
		st.Rows = int64(b.N)
		bytes = analyzeBatch(b, counters, st.Cols)
	}
	for i := range counters {
		st.Cols[i].Distinct = counters[i].Estimate()
	}
	if st.Rows > 0 {
		st.AvgRowBytes = bytes / float64(st.Rows)
	}
	return st, nil
}

// analyzeBatch folds one columnar batch into the per-column counters
// and returns the decoded bytes it represents.
func analyzeBatch(b *vec.Batch, counters []catalog.DistinctCounter, cols []catalog.ColStats) float64 {
	var bytes float64
	nc := len(b.Cols)
	if nc > len(counters) {
		nc = len(counters)
	}
	for ci := 0; ci < nc; ci++ {
		c := &b.Cols[ci]
		d := &counters[ci]
		cs := &cols[ci]
		for i := 0; i < b.N; i++ {
			pos := c.Pos(i)
			if c.NullAt(pos) {
				cs.Nulls++
				bytes++
				continue
			}
			switch {
			case c.Kind.IntFamily():
				d.Add(mix64(uint64(c.I64[pos])))
				bytes += 8
			case c.Kind == vec.Float64:
				d.Add(mix64(math.Float64bits(c.F64[pos])))
				bytes += 8
			case c.Kind == vec.String:
				s := c.Str[pos]
				d.Add(fnvString(s))
				bytes += float64(len(s)) + 16
			case c.Kind == vec.Bool:
				if c.B[pos] {
					d.Add(hTrue)
				} else {
					d.Add(hFalse)
				}
				bytes++
			default:
				v := c.Value(pos)
				if vec.IsAbsent(v) {
					// Ragged-row padding: the position holds no value.
					cs.Nulls++
					continue
				}
				d.Add(keyHash64(v))
				bytes += boxedBytes(v)
			}
		}
	}
	return bytes
}

// boxedBytes estimates the decoded width of one boxed value of an
// Any-kind column.
func boxedBytes(v any) float64 {
	switch s := v.(type) {
	case string:
		return float64(len(s)) + 16
	case bool:
		return 1
	case nil:
		return 1
	default:
		return 16
	}
}
