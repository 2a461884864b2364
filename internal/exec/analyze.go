package exec

// ANALYZE: one pass over a table computing the catalog statistics the
// cost-based planning bridge feeds the optimizer — exact cardinality,
// the bytes an average row holds in memory (vec.Batch.Bytes, the price
// the memory account charges), and per-column linear-counting distinct
// estimates. Resident tables are walked through their cached columnar
// form; file-backed tables stream chunk by chunk, so a table much
// larger than memory is analyzed at one chunk of residency.
//
// Values are hashed by the join's own kernel (hashKeys), so the
// distinct estimate of a join-key column is computed over exactly the
// hash distribution the join will see.

import (
	"fmt"

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
		b := t.Columnar()
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

// analyzeBatch folds one columnar batch into the per-column counters —
// each value hashed as a join hashes its key (hashKeys), a chunk at a
// time — and returns the bytes its rows hold in memory (vec.Batch.Bytes).
func analyzeBatch(b *vec.Batch, counters []catalog.DistinctCounter, cols []catalog.ColStats) float64 {
	var hs [256]uint64
	for ci := range min(len(b.Cols), len(counters)) {
		c := &b.Cols[ci]
		for lo := 0; lo < b.N; lo += len(hs) {
			chunk := hs[:min(len(hs), b.N-lo)]
			hashKeys(c, lo, chunk)
			for i, h := range chunk {
				if c.NullAt(c.Pos(lo + i)) {
					cols[ci].Nulls++
				} else {
					counters[ci].Add(h)
				}
			}
		}
	}
	return float64(b.Bytes())
}
