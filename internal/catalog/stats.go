package catalog

// Table statistics for the cost-based planning bridge: the real-data
// engine's ANALYZE output, consumed by the optimizer when it estimates
// scan and join cardinalities for resident queries. The simulation side
// keeps using Relation directly; TableStats is how a real table gets
// promoted into a Relation the DP search can cost.

import (
	"math"
	"math/bits"
)

// ColStats summarizes one column of an analyzed table.
type ColStats struct {
	// Name is the column name.
	Name string
	// Distinct is the estimated number of distinct non-null values
	// (linear-counting estimate; exact for small cardinalities).
	Distinct int64
	// Nulls counts null values.
	Nulls int64
}

// TableStats is the ANALYZE summary of one table: cardinality, average
// tuple width, and per-column distinct counts. The optimizer divides by
// Distinct to estimate equality selectivities ([Selinger79]'s 1/V(A,R)),
// and multiplies Rows by AvgRowBytes to size hash-table builds against
// the WithMemory budget.
type TableStats struct {
	// Table is the analyzed table's registered name.
	Table string
	// Rows is the exact cardinality at analysis time.
	Rows int64
	// AvgRowBytes is the mean bytes a row's columns hold (vec.Batch.Bytes).
	AvgRowBytes float64
	// Cols has one entry per table column, in schema order.
	Cols []ColStats
}

// DistinctOf returns the distinct-count estimate of column i, or 0 when
// the column was not analyzed.
func (s *TableStats) DistinctOf(i int) int64 {
	if s == nil || i < 0 || i >= len(s.Cols) {
		return 0
	}
	return s.Cols[i].Distinct
}

// distinctBits is the linear-counting bitmap size (8 KiB per column).
// Linear counting stays within a few percent up to loads of ~10x the
// bitmap size, far past the cardinalities a CI-scale table reaches.
const distinctBits = 1 << 16

// DistinctCounter estimates the number of distinct values in a stream
// of 64-bit hashes by linear counting ([Whang90]): hash into a fixed
// bitmap and estimate n = -m ln(zeros/m).
type DistinctCounter struct {
	bits [distinctBits / 64]uint64
	// adds counts hashes offered, bounding the estimate from above.
	adds int64
}

// Add offers one value hash.
func (d *DistinctCounter) Add(h uint64) {
	i := h & (distinctBits - 1)
	d.bits[i>>6] |= 1 << (i & 63)
	d.adds++
}

// Estimate returns the distinct-count estimate (at least 1 once any
// value was added).
func (d *DistinctCounter) Estimate() int64 {
	if d.adds == 0 {
		return 0
	}
	zeros := 0
	for _, w := range d.bits {
		zeros += 64 - bits.OnesCount64(w)
	}
	est := d.adds
	if zeros > 0 {
		est = int64(distinctBits*math.Log(distinctBits/float64(zeros)) + 0.5)
	}
	if est > d.adds {
		est = d.adds
	}
	if est < 1 {
		est = 1
	}
	return est
}
