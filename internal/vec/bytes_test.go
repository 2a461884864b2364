package vec

import (
	"fmt"
	"testing"
)

// TestBatchBytes pins the one price of held rows, column by column: a
// typed value its mirror width, a string its header and bytes, an Any
// value its box word pair and payload, a null bitmap its words — over
// the logical rows, so an indexed view is priced by the rows it selects.
func TestBatchBytes(t *testing.T) {
	b := FromRows([]Row{
		{int64(1), 1.5, "ab", true, int32(7), nil},
		{int64(2), nil, "cde", false, "xy", nil},
		{nil, 2.5, "", true, 3.0, nil},
	})
	for ci, want := range []int64{
		3*8 + 8,               // int64: three mirror slots and one bitmap word
		3*8 + 8,               // float64, one null
		3*16 + 5,              // string: headers and bytes, no null
		3,                     // bool
		3*16 + 4 + 16 + 2 + 8, // any: int32, "xy", float64
		3 * 16,                // all-null any: the box words
	} {
		col := &Batch{Cols: b.Cols[ci : ci+1], N: b.N}
		if got := col.Bytes(); got != want {
			t.Errorf("column %d (%v): %d bytes, want %d", ci, b.Cols[ci].Kind, got, want)
		}
	}
	if got, want := b.Bytes(), int64(32+32+53+3+78+48); got != want {
		t.Errorf("batch: %d bytes, want %d", got, want)
	}
	// A view of row 1 twice: the rows it selects, not the storage.
	v := Select(&Batch{Cols: []Col{b.Cols[2], b.Cols[4]}, N: b.N}, []int32{1, 1}, new(Arena))
	if got, want := v.Bytes(), int64(2*(16+3)+2*(16+16+2)); got != want {
		t.Errorf("indexed view: %d bytes, want %d", got, want)
	}
}

// BenchmarkBatchBytes prices Batch.Bytes per logical row over 1024-row
// columns: an Int64 mirror read densely (one multiply), and a String
// mirror and an Any column (mixed ints and strings) read through an
// index, a permutation of their storage, as a join output or a scan
// window reads them (one length or payload a row). None may allocate.
func BenchmarkBatchBytes(b *testing.B) {
	const n = 1024
	rows := make([]Row, n)
	for i := range rows {
		var mixed any = int64(i)
		if i%2 == 1 {
			mixed = fmt.Sprint("m", i)
		}
		rows[i] = Row{int64(i) << 20, fmt.Sprint("s", i), mixed}
	}
	cols := FromRows(rows).Cols
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i * 389 % n) // 389 is prime to 1024: every position once
	}
	legs := []struct {
		name string
		col  Col
		idx  []int32
	}{
		{"int64/dense", cols[0], nil},
		{"string/indexed", cols[1], perm},
		{"any/indexed", cols[2], perm},
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			c := leg.col
			c.Idx = leg.idx
			batch := &Batch{Cols: []Col{c}, N: n}
			b.ReportAllocs()
			var sum int64
			for range b.N {
				sum += batch.Bytes()
			}
			if sum == 0 {
				b.Fatal("no bytes counted")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
		})
	}
}
