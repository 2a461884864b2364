package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"hierdb/internal/vec"
)

var sinkBatch *vec.Batch

// BenchmarkReadChunkWhere is the store's own benchmark: chunks of an
// 8-chunk file shaped like the benchmark's fact table (sequential id,
// two uniform keys, v a permutation of [0,1000) per thousand rows, a
// short string payload; DefaultChunkRows a chunk) read in turn through
// one reused Scanner — I/O, zone maps, decode and filter, what a file
// scan's activation pays a chunk. Every chunk's zone map spans v's
// whole range, so no chunk is pruned: sel0 (v ≥ 500 and v < 500) decodes
// the predicate columns and keeps nothing, sel1 and sel20 keep 1 % and
// 20 % of the rows, and sel100 (v < 1000) is a predicate the zone maps
// prove true of every row, so it is dropped and the chunk decodes as
// under nopred.
func BenchmarkReadChunkWhere(b *testing.B) {
	const chunks = 8
	r := rand.New(rand.NewSource(1))
	rows := make([]vec.Row, chunks*DefaultChunkRows)
	perm := r.Perm(1000)
	for i := range rows {
		if i%1000 == 0 {
			perm = r.Perm(1000)
		}
		rows[i] = vec.Row{i, r.Intn(2000), r.Intn(500), perm[i%1000], fmt.Sprintf("p-%08x", r.Uint32())}
	}
	path := filepath.Join(b.TempDir(), "fact.hdb")
	if err := WriteTable(path, []string{"id", "k1", "k2", "v", "payload"}, 0, rows); err != nil {
		b.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	var bytes int64
	for i := 0; i < f.NumChunks(); i++ {
		bytes += f.Chunk(i).Len
	}
	for _, bc := range []struct {
		name  string
		preds []vec.Pred
	}{
		{"sel0", []vec.Pred{{Col: 3, Op: vec.Ge, Val: 500}, {Col: 3, Op: vec.Lt, Val: 500}}},
		{"sel1", []vec.Pred{{Col: 3, Op: vec.Lt, Val: 10}}},
		{"sel20", []vec.Pred{{Col: 3, Op: vec.Lt, Val: 200}}},
		{"sel100", []vec.Pred{{Col: 3, Op: vec.Lt, Val: 1000}}},
		{"nopred", nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var sc Scanner
			b.SetBytes(bytes / int64(f.NumChunks()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if sinkBatch, err = f.ReadChunkWhere(i%f.NumChunks(), bc.preds, &sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
