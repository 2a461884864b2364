package hierdb

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"hierdb/internal/leaktest"
	"hierdb/internal/store"
	"hierdb/internal/vec"
)

// storeRows builds the deterministic mixed-type relation the
// file-backed facade tests share: int key, modular int, nullable
// string, float.
func storeRows(n int) []vec.Row {
	rows := make([]vec.Row, n)
	for i := range rows {
		var s any = fmt.Sprintf("s%03d", i%7)
		if i%97 == 0 {
			s = nil
		}
		rows[i] = vec.Row{i, i % 10, s, float64(i) / 4}
	}
	return rows
}

// writeStoreFile writes rows to a table file under t.TempDir with
// small chunks, so even modest relations span many chunks.
func writeStoreFile(t *testing.T, rows []vec.Row, cols []string, chunkRows int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.hdb")
	if err := store.WriteTable(path, cols, chunkRows, rows); err != nil {
		t.Fatal(err)
	}
	return path
}

// multiset renders rows order-insensitively for equality checks.
func multiset(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func sameMultiset(t *testing.T, got, want []Row) {
	t.Helper()
	g, w := multiset(got), multiset(want)
	if len(g) != len(w) {
		t.Fatalf("row count: got %d, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row multisets differ at %d:\n  got  %s\n  want %s", i, g[i], w[i])
		}
	}
}

// TestTableFileMatchesMemory runs the same scans and a self-join over
// a file-backed table and its in-memory twin, requiring identical
// multisets and live disk-scan counters.
func TestTableFileMatchesMemory(t *testing.T) {
	leaktest.Check(t, 2)
	const n = 5000
	rows := storeRows(n)
	cols := []string{"id", "m", "s", "f"}
	path := writeStoreFile(t, rows, cols, 256)

	db := Open(WithWorkers(2))
	defer db.Close()
	if err := db.Register("fT", FromFile(path)); err != nil {
		t.Fatal(err)
	}
	mem := &Table{Name: "mT", Cols: cols}
	for _, r := range rows {
		mem.Rows = append(mem.Rows, Row(r))
	}
	if err := db.Register(mem.Name, FromTable(mem)); err != nil {
		t.Fatal(err)
	}

	run := func(q *Query) ([]Row, *EngineStats) {
		t.Helper()
		rs, st, err := q.Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rs, st
	}

	t.Run("FullScan", func(t *testing.T) {
		got, st := run(db.Scan("fT"))
		want, _ := run(db.Scan("mT"))
		sameMultiset(t, got, want)
		if st.ChunksScanned == 0 || st.DiskBytesRead == 0 {
			t.Fatalf("disk counters dead on a file scan: %+v", st)
		}
		if st.ChunksSkipped != 0 {
			t.Fatalf("predicate-free scan skipped %d chunks", st.ChunksSkipped)
		}
	})

	t.Run("WhereAndFilter", func(t *testing.T) {
		preds := []Pred{{Col: 1, Op: Eq, Val: 3}, {Col: 2, Op: NotNull}}
		filt := func(r Row) bool { return r[0].(int)%2 == 1 }
		got, _ := run(db.Scan("fT").Filter(filt).Where(preds...))
		want, _ := run(db.Scan("mT").Filter(filt).Where(preds...))
		if len(want) == 0 {
			t.Fatal("test predicate selects nothing; broken fixture")
		}
		sameMultiset(t, got, want)
	})

	t.Run("SelfJoin", func(t *testing.T) {
		got, st := run(db.Scan("fT").Where(Pred{Col: 0, Op: Lt, Val: 600}).
			Join(db.Scan("fT"), KeyCol(1), KeyCol(1)))
		want, _ := run(db.Scan("mT").Where(Pred{Col: 0, Op: Lt, Val: 600}).
			Join(db.Scan("mT"), KeyCol(1), KeyCol(1)))
		sameMultiset(t, got, want)
		if st.ChunksSkipped == 0 {
			t.Fatalf("id<600 over 256-row chunks should prune: %+v", st)
		}
	})

	t.Run("GroupBy", func(t *testing.T) {
		aggs := func() []Aggregation {
			return []Aggregation{
				{Func: Count},
				{Func: Sum, Arg: func(r Row) float64 { return r[3].(float64) }},
			}
		}
		got, _, err := db.Scan("fT").GroupBy(KeyCol(1), aggs()...).Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := db.Scan("mT").GroupBy(KeyCol(1), aggs()...).Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sameMultiset(t, got, want)
	})
}

// TestTableFilePruningStats proves zone-map pruning is observable:
// a selective range predicate must skip chunks and read measurably
// fewer bytes than the unpruned scan of the same file.
func TestTableFilePruningStats(t *testing.T) {
	leaktest.Check(t, 2)
	rows := storeRows(8 << 10)
	path := writeStoreFile(t, rows, []string{"id", "m", "s", "f"}, 512)
	db := Open(WithWorkers(2))
	defer db.Close()
	if err := db.Register("t", FromFile(path)); err != nil {
		t.Fatal(err)
	}

	_, full, err := db.Scan("t").Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, pruned, err := db.Scan("t").Where(Pred{Col: 0, Op: Ge, Val: 4096}, Pred{Col: 0, Op: Lt, Val: 4200}).
		Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 104 {
		t.Fatalf("got %d rows, want 104", len(got))
	}
	if pruned.ChunksSkipped == 0 {
		t.Fatalf("range predicate pruned nothing: %+v", pruned)
	}
	if pruned.DiskBytesRead >= full.DiskBytesRead {
		t.Fatalf("pruned scan read %d bytes, unpruned %d — pruning saved no I/O",
			pruned.DiskBytesRead, full.DiskBytesRead)
	}
	if pruned.ChunksScanned+pruned.ChunksSkipped != full.ChunksScanned {
		t.Fatalf("scanned %d + skipped %d != total chunks %d",
			pruned.ChunksScanned, pruned.ChunksSkipped, full.ChunksScanned)
	}
}

// TestTableFileMultiNode streams a file-backed table on a 4-node DB:
// chunks are assigned positionally to node fragments, results must
// match the in-memory hash-partitioned run, and the per-node stats
// must sum to the query totals.
func TestTableFileMultiNode(t *testing.T) {
	leaktest.Check(t, 2)
	rows := storeRows(4000)
	cols := []string{"id", "m", "s", "f"}
	path := writeStoreFile(t, rows, cols, 128)
	db := Open(WithNodes(4), WithWorkers(2))
	defer db.Close()
	if err := db.Register("fT", FromFile(path)); err != nil {
		t.Fatal(err)
	}
	mem := &Table{Name: "mT", Cols: cols}
	for _, r := range rows {
		mem.Rows = append(mem.Rows, Row(r))
	}
	if err := db.Register(mem.Name, FromTable(mem)); err != nil {
		t.Fatal(err)
	}

	got, st, err := db.Scan("fT").Where(Pred{Col: 0, Op: Lt, Val: 1000}).
		Join(db.Scan("mT"), KeyCol(1), KeyCol(1)).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := db.Scan("mT").Where(Pred{Col: 0, Op: Lt, Val: 1000}).
		Join(db.Scan("mT"), KeyCol(1), KeyCol(1)).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, got, want)

	if len(st.Nodes) != 4 {
		t.Fatalf("want 4 node stats, got %d", len(st.Nodes))
	}
	var scanned, skipped, bytes int64
	nodesWithChunks := 0
	for _, ns := range st.Nodes {
		scanned += ns.ChunksScanned
		skipped += ns.ChunksSkipped
		bytes += ns.DiskBytesRead
		if ns.ChunksScanned+ns.ChunksSkipped > 0 {
			nodesWithChunks++
		}
	}
	if scanned != st.ChunksScanned || skipped != st.ChunksSkipped || bytes != st.DiskBytesRead {
		t.Fatalf("node stats (%d,%d,%d) do not sum to query totals (%d,%d,%d)",
			scanned, skipped, bytes, st.ChunksScanned, st.ChunksSkipped, st.DiskBytesRead)
	}
	if nodesWithChunks < 2 {
		t.Fatalf("chunk assignment degenerate: only %d of 4 nodes touched chunks", nodesWithChunks)
	}
	if st.ChunksSkipped == 0 {
		t.Fatalf("id<1000 over 128-row chunks should prune: %+v", st)
	}
}

// TestTableFileLifecycle covers handle hygiene: early Rows.Close and
// context cancellation mid-scan must not wedge workers or leak
// goroutines, DB.Close must close the table files it opened, and
// registration failure paths must not leave stray handles (leaktest
// plus reopening the same path catches a double-close or leak).
func TestTableFileLifecycle(t *testing.T) {
	leaktest.Check(t, 2)
	rows := storeRows(20 << 10)
	path := writeStoreFile(t, rows, []string{"id", "m", "s", "f"}, 256)

	t.Run("EarlyRowsClose", func(t *testing.T) {
		leaktest.Check(t, 2)
		db := Open(WithWorkers(2))
		defer db.Close()
		if err := db.Register("t", FromFile(path)); err != nil {
			t.Fatal(err)
		}
		rs, err := db.Scan("t").Join(db.Scan("t"), KeyCol(1), KeyCol(1)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !rs.Next() {
			t.Fatalf("no first row: %v", rs.Err())
		}
		if err := rs.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("CtxCancelMidScan", func(t *testing.T) {
		leaktest.Check(t, 2)
		db := Open(WithWorkers(2))
		defer db.Close()
		if err := db.Register("t", FromFile(path)); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		rs, err := db.Scan("t").Join(db.Scan("t"), KeyCol(1), KeyCol(1)).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rs.Next()
		cancel()
		for rs.Next() {
		}
		rs.Close()
	})

	t.Run("CloseThenReopen", func(t *testing.T) {
		db := Open(WithWorkers(2))
		if err := db.Register("t", FromFile(path)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := db.Scan("t").Collect(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("Close with open table files: %v", err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("second Close not idempotent: %v", err)
		}
		// The handle is really closed: a fresh open of the same path must
		// see an intact file (and a query on the closed DB must refuse).
		f, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		if _, _, err := db.Scan("t").Collect(context.Background()); err == nil {
			t.Fatal("query on closed DB succeeded")
		}
	})

	t.Run("RegisterErrors", func(t *testing.T) {
		db := Open(WithWorkers(2))
		defer db.Close()
		if err := db.Register("t", FromFile(path)); err != nil {
			t.Fatal(err)
		}
		if err := db.Register("t", FromFile(path)); err == nil {
			t.Fatal("duplicate name accepted")
		}
		if err := db.Register("u", FromFile(filepath.Join(t.TempDir(), "missing.hdb"))); err == nil {
			t.Fatal("missing file accepted")
		}
		if err := db.Register("", FromFile(path)); err == nil {
			t.Fatal("empty name accepted")
		}
	})
}

// TestDiskScanCounters: DiskRowsDecoded counts the rows of the chunks a
// scan read, DiskRowsKept the rows its chunk decoder materialized —
// every one without predicates, exactly the predicate's share with
// one, whether the zone maps discharge part of the predicate set or
// not — and the per-node shares sum to the totals.
func TestDiskScanCounters(t *testing.T) {
	leaktest.Check(t, 2)
	const n = 10_000
	rows := storeRows(n) // column 1 is i%10
	path := writeStoreFile(t, rows, []string{"id", "m", "s", "f"}, 500)
	for _, nodes := range []int{1, 4} {
		db := Open(WithNodes(nodes), WithWorkers(2))
		if err := db.Register("t", FromFile(path)); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name          string
			preds         []Pred
			decoded, kept int64
		}{
			{"no predicates", nil, n, n},
			{"20% predicate", []Pred{{Col: 1, Op: Lt, Val: 2}}, n, n / 5},
			{"20% predicate + one the zones prove", []Pred{{Col: 0, Op: Ge, Val: 0}, {Col: 1, Op: Lt, Val: 2}}, n, n / 5},
			{"half the chunks pruned", []Pred{{Col: 0, Op: Ge, Val: n / 2}, {Col: 1, Op: Lt, Val: 2}}, n / 2, n / 10},
			{"nothing survives the decoder", []Pred{{Col: 1, Op: Eq, Val: 3}, {Col: 1, Op: Eq, Val: 4}}, n, 0},
		} {
			got, st, err := db.Scan("t").Where(tc.preds...).Collect(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if st.DiskRowsDecoded != tc.decoded || st.DiskRowsKept != tc.kept || int64(len(got)) != tc.kept {
				t.Fatalf("%d nodes, %s: decoded %d kept %d rows %d, want decoded %d kept %d",
					nodes, tc.name, st.DiskRowsDecoded, st.DiskRowsKept, len(got), tc.decoded, tc.kept)
			}
			var decoded, kept int64
			for _, ns := range st.Nodes {
				decoded += ns.DiskRowsDecoded
				kept += ns.DiskRowsKept
			}
			if nodes > 1 && (decoded != st.DiskRowsDecoded || kept != st.DiskRowsKept) {
				t.Fatalf("%s: node shares (%d, %d) do not sum to the totals (%d, %d)", tc.name, decoded, kept, st.DiskRowsDecoded, st.DiskRowsKept)
			}
		}
		// A row Filter runs after the decoder: it does not move the counters.
		_, st, err := db.Scan("t").Filter(func(r Row) bool { return r[0].(int)%2 == 0 }).Where(Pred{Col: 1, Op: Lt, Val: 2}).Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.DiskRowsKept != n/5 || st.ResultRows != n/10 {
			t.Fatalf("with a row filter: kept %d result rows %d, want %d and %d", st.DiskRowsKept, st.ResultRows, n/5, n/10)
		}
		db.Close()
	}
}

// TestTableFileDamagedAfterRegister: a table file truncated between
// Register and Run ends the query with the typed chunk error — no hang,
// no leaked goroutine — and one removed either still answers from the
// open handle or fails the same way; the DB keeps serving its other
// tables afterwards.
func TestTableFileDamagedAfterRegister(t *testing.T) {
	leaktest.Check(t, 2)
	rows := storeRows(6000)
	cols := []string{"id", "m", "s", "f"}
	for _, nodes := range []int{1, 2} {
		for _, damage := range []string{"truncate", "remove"} {
			t.Run(fmt.Sprintf("%s/%dnode", damage, nodes), func(t *testing.T) {
				leaktest.Check(t, 2)
				path := writeStoreFile(t, rows, cols, 256)
				good := writeStoreFile(t, rows, cols, 256)
				db := Open(WithNodes(nodes), WithWorkers(2))
				defer db.Close()
				if err := db.Register("bad", FromFile(path)); err != nil {
					t.Fatal(err)
				}
				if err := db.Register("good", FromFile(good)); err != nil {
					t.Fatal(err)
				}
				if damage == "truncate" {
					// Cut inside chunk 3: chunks 0-2 still read.
					f, err := store.Open(path)
					if err != nil {
						t.Fatal(err)
					}
					cut := f.Chunk(3).Off + 10
					f.Close()
					if err := os.Truncate(path, cut); err != nil {
						t.Fatal(err)
					}
				} else if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				for _, q := range []*Query{
					db.Scan("bad"),
					db.Scan("bad").Where(Pred{Col: 1, Op: Lt, Val: 2}, Pred{Col: 3, Op: Ge, Val: 0.0}),
					db.Scan("bad").Where(Pred{Col: 1, Op: Lt, Val: 2}).Join(db.Scan("good"), KeyCol(0), KeyCol(0)),
				} {
					got, _, err := q.Collect(ctx)
					switch {
					case err == nil && damage == "remove":
						// The open handle outlives the directory entry.
					case err == nil:
						t.Fatalf("query over a truncated file returned %d rows and no error", len(got))
					case !errors.Is(err, ErrTableFile):
						t.Fatalf("untyped error: %v", err)
					default:
						var ce *store.ChunkError
						if !errors.As(err, &ce) || ce.Path != path || ce.Chunk < 3 {
							t.Fatalf("chunk error does not name the file and a chunk past the cut: %v", err)
						}
					}
				}
				got, _, err := db.Scan("good").Where(Pred{Col: 1, Op: Lt, Val: 2}).Collect(ctx)
				if err != nil || len(got) != len(rows)/5 {
					t.Fatalf("next query on the same DB: %d rows, err %v", len(got), err)
				}
			})
		}
	}
}
