package hierdb

// Facade tests for memory-governed execution (WithMemory/WithSpillDir):
// the acceptance contract that a join whose build side exceeds the
// budget completes with results identical to the unlimited-memory run —
// single- and multi-node, streaming and Collect — plus the mid-spill
// abort guarantees (Rows.Close and ctx-cancel abort promptly, delete
// all spill temp files, and leak no goroutines).

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"hierdb/internal/leaktest"
)

const (
	spillBuildRows = 6_000
	spillProbeRows = 24_000
	spillBudget    = 16 << 10 // far below the ~6000-row build side
)

// spillDB opens a DB with the given options and registers a fact/dim
// pair whose dim (build) side dwarfs spillBudget.
func spillDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db := Open(opts...)
	t.Cleanup(func() { db.Close() })
	dim := &Table{Name: "dim", Cols: []string{"k", "v"}}
	for i := 0; i < spillBuildRows; i++ {
		dim.Rows = append(dim.Rows, Row{i, fmt.Sprintf("d%d", i)})
	}
	fact := &Table{Name: "fact", Cols: []string{"k", "v"}}
	for i := 0; i < spillProbeRows; i++ {
		fact.Rows = append(fact.Rows, Row{i % spillBuildRows, i})
	}
	for _, tb := range []*Table{dim, fact} {
		if err := db.Register(tb.Name, FromTable(tb)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func spillQuery(db *DB) *Query {
	return db.Scan("fact").Join(db.Scan("dim"), KeyCol(0), KeyCol(0))
}

// TestDBWithMemorySpillMatchesUnlimited is the facade acceptance test:
// under WithMemory far below the build side, every configuration —
// single- and multi-node, streamed row by row and Collected — returns
// exactly the unlimited-memory result, and Stats reports the spill.
func TestDBWithMemorySpillMatchesUnlimited(t *testing.T) {
	leaktest.Check(t, 2)
	ref := spillDB(t, WithWorkers(4))
	want, st, err := spillQuery(ref).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.SpillPhases != 0 || st.SpilledBytes != 0 {
		t.Fatalf("unlimited run spilled: %+v", st)
	}
	wantCanon := canonRows(want)

	configs := []struct {
		name string
		opts []Option
	}{
		{"single", []Option{WithWorkers(4), WithMemory(spillBudget)}},
		{"multi", []Option{WithNodes(3), WithWorkers(2), WithMemory(spillBudget)}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			db := spillDB(t, append(cfg.opts, WithSpillDir(t.TempDir()))...)

			// Collect leg.
			got, st, err := spillQuery(db).Collect(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			gotCanon := canonRows(got)
			if len(gotCanon) != len(wantCanon) {
				t.Fatalf("Collect: %d rows, want %d", len(gotCanon), len(wantCanon))
			}
			for i := range gotCanon {
				if gotCanon[i] != wantCanon[i] {
					t.Fatalf("Collect row %d: %s vs %s", i, gotCanon[i], wantCanon[i])
				}
			}
			if st.SpillPhases == 0 || st.SpilledPartitions == 0 || st.SpilledBytes == 0 {
				t.Fatalf("governed run did not spill: %+v", st)
			}

			// Streaming leg: row by row through Rows.Next.
			rows, err := spillQuery(db).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			var streamed []Row
			for rows.Next() {
				streamed = append(streamed, rows.Row())
			}
			if err := rows.Err(); err != nil {
				t.Fatal(err)
			}
			if err := rows.Close(); err != nil {
				t.Fatal(err)
			}
			sc := canonRows(streamed)
			for i := range sc {
				if sc[i] != wantCanon[i] {
					t.Fatalf("streamed row %d: %s vs %s", i, sc[i], wantCanon[i])
				}
			}
			if len(sc) != len(wantCanon) {
				t.Fatalf("streamed %d rows, want %d", len(sc), len(wantCanon))
			}
		})
	}
}

// TestDBWithMemoryGroupBySpill: governed group-by over a spilled join
// through the facade matches the unlimited aggregation.
func TestDBWithMemoryGroupBySpill(t *testing.T) {
	leaktest.Check(t, 2)
	agg := func(db *DB) []Row {
		t.Helper()
		out, _, err := spillQuery(db).
			GroupBy(KeyCol(0), Aggregation{Func: Count}, Aggregation{Func: Sum, Arg: func(r Row) float64 { return float64(r[1].(int)) }}).
			Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := agg(spillDB(t, WithWorkers(4)))
	got := agg(spillDB(t, WithWorkers(4), WithMemory(spillBudget), WithSpillDir(t.TempDir())))
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	for i := range got {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("group %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestDBSpillAbortCleansUp: Rows.Close and ctx-cancel mid-spill abort
// promptly, delete all spill temp files, and leak no goroutines — on
// both the single-node pool and the hierarchical engine.
func TestDBSpillAbortCleansUp(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts []Option
	}{
		{"single", []Option{WithWorkers(4)}},
		{"multi", []Option{WithNodes(2), WithWorkers(2)}},
	} {
		for _, way := range []string{"close", "cancel"} {
			t.Run(cfg.name+"/"+way, func(t *testing.T) {
				leaktest.Check(t, 2)
				dir := t.TempDir()
				db := spillDB(t, append(cfg.opts, WithMemory(spillBudget), WithSpillDir(dir))...)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				rows, err := spillQuery(db).Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !rows.Next() {
					t.Fatalf("no first row: %v", rows.Err())
				}
				start := time.Now()
				switch way {
				case "close":
					if err := rows.Close(); err != nil {
						t.Fatal(err)
					}
				case "cancel":
					cancel()
					for rows.Next() {
					}
					if err := rows.Err(); !errors.Is(err, context.Canceled) {
						t.Fatalf("cancelled query reported %v", err)
					}
					rows.Close()
				}
				if elapsed := time.Since(start); elapsed > 5*time.Second {
					t.Fatalf("mid-spill abort took %v", elapsed)
				}
				// Rows.Close/the drain returned only after the query fully
				// retired, and retirement removes every fragment's spill file.
				ents, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(ents) != 0 {
					t.Fatalf("spill temp files leaked after %s: %d entries", way, len(ents))
				}
				// Pool-idle check: a fresh governed query on the same DB
				// completes and cleans up after itself too.
				out, st, err := spillQuery(db).Collect(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if len(out) != spillProbeRows || st.SpillPhases == 0 {
					t.Fatalf("post-abort query: %d rows, stats %+v", len(out), st)
				}
				if ents, _ := os.ReadDir(dir); len(ents) != 0 {
					t.Fatalf("spill temp files leaked after clean completion")
				}
			})
		}
	}
}

// TestWithMemoryValidation: a negative budget is refused when the engine
// is built at Open and surfaces as a descriptive Run-time error, per the
// facade's validate-don't-panic contract.
func TestWithMemoryValidation(t *testing.T) {
	db := Open(WithMemory(-1))
	defer db.Close()
	_, err := db.Scan("fact").Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "MemoryPerNode") {
		t.Fatalf("WithMemory(-1) Run = %v", err)
	}
}

// TestExplainSpillMatchesRun: Explain's "grace spill expected" is the
// engine's own decision. For one ANALYZEd, unfiltered one-join query on
// one node, planned with its statistics (OptimizerHints), Explain's predicted per-node build bytes — the least budget
// at which it stops expecting a spill, found by bisection — decide the
// run: at 0.8× of them Explain expects a spill and the run spills, at
// 1.25× it expects none and the run spills nothing.
func TestExplainSpillMatchesRun(t *testing.T) {
	leaktest.Check(t, 2)
	ctx := context.Background()
	open := func(budget int64) *DB {
		db := spillDB(t, WithWorkers(2), WithOptimizer(OptimizerHints), WithMemory(budget), WithSpillDir(t.TempDir()))
		for _, name := range []string{"dim", "fact"} {
			if _, err := db.Analyze(name); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	expects := func(db *DB) bool {
		p, err := spillQuery(db).Explain(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Contains(p.String(), "grace spill expected")
	}
	lo, hi := int64(1), int64(1<<30) // Explain expects a spill at lo, none at hi
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		db := open(mid)
		if expects(db) {
			lo = mid
		} else {
			hi = mid
		}
		db.Close()
	}
	for _, f := range []float64{0.8, 1.25} {
		db := open(int64(f * float64(hi)))
		want := expects(db)
		if want != (f < 1) {
			t.Fatalf("at %.2f× Explain's %d predicted bytes, Explain expects a spill: %v", f, hi, want)
		}
		_, st, err := spillQuery(db).Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.SpilledPartitions > 0; got != want {
			t.Errorf("at %.2f× Explain's %d predicted bytes: Explain expects a spill %v, the run spilled %v (%+v)", f, hi, want, got, st)
		}
		db.Close()
	}
}
