package exec

// Tests for one schema per operator: every batch an operator receives
// has the kinds compile fixed for it, so a join's sealed store — and the
// build columns of its output — has its build input's kinds, on plan
// shapes a left-deep plan never builds.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"hierdb/internal/vec"
)

// schemaPlan is a plan, the reference rows it must produce and a
// budget below its smallest build side.
type schemaPlan struct {
	name   string
	plan   Node
	want   []Row
	budget int64
}

// schemaPlans are two plans whose build columns feed a later join: a
// build side fed by a join, keyed on a column of that join's build side;
// and a chain whose next join is keyed on a build column of the previous
// one, and projects a mix of probe and build columns. Payloads are
// typed — float, string, bool — and partly null.
func schemaPlans() []schemaPlan {
	fact := tbl("f", 600, func(i int) any { return i % 50 }, func(i int) any {
		if i%7 == 0 {
			return nil
		}
		return float64(i) / 4
	})
	dim := &Table{Name: "d", Cols: []string{"k", "g", "s"}}
	for i := range 50 {
		var s any = fmt.Sprintf("d%d", i)
		if i%5 == 0 {
			s = nil
		}
		dim.Rows = append(dim.Rows, Row{i, i % 10, s})
	}
	link := tbl("c", 100, func(i int) any { return i % 50 }, func(i int) any { return fmt.Sprintf("c%d", i) })
	leaf := &Table{Name: "e", Cols: []string{"g", "t", "b"}}
	for i := range 10 {
		leaf.Rows = append(leaf.Rows, Row{i, fmt.Sprintf("e%d", i), i%3 == 0})
	}
	rowsOf := func(rows []Row) *Table { return &Table{Rows: rows} }

	// fact ⋈ (link ⋈ dim), the outer build keyed on dim.k: column 2 of
	// link ++ dim.
	inner := nestedJoin(link, dim, 0, 0)
	bushy := schemaPlan{name: "build-fed-by-join",
		plan: &Join{
			Build:    &Join{Build: &Scan{Table: dim}, Probe: &Scan{Table: link}},
			Probe:    &Scan{Table: fact},
			BuildKey: 2,
		},
		want:   nestedJoin(fact, rowsOf(inner), 0, 2),
		budget: sideBytes(dim) / 2,
	}

	// (fact ⋈ dim) ⋈ leaf on dim.g: column 3 of fact ++ dim.
	out := []int{7, 4, 0, 1, 6}
	var chained []Row
	for _, r := range nestedJoin(rowsOf(nestedJoin(fact, dim, 0, 0)), leaf, 3, 0) {
		p := make(Row, len(out))
		for i, c := range out {
			p[i] = r[c]
		}
		chained = append(chained, p)
	}
	chain := schemaPlan{name: "key-from-build-column",
		plan: &Join{
			Build:    &Scan{Table: leaf},
			Probe:    &Join{Build: &Scan{Table: dim}, Probe: &Scan{Table: fact}},
			ProbeKey: 3,
			Out:      out,
		},
		want:   chained,
		budget: sideBytes(leaf) / 2,
	}
	return []schemaPlan{bushy, chain}
}

// checkSchema fails unless b has the kinds want and every column of it
// obeys the layout rule: a Box if and only if Any.
func checkSchema(t *testing.T, what string, b *vec.Batch, want []vec.Kind) {
	t.Helper()
	if len(b.Cols) != len(want) {
		t.Fatalf("%s: %d columns, want %d", what, len(b.Cols), len(want))
	}
	for ci := range b.Cols {
		c := &b.Cols[ci]
		if c.Kind != want[ci] {
			t.Fatalf("%s: column %d is %v, compile fixed %v", what, ci, c.Kind, want[ci])
		}
		if (c.Box != nil) != (c.Kind == vec.Any) {
			t.Fatalf("%s: %v column %d has a Box: %v", what, c.Kind, ci, c.Box != nil)
		}
	}
}

// TestStoresHoldCompileKinds runs a build side fed by a join and a chain
// keyed on a build column, on one and two nodes, ungoverned and under a
// budget smaller than the smallest build side. Each returns the
// reference rows; every result batch has the root's compile-time kinds,
// and every sealed store still held in memory its build operator's, with
// no Box on a typed column. A batch of another kind injected into the
// first build chain ends the query in ErrQueryPanic with every node
// account at 0, and the engine runs the next query.
func TestStoresHoldCompileKinds(t *testing.T) {
	checkQueryHygiene(t)
	for _, sp := range schemaPlans() {
		for _, nodes := range []int{1, 2} {
			for _, governed := range []bool{false, true} {
				name := fmt.Sprintf("%s/nodes=%d/governed=%v", sp.name, nodes, governed)
				cfg := EngineConfig{Nodes: nodes, Workers: 2, Batch: 16}
				if governed {
					cfg.MemoryPerNode, cfg.SpillDir = sp.budget, t.TempDir()
				}
				ns := newNodesT(t, cfg)
				phys, err := compile(sp.plan)
				if err != nil {
					t.Fatal(err)
				}
				h, err := ns.launch(context.Background(), phys, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				var got []Row
				var arena vec.Arena
				for b, ok := h.Next(); ok; b, ok = h.Next() {
					checkSchema(t, name+": result", b, phys.root.outKinds)
					got = b.AppendRows(got, &arena)
				}
				if err := h.Err(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sameRows(t, got, sp.want)
				if spilled := h.Stats().SpilledPartitions > 0; spilled != governed {
					t.Fatalf("%s: spilled %v", name, spilled)
				}
				stores := 0
				for _, op := range phys.ops {
					for i, fq := range h.mq.frags {
						if side := fq.ops[op.id].side; op.kind == opBuild && side != nil && side.store.N > 0 {
							checkSchema(t, fmt.Sprintf("%s: op %d's store on node %d", name, op.id, i), side.store, op.outKinds)
							stores++
						}
					}
				}
				if !governed && stores < 2 {
					t.Fatalf("%s: %d sealed stores checked", name, stores)
				}

				phys, err = compile(sp.plan)
				if err != nil {
					t.Fatal(err)
				}
				scan := phys.chains[0][0]
				bad := &vec.Batch{Cols: slices.Clone(scan.src.Cols), N: scan.src.N}
				bad.Cols[len(bad.Cols)-1].FillBox() // a payload column turns Any
				scan.src = bad
				h, err = ns.launch(context.Background(), phys, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				drain(h)
				if err := h.Err(); !errors.Is(err, ErrQueryPanic) {
					t.Fatalf("%s: a batch of another kind ended its query with %v, want ErrQueryPanic", name, err)
				}
				verifyMemSettled(t, ns)
				h, err = ns.Submit(context.Background(), sp.plan, nil, "")
				if err != nil {
					t.Fatal(err)
				}
				sameRows(t, collectHandle(t, h), sp.want)
			}
		}
	}
}

// TestMismatchedBuildBatchFreesItsPart: a build batch of another kind
// panics inside its part's lock and leaves the lock free, so the spill
// transition another worker's batch starts next drains every part
// instead of waiting on the failed one, and the node account settles.
func TestMismatchedBuildBatchFreesItsPart(t *testing.T) {
	build := tbl("mb", 64, func(i int) any { return i }, func(i int) any { return i })
	probe := tbl("mp", 1, func(i int) any { return i }, func(i int) any { return i })
	phys, err := compile(&Join{Build: &Scan{Table: build}, Probe: &Scan{Table: probe}})
	if err != nil {
		t.Fatal(err)
	}
	ns := newNodesT(t, EngineConfig{Workers: 2, MemoryPerNode: sideBytes(build) / 2, SpillDir: t.TempDir()})
	q := ns.newQuery(context.Background(), phys, nil).mq.frags[0]
	bop := phys.root.partner
	bad := vec.FromRows([]Row{{1, "one"}})
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		q.processBuild(&activation{op: bop, b: bad, lo: 0, hi: bad.N}, 0)
		return false
	}()
	if !panicked {
		t.Fatal("a build batch of kinds int, string reached a store of kinds int, int")
	}
	good := build.Columnar()
	done := make(chan error, 1)
	go func() { done <- q.processBuild(&activation{op: bop, b: good, lo: 0, hi: good.N}, 1) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the spill transition waits on the part lock of the batch that panicked")
	}
	if !q.ops[bop.id].spill.active.Load() {
		t.Fatal("a batch over the budget started no spill transition")
	}
	q.finalize()
	if used := ns.pools[0].mem.used.Load(); used != 0 {
		t.Fatalf("node account %d bytes after the fragment retired", used)
	}
}
