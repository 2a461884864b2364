package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"hierdb/internal/vec"
)

// probeFixture is the root probe kernel on its own: a plan compiled into
// a one-node query — coordinator and fragment from the engine's own
// constructor — that is never scheduled. Every chain is driven to
// completion on worker 0, in chain order (builds before the probes that
// read them), except the root join's probe, whose input activations are
// returned instead of processed. gb, when set, is the group-by the root
// folds into.
func probeFixture(t testing.TB, plan Node, gb *GroupBy, opt Options) (q *query, probes []*activation) {
	t.Helper()
	phys, err := compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	if opt, err = opt.validateFor(max(opt.Workers, 1)); err != nil {
		t.Fatal(err)
	}
	ns := &Nodes{n: 1, workers: opt.Workers, pools: []*pool{{}}}
	q = ns.newQuery(context.Background(), phys, gb, opt).mq.frags[0]
	var drive func(a *activation)
	drive = func(a *activation) {
		if a.op == phys.root {
			probes = append(probes, a)
			return
		}
		outs, _ := q.process(a, 0)
		for _, out := range outs {
			drive(out)
		}
	}
	for _, chain := range phys.chains {
		drive(&activation{op: chain[0], lo: 0, hi: q.scanSrc(chain[0]).N})
	}
	return q, probes
}

// widePlan joins probeRows probe rows to a buildRows-row build side of
// the given width (key first), fan-out probeRows/buildRows.
func widePlan(buildRows, probeRows, width int) *Join {
	build := &Table{Name: "b"}
	for i := 0; i < buildRows; i++ {
		row := Row{1000 + i}
		for c := 1; c < width; c++ {
			row = append(row, 5000+i*width+c)
		}
		build.Rows = append(build.Rows, row)
	}
	probe := tbl("p", probeRows, func(i int) any { return 1000 + i%buildRows }, func(i int) any { return i })
	return &Join{Build: &Scan{Table: build}, Probe: &Scan{Table: probe}, BuildKey: 0, ProbeKey: 0}
}

// TestRaggedBuildStripes: a ragged registered table — 3-wide rows for
// the keys of even-numbered stripes, 2-wide rows for the others, so that
// with small batches a stripe's store is fed rows of one width only — is
// the build side. Every stripe store has the table's width all the same
// (a resident table is columnized once, short rows padded), one probe
// batch matches both kinds in either order, and every output row must
// read back at its own width.
func TestRaggedBuildStripes(t *testing.T) {
	checkQueryHygiene(t)
	const workers, perKind = 2, 32
	wide := func(k int) bool { return keyHash64(k)%uint64(8*workers)%2 == 0 }
	ragged := &Table{Name: "rb"}
	var keys []int
	for k, nw, nn := 0, 0, 0; nw < perKind || nn < perKind; k++ {
		switch {
		case wide(k) && nw < perKind:
			ragged.Rows = append(ragged.Rows, Row{k, "wide", k * 10})
			nw++
		case !wide(k) && nn < perKind:
			ragged.Rows = append(ragged.Rows, Row{k, "narrow"})
			nn++
		default:
			continue
		}
		keys = append(keys, k)
	}
	outer := tbl("o", 4*len(keys), func(i int) any { return keys[(i*7)%len(keys)] }, func(i int) any { return i })
	plan := &Join{Build: &Scan{Table: ragged}, Probe: &Scan{Table: outer}}
	var want []Row
	for _, o := range outer.Rows {
		if k := o[0].(int); wide(k) {
			want = append(want, Row{k, o[1], k, "wide", k * 10})
		} else {
			want = append(want, Row{k, o[1], k, "narrow"})
		}
	}
	for _, batch := range []int{1, 4, 256} {
		got, _, err := runOnce(context.Background(), plan, nil, Options{Workers: workers, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, got, want)
		for _, r := range got {
			wantW := 4
			if wide(r[0].(int)) {
				wantW = 5
			}
			if len(r) != wantW {
				t.Fatalf("batch %d: key %v came back %d wide, want %d", batch, r[0], len(r), wantW)
			}
		}
	}
}

// TestJoinGatherAllocBound is the join-output alloc gate (run by CI): a
// probe emits its build columns as the sealed store's columns under one
// shared position vector, so what it allocates per output row does not
// depend on how wide the build side is, and stays O(1) allocations per
// batch. The same holds at the root of a plan the optimizer reordered:
// its restoring column permutation is an Out list, a pick of headers.
func TestJoinGatherAllocBound(t *testing.T) {
	const buildRows, probeRows = 2_000, 100_000
	perRow := func(name string, plan Node) (bytes, allocs float64) {
		q, probes := probeFixture(t, plan, nil, Options{Workers: 1, Batch: 1024})
		run := func() (n int) {
			for _, a := range probes {
				_, out := q.processProbeVec(a, 0)
				n += out.N
			}
			return n
		}
		rows := run() // seal, and grow the scratch and the arena to steady state
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		again := run()
		runtime.ReadMemStats(&m1)
		if rows == 0 || again != rows {
			t.Fatalf("%s: %d output rows, then %d", name, rows, again)
		}
		bytes, allocs = float64(m1.TotalAlloc-m0.TotalAlloc)/float64(rows), float64(m1.Mallocs-m0.Mallocs)/float64(rows)
		// Two position vectors (8 B) per row; per batch, a column header
		// per output column — noise next to a 16 B word per column per row.
		if allocs > 0.05 || bytes > 24 {
			t.Fatalf("%s: %.3f allocs and %.1f B per output row, want <= 0.05 and <= 24", name, allocs, bytes)
		}
		return bytes, allocs
	}
	narrowBytes, _ := perRow("build width 1", widePlan(buildRows, probeRows, 1))
	for _, width := range []int{4, 16} {
		if bytes, _ := perRow(fmt.Sprintf("build width %d", width), widePlan(buildRows, probeRows, width)); bytes > narrowBytes+4 {
			t.Fatalf("build width %d: %.1f B per output row against %.1f B at width 1: the output copies build values", width, bytes, narrowBytes)
		}
	}
	root, big, mid, small := badChain()
	pc := Optimize(root, OptimizeFull, analyzeAll(t, big, mid, small))
	if !pc.Reordered || len(pc.Root.(*Join).Out) == 0 {
		t.Fatalf("the 3-way fixture was not reordered under a restoring Out list: %+v", pc)
	}
	perRow("reordered 3-way root", pc.Root)
}

// TestActivationsNameTheirBatch: a scan that keeps every row emits no
// batch of its own — each probe activation names the table's
// columnization and its Batch-row bounds — and a kernel reads those rows
// through the worker's one reusable header, so routing a morsel allocates
// the activations and nothing per column.
func TestActivationsNameTheirBatch(t *testing.T) {
	const buildRows, probeRows, batch = 10, 1000, 256
	q, probes := probeFixture(t, widePlan(buildRows, probeRows, 2), nil, Options{Workers: 1, Batch: batch})
	root := q.mq.phys.root
	scanOp := q.mq.phys.chains[root.chain][0]
	src, vs := q.scanSrc(scanOp), &q.vscratch[0]
	if len(probes) != (probeRows+batch-1)/batch {
		t.Fatalf("%d probe activations for %d rows", len(probes), probeRows)
	}
	next := 0
	for _, a := range probes {
		if a.b != src || a.lo != next || a.hi != min(next+batch, probeRows) {
			t.Fatalf("activation [%d,%d) of %p, want [%d,%d) of the scanned table %p", a.lo, a.hi, a.b, next, min(next+batch, probeRows), src)
		}
		in := a.input(vs)
		if in != &vs.win || in.N != a.hi-a.lo || in.Cols[1].Value(in.Cols[1].Pos(0)) != a.lo {
			t.Fatalf("input of [%d,%d): %d rows from %v on header %p, want the scratch header %p", a.lo, a.hi, in.N, in.Cols[1].Value(in.Cols[1].Pos(0)), in, &vs.win)
		}
		next = a.hi
	}
	scan := &activation{op: scanOp, lo: 0, hi: probeRows}
	if allocs := testing.AllocsPerRun(20, func() { q.process(scan, 0) }); allocs > float64(2*len(probes)) { // the activations and their slice's growth
		t.Fatalf("%.0f allocations to route one morsel into %d activations", allocs, len(probes))
	}
}

// TestProbeOutputAliasesSealedStore: at fan-out 50 every output batch's
// build columns are the sealed store's own columns — same backing
// arrays, kind and mirror as stored — under one index vector shared by
// all of them.
func TestProbeOutputAliasesSealedStore(t *testing.T) {
	const buildRows, probeRows, width = 100, 5_000, 3
	q, probes := probeFixture(t, widePlan(buildRows, probeRows, width), nil, Options{Workers: 1})
	bo := q.ops[q.mq.phys.root.partner.id]
	var sealed *vec.Batch
	rows := 0
	for _, a := range probes {
		_, out := q.processProbeVec(a, 0)
		if sealed == nil {
			sealed = bo.stripes[0].sealed
			if sealed == nil || sealed.N != buildRows {
				t.Fatalf("first probe left the build side unsealed: %+v", sealed)
			}
		}
		rows += out.N
		pw := len(a.b.Cols)
		if len(out.Cols) != pw+width {
			t.Fatalf("output is %d wide, want %d", len(out.Cols), pw+width)
		}
		for ci := 0; ci < width; ci++ {
			oc, sc := &out.Cols[pw+ci], &sealed.Cols[ci]
			if oc.Kind != vec.Int || &oc.Box[0] != &sc.Box[0] || &oc.I64[0] != &sc.I64[0] {
				t.Fatalf("build column %d (kind %v) does not share the sealed column's storage", ci, oc.Kind)
			}
			if &oc.Idx[0] != &out.Cols[pw].Idx[0] {
				t.Fatalf("build column %d has a position vector of its own", ci)
			}
		}
	}
	if rows != probeRows {
		t.Fatalf("%d output rows, want %d", rows, probeRows)
	}
	for _, ss := range bo.stripes {
		if ss.app != nil || ss.sealed != sealed {
			t.Fatal("a stripe kept its row storage past the seal")
		}
	}
}

// TestSealSingleFlight: every worker entering the first probe at once,
// the build side is sealed exactly once — all outputs select from one
// store — and the join is still right. Run under -race.
func TestSealSingleFlight(t *testing.T) {
	const workers, buildRows, probeRows = 8, 20_000, 40_000
	plan := widePlan(buildRows, probeRows, 4)
	q, probes := probeFixture(t, plan, nil, Options{Workers: workers, Batch: probeRows / workers})
	if len(probes) != workers {
		t.Fatalf("%d probe activations, want %d", len(probes), workers)
	}
	outs := make([]*vec.Batch, workers)
	var start, done sync.WaitGroup
	start.Add(1)
	for w := range outs {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			_, outs[w] = q.processProbeVec(probes[w], w)
		}()
	}
	start.Done()
	done.Wait()
	var got []Row
	var arena vec.Arena
	pw := len(probes[0].b.Cols)
	for _, out := range outs {
		if &out.Cols[pw].Box[0] != &outs[0].Cols[pw].Box[0] {
			t.Fatal("two probes saw two sealed stores")
		}
		got = out.AppendRows(got, &arena)
	}
	sameRows(t, got, nestedJoinHashed(plan))
}

// nestedJoinHashed is the reference result of a one-join plan over
// resident tables keyed on column 0 (nestedJoin with an index: the
// sealed-store tests join tens of thousands of rows).
func nestedJoinHashed(plan *Join) []Row {
	byKey := map[any][]Row{}
	for _, b := range plan.Build.(*Scan).Table.Rows {
		byKey[b[0]] = append(byKey[b[0]], b)
	}
	var out []Row
	for _, p := range plan.Probe.(*Scan).Table.Rows {
		for _, b := range byKey[p[0]] {
			out = append(out, append(append(Row{}, p...), b...))
		}
	}
	return out
}

// TestProbeCutsAtSecondStore: a probe batch whose matches lie in two
// sealed stores (no routing produces one, the kernel must not rely on
// it) is cut at the first row matching in the second store: the rows
// before it become an output over the first store, the rest an
// activation of its own, and together they are the whole join.
func TestProbeCutsAtSecondStore(t *testing.T) {
	const buildRows, probeRows = 64, 256
	plan := widePlan(buildRows, probeRows, 2)
	q, probes := probeFixture(t, plan, nil, Options{Workers: 1, Stripes: 4, Batch: probeRows})
	bo := q.ops[q.mq.phys.root.partner.id]
	if err := bo.seal(); err != nil {
		t.Fatal(err)
	}
	// Give stripe 1 a sealed store of its own, holding the same rows.
	old := bo.stripes[1]
	own := &vec.Batch{Cols: append([]vec.Col(nil), old.sealed.Cols...), N: old.sealed.N}
	moved := *old
	moved.sealed = own
	bo.stripes[1] = &moved

	var got []Row
	var arena vec.Arena
	cuts := 0
	for pending := probes; len(pending) > 0; {
		a := pending[0]
		outs, out := q.processProbeVec(a, 0)
		pending = append(pending[1:], outs...)
		for _, tail := range outs {
			cuts++
			if tail.op != a.op || tail.hi-tail.lo >= a.hi-a.lo {
				t.Fatalf("tail of a %d-row probe: %d rows for operator %d", a.hi-a.lo, tail.hi-tail.lo, tail.op.id)
			}
		}
		got = out.AppendRows(got, &arena)
	}
	sameRows(t, got, nestedJoinHashed(plan))
	if cuts == 0 {
		t.Fatal("a batch matching in two stores was emitted whole")
	}
}

// TestBuildTooLargeIsTypedError: positions in a sealed store are int32;
// a build side past that is refused with ErrBuildTooLarge before any row
// moves, not sealed with wrapped positions.
func TestBuildTooLargeIsTypedError(t *testing.T) {
	stripes := make([]*stripeStore, 3)
	for i := range stripes {
		stripes[i] = newStripeStore(nil, idxBoxed, 0, 0)
		stripes[i].rows = math.MaxInt32/2 + 1
	}
	err := sealStripes(stripes[:2])
	if !errors.Is(err, ErrBuildTooLarge) {
		t.Fatalf("sealing 2^31+1 rows: %v, want ErrBuildTooLarge", err)
	}
	if stripes[0].sealed != nil || stripes[0].app == nil {
		t.Fatal("a refused seal touched the stripes")
	}
	stripes[2].rows = math.MaxInt32/2 - 1
	if err := sealStripes([]*stripeStore{stripes[0], stripes[2]}); err != nil {
		t.Fatalf("sealing 2^31-1 rows: %v", err)
	}
	if stripes[2].base != math.MaxInt32/2+1 {
		t.Fatalf("second stripe based at %d", stripes[2].base)
	}
}

// TestStolenOutputsReferenceOwnerStore: under total key skew onto node
// 0 the starving peer steals probe activations, and what it emits for
// them selects from node 0's sealed store — the thief caches the
// owner's stripes, it copies no rows. The result equals the reference
// with stealing on and off. Run under -race.
func TestStolenOutputsReferenceOwnerStore(t *testing.T) {
	checkQueryHygiene(t)
	const nodes, stripes, factRows, dimRows = 2, 8, 60_000, 500
	plan := skewPlan(nodes, stripes, factRows, dimRows)
	want, _, err := runOnce(context.Background(), plan, nil, Options{Workers: 4, Stripes: stripes})
	if err != nil {
		t.Fatal(err)
	}
	ns := newNodesT(t, nodes, 4)
	for _, off := range []bool{false, true} {
		var st *Stats
		for attempt := 0; attempt < 5; attempt++ {
			h, err := ns.Submit(context.Background(), plan, Options{Stripes: stripes, DisableStealing: off})
			if err != nil {
				t.Fatal(err)
			}
			owner := h.mq.frags[0].ops[h.mq.phys.root.partner.id]
			var got []Row
			var arena vec.Arena
			for b := range h.Out() {
				// Every key is node 0's: whichever node emitted the
				// batch, its build columns are node 0's sealed columns.
				sealed := owner.stripes[0].sealed
				if bc := &b.Cols[len(b.Cols)-1]; sealed == nil || &bc.Str[0] != &sealed.Cols[1].Str[0] {
					t.Fatalf("stealing off=%v: an output batch's build column is not the owner's sealed column", off)
				}
				got = b.AppendRows(got, &arena)
			}
			if err := h.Err(); err != nil {
				t.Fatal(err)
			}
			sameRows(t, got, want)
			if st = h.Stats(); off || st.StolenActivations > 0 {
				break
			}
		}
		if !off && (st.StolenActivations == 0 || st.Nodes[1].ResultRows == 0) {
			t.Fatalf("no stolen activation produced output: %+v", st)
		}
		if off && st.Steals != 0 {
			t.Fatalf("DisableStealing leaked steals: %+v", st)
		}
	}
}

// TestSealUnderGovernance: the seal charges nothing and never holds the
// build rows twice, so a governed join that fits its budget stays in
// memory — no spill because of the seal — while one that overflows
// mid-build transitions before any seal and replays through sealed
// partition stores. Both return the ungoverned result.
func TestSealUnderGovernance(t *testing.T) {
	checkQueryHygiene(t)
	plan := govPlan(5_000, 20_000)
	want, _, err := runOnce(context.Background(), plan, nil, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// ~5000 rows × (24 + 2×16 + ~5 string bytes + 48 entry) ≈ 550 KiB.
	got, st := runGoverned(t, plan, Options{MemoryPerNode: 640 << 10, SpillDir: t.TempDir()})
	sameRows(t, got, want)
	if st.SpilledPartitions != 0 || st.SpillPhases != 0 {
		t.Fatalf("a build that fits its budget spilled: %+v", st)
	}
	got, st = runGoverned(t, plan, Options{MemoryPerNode: 256 << 10, SpillDir: t.TempDir()})
	sameRows(t, got, want)
	if st.SpillPhases == 0 {
		t.Fatalf("a build past its budget never transitioned: %+v", st)
	}
}

// TestCancelDuringSeal cancels a query from its probe scan's filter —
// that is, as the probe chain starts and the first probe seals a wide
// build side — on one node and on two. The query must end cancelled
// (or complete, if the seal won the race) with no goroutine left, and
// the engine must still serve.
func TestCancelDuringSeal(t *testing.T) {
	checkQueryHygiene(t)
	plan := widePlan(50_000, 100_000, 8)
	for _, nodes := range []int{1, 2} {
		ns := newNodesT(t, nodes, 4)
		for round := 0; round < 3; round++ {
			ctx, cancel := context.WithCancel(context.Background())
			var once sync.Once
			p := *plan
			p.Probe = &Scan{Table: plan.Probe.(*Scan).Table, Filter: func(Row) bool {
				once.Do(cancel)
				return true
			}}
			h, err := ns.Submit(ctx, &p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for range h.Out() {
			}
			if err := h.Err(); err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("%d node(s): %v", nodes, err)
			}
			cancel()
		}
		verifyIdle(t, ns)
	}
}

// BenchmarkJoinProbeGather is the probe kernel alone: a resident
// 100 000-row probe against a sealed 2 000-row build side (fan-out 50)
// at three build widths. Per match it carves two positions; the build
// width shows only in the per-batch column headers.
func BenchmarkJoinProbeGather(b *testing.B) {
	const buildRows, probeRows = 2_000, 100_000
	for _, width := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			q, probes := probeFixture(b, widePlan(buildRows, probeRows, width), nil, Options{Workers: 1, Batch: 1024})
			run := func() {
				for _, a := range probes {
					if _, out := q.processProbeVec(a, 0); out.N != a.hi-a.lo {
						b.Fatalf("%d matches for %d probe rows", out.N, a.hi-a.lo)
					}
				}
			}
			run()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			matches := float64(probeRows) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/matches, "ns/match")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/matches, "B/match")
		})
	}
}
