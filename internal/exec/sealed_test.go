package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hierdb/internal/vec"
)

// probeFixture is the root probe kernel on its own: a plan compiled into
// a one-node query — engine, coordinator and fragment from the engine's
// own constructors, no worker started — that is never scheduled. Every
// chain is driven to completion, in chain order (builds before the
// probes that read them), one activation at a time dealt round-robin to
// the workers — so a build side has a part per worker, as a pool would
// leave it — except the root join's probe, whose input activations are
// returned instead of processed. Each build chain ends in its build's
// seal activation, as the chain barrier queues it. gb, when set, is the
// group-by the root folds into.
func probeFixture(t testing.TB, plan Node, gb *GroupBy, cfg EngineConfig) (q *query, probes []*activation) {
	t.Helper()
	q, probes = unsealedFixture(t, plan, gb, cfg)
	q.process(&activation{op: q.mq.phys.root.partner, closing: true}, 0)
	return q, probes
}

// unsealedFixture is probeFixture with the root join's build side left
// unsealed: its parts hold the rows, its side is nil.
func unsealedFixture(t testing.TB, plan Node, gb *GroupBy, cfg EngineConfig) (q *query, probes []*activation) {
	t.Helper()
	phys, err := compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := newNodes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q = ns.newQuery(context.Background(), phys, gb).mq.frags[0]
	dealt := 0
	var drive func(a *activation)
	drive = func(a *activation) {
		if a.op == phys.root {
			probes = append(probes, a)
			return
		}
		outs, _ := q.process(a, dealt%ns.cfg.Workers)
		dealt++
		for _, out := range outs {
			drive(out)
		}
	}
	for _, chain := range phys.chains {
		drive(&activation{op: chain[0], lo: 0, hi: chain[0].src.N})
		if last := chain[len(chain)-1]; last.kind == opBuild && last != phys.root.partner {
			q.process(&activation{op: last, closing: true}, 0)
		}
	}
	return q, probes
}

// widePlan joins probeRows probe rows to a buildRows-row build side of
// the given width (key first), every build key distinct: one match per
// probe row.
func widePlan(buildRows, probeRows, width int) *Join {
	return dupPlan(buildRows, probeRows, width, buildRows)
}

// dupPlan is widePlan with the build keys drawn from distinct values:
// buildRows/distinct matches per probe row.
func dupPlan(buildRows, probeRows, width, distinct int) *Join {
	build := &Table{Name: "b"}
	for i := 0; i < buildRows; i++ {
		row := Row{1000 + i%distinct}
		for c := 1; c < width; c++ {
			row = append(row, 5000+i*width+c)
		}
		build.Rows = append(build.Rows, row)
	}
	probe := tbl("p", probeRows, func(i int) any { return 1000 + i%distinct }, func(i int) any { return i })
	return &Join{Build: &Scan{Table: build}, Probe: &Scan{Table: probe}, BuildKey: 0, ProbeKey: 0}
}

// TestRaggedBuildParts: a registered table of two row widths — 3-wide
// rows for even keys, 2-wide rows for odd ones, alternating — is the
// build side. Driven by the fixture, which deals its activations to the
// two workers in turn, one-row batches feed one part every wide row and
// the other every narrow one. Every part has the table's width all the
// same (a resident table is columnized once, a short row null in the
// column it lacks), one probe batch matches both kinds in either order,
// and every output row must read back 5 wide, a narrow row's match null
// in its last column — from the probe kernel on the fixture, and from
// the engine, whose workers take the rows in no fixed order.
func TestRaggedBuildParts(t *testing.T) {
	checkQueryHygiene(t)
	const workers, rows = 2, 64
	wide := func(k int) bool { return k%2 == 0 }
	ragged := &Table{Name: "rb"}
	keys := make([]int, rows)
	for k := range keys {
		keys[k] = k
		if wide(k) {
			ragged.Rows = append(ragged.Rows, Row{k, "wide", k * 10})
		} else {
			ragged.Rows = append(ragged.Rows, Row{k, "narrow"})
		}
	}
	outer := tbl("o", 4*len(keys), func(i int) any { return keys[(i*7)%len(keys)] }, func(i int) any { return i })
	plan := &Join{Build: &Scan{Table: ragged}, Probe: &Scan{Table: outer}}
	var want []Row
	for _, o := range outer.Rows {
		if k := o[0].(int); wide(k) {
			want = append(want, Row{k, o[1], k, "wide", k * 10})
		} else {
			want = append(want, Row{k, o[1], k, "narrow", nil})
		}
	}
	check := func(name string, got []Row) {
		t.Helper()
		sameRows(t, got, want)
		for _, r := range got {
			if len(r) != 5 {
				t.Fatalf("%s: key %v came back %d wide, want 5", name, r[0], len(r))
			}
		}
	}

	q, probes := unsealedFixture(t, plan, nil, EngineConfig{Workers: workers, Batch: 1})
	bo := q.ops[q.mq.phys.root.partner.id]
	var partWide [workers]bool
	for w, ap := range bo.parts {
		part := ap.Batch()
		if part.N != rows/workers || len(part.Cols) != 3 {
			t.Fatalf("part %d holds %d rows %d wide, want %d rows 3 wide", w, part.N, len(part.Cols), rows/workers)
		}
		partWide[w] = wide(part.Cols[0].Value(0).(int))
		for i := 0; i < part.N; i++ {
			if k := part.Cols[0].Value(i).(int); wide(k) != partWide[w] {
				t.Fatalf("part %d holds keys %v and %d, rows of both widths", w, part.Cols[0].Value(0), k)
			}
		}
	}
	if partWide[0] == partWide[1] {
		t.Fatal("both parts hold rows of one width")
	}
	q.process(&activation{op: bo.op, closing: true}, 0)
	var got []Row
	var arena vec.Arena
	for _, a := range probes {
		_, out := q.processProbeVec(a, 0)
		got = out.AppendRows(got, &arena)
	}
	check("fixture", got)

	for _, batch := range []int{1, 4, 256} {
		got, _, err := runOnce(context.Background(), plan, nil, EngineConfig{Workers: workers, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("batch %d", batch), got)
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
		q, probes := probeFixture(t, plan, nil, EngineConfig{Workers: 1, Batch: 1024})
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
	q, probes := probeFixture(t, widePlan(buildRows, probeRows, 2), nil, EngineConfig{Workers: 1, Batch: batch})
	root := q.mq.phys.root
	scanOp := q.mq.phys.chains[root.chain][0]
	src, vs := scanOp.src, &q.vscratch[0]
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
// build columns are the sealed store's own columns — same kind and
// mirror as stored, and no Box beside a typed mirror, in the store or the
// output — under one index vector shared by all of them.
func TestProbeOutputAliasesSealedStore(t *testing.T) {
	const buildRows, probeRows, width = 100, 5_000, 3
	q, probes := probeFixture(t, widePlan(buildRows, probeRows, width), nil, EngineConfig{Workers: 1})
	bo := q.ops[q.mq.phys.root.partner.id]
	if bo.side == nil || bo.side.store.N != buildRows {
		t.Fatalf("the seal activation left the build side unsealed: %+v", bo.side)
	}
	sealed := bo.side.store
	for ci := range sealed.Cols {
		if sc := &sealed.Cols[ci]; sc.Kind != vec.Int || sc.Box != nil {
			t.Fatalf("sealed column %d is %v with %d boxes, want an int mirror and no Box", ci, sc.Kind, len(sc.Box))
		}
	}
	rows := 0
	for _, a := range probes {
		_, out := q.processProbeVec(a, 0)
		rows += out.N
		pw := len(a.b.Cols)
		if len(out.Cols) != pw+width {
			t.Fatalf("output is %d wide, want %d", len(out.Cols), pw+width)
		}
		for ci := 0; ci < width; ci++ {
			oc, sc := &out.Cols[pw+ci], &sealed.Cols[ci]
			if oc.Kind != vec.Int || oc.Box != nil || &oc.I64[0] != &sc.I64[0] {
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
	for _, ap := range bo.parts {
		if ap != nil {
			t.Fatal("a part outlived the seal")
		}
	}
}

// TestConcurrentProbesShareOneSide: every worker probing at once reads
// the one side the seal activation built — all outputs select from one
// store, sharing its mirror — and the join is still right. Run under
// -race.
func TestConcurrentProbesShareOneSide(t *testing.T) {
	const workers, buildRows, probeRows = 8, 20_000, 40_000
	plan := widePlan(buildRows, probeRows, 4)
	q, probes := probeFixture(t, plan, nil, EngineConfig{Workers: workers, Batch: probeRows / workers})
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
	side := q.ops[q.mq.phys.root.partner.id].side
	for _, out := range outs {
		if oc, sc := &out.Cols[pw], &side.store.Cols[0]; oc.Box != nil || sc.Box != nil || &oc.I64[0] != &sc.I64[0] {
			t.Fatal("a probe's output does not select from the sealed store")
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

// TestBuildTooLargeIsTypedError: positions in a sealed store are int32;
// a store past that is refused with ErrBuildTooLarge before a slot is
// allocated, not indexed with wrapped positions.
func TestBuildTooLargeIsTypedError(t *testing.T) {
	if _, err := sealStore(&vec.Batch{N: math.MaxInt32 + 1}, 0, 0, 0); !errors.Is(err, ErrBuildTooLarge) {
		t.Fatalf("sealing 2^31 rows: %v, want ErrBuildTooLarge", err)
	}
}

// sealKeys seals a one-column store holding keys (columnized as FromRows
// resolves them).
func sealKeys(t *testing.T, keys ...any) *buildSide {
	t.Helper()
	rows := make([]Row, len(keys))
	for i, k := range keys {
		rows[i] = Row{k}
	}
	ap := vec.NewAppender(nil, 0)
	ap.AppendBatch(vec.FromRows(rows))
	bs, err := sealStore(ap.Batch(), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// matches probes bs with each key and returns, per key, the store
// positions matched in the order the chain walk reported them.
func matches(bs *buildSide, keys ...any) [][]int32 {
	rows := make([]Row, len(keys))
	for i, k := range keys {
		rows[i] = Row{k}
	}
	pb := vec.FromRows(rows)
	kc := &pb.Cols[0]
	var vs vecScratch
	hs := keyHashes(pb, 0, &vs)
	out := make([][]int32, len(keys))
	bs.matchAll(&vs, kc, hs)
	for j, pr := range vs.probeRows {
		out[pr] = append(out[pr], vs.bpos[j])
	}
	return out
}

// TestSealedIndex is the chained index on its own, against what Go's ==
// on the boxed keys says (the map[any] the index replaced): collisions,
// duplicates, nulls, cross-kind keys, floats, mixed-kind columns.
func TestSealedIndex(t *testing.T) {
	eq := func(t *testing.T, got [][]int32, want ...[]int32) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%d probe rows, want %d", len(got), len(want))
		}
		for i := range want {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("probe row %d matched store positions %v, want %v (all: %v)", i, got[i], want[i], got)
			}
		}
	}
	t.Run("collisions chain", func(t *testing.T) {
		// 3 000 distinct keys in 6 000 slots: hundreds of slots hold two
		// keys or more, and every key still finds exactly its own row.
		const n = 3_000
		keys := make([]any, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d", i*7)
		}
		bs := sealKeys(t, keys...)
		shared := 0
		for _, h := range bs.heads {
			if h != 0 && bs.next[h-1] != 0 {
				shared++
			}
		}
		if shared < n/20 {
			t.Fatalf("only %d of %d slots chain two rows: the fixture forces no collision", shared, len(bs.heads))
		}
		for i, ps := range matches(bs, keys...) {
			if len(ps) != 1 || int(ps[0]) != i {
				t.Fatalf("key %v matched %v, want [%d]", keys[i], ps, i)
			}
		}
		eq(t, matches(bs, "k1", "absent", ""), nil, nil, nil)
	})
	t.Run("duplicates ascend", func(t *testing.T) {
		keys := make([]any, 2_100)
		for i := range keys {
			keys[i] = i % 7 // more rows than one hashing chunk, 300 a key
		}
		bs := sealKeys(t, keys...)
		for k, ps := range matches(bs, 0, 1, 2, 3, 4, 5, 6) {
			if len(ps) != 300 {
				t.Fatalf("key %d matched %d rows, want 300", k, len(ps))
			}
			for j, p := range ps {
				if int(p) != k+7*j {
					t.Fatalf("key %d: match %d is position %d, want %d (store order)", k, j, p, k+7*j)
				}
			}
		}
	})
	t.Run("null meets null only", func(t *testing.T) {
		for _, keys := range [][]any{{0, nil, 5, nil, 0}, {"", nil, "a", nil, ""}, {0.0, nil, 2.5, nil, 0.0}, {false, nil, true, nil, false}, {0, nil, "a", nil, 0}} {
			bs := sealKeys(t, keys...)
			eq(t, matches(bs, nil, keys[0], keys[2]), []int32{1, 3}, []int32{0, 4}, []int32{2})
		}
	})
	t.Run("kinds do not cross", func(t *testing.T) {
		ints := sealKeys(t, 5, 6, 5)
		eq(t, matches(ints, int64(5), int32(5), uint64(5), 5.0, "5", 5), nil, nil, nil, nil, nil, []int32{0, 2})
		eq(t, matches(ints, int64(5), nil), nil, nil) // a typed column of another kind
		mixed := sealKeys(t, 5, int64(5), "5", 5.0, nil, true)
		eq(t, matches(mixed, 5), []int32{0})
		eq(t, matches(mixed, int64(5)), []int32{1})
		eq(t, matches(mixed, "5"), []int32{2})
		eq(t, matches(mixed, 5.0), []int32{3})
		eq(t, matches(mixed, true, false), []int32{5}, nil)
		eq(t, matches(mixed, int64(5), 5, nil, uint64(5)), []int32{1}, []int32{0}, []int32{4}, nil)
	})
	t.Run("floats", func(t *testing.T) {
		negZero := math.Copysign(0, -1)
		bs := sealKeys(t, math.NaN(), 0.0, negZero, 1.5, math.NaN())
		eq(t, matches(bs, math.NaN(), negZero, 0.0, 1.5), nil, []int32{1, 2}, []int32{1, 2}, []int32{3})
		anyStore := sealKeys(t, math.NaN(), 0.0, negZero, "x")
		eq(t, matches(anyStore, math.NaN(), negZero), nil, []int32{1, 2})
	})
}

// TestEmptyBuildSide: a join whose build side has no row — or none on
// some node — seals to an empty store, which every probe row misses.
func TestEmptyBuildSide(t *testing.T) {
	checkQueryHygiene(t)
	probe := tbl("p", 500, func(i int) any { return i }, func(i int) any { return i })
	for _, build := range []*Table{{Name: "none", Cols: []string{"k", "v"}}, tbl("one", 1, func(int) any { return 7 }, func(int) any { return "x" })} {
		plan := &Join{Build: &Scan{Table: build}, Probe: &Scan{Table: probe}}
		for _, nodes := range []int{1, 2} {
			h, err := newNodesT(t, EngineConfig{Nodes: nodes, Workers: 2}).Submit(context.Background(), plan, nil, "")
			if err != nil {
				t.Fatal(err)
			}
			got := drainRows(h)
			if err := h.Err(); err != nil {
				t.Fatal(err)
			}
			sameRows(t, got, nestedJoinHashed(plan))
		}
	}
}

// TestUncomparableKeyIsQueryPanic: equal keys of a type Go cannot
// compare meet in one chain, where == panics; the query ends in
// ErrQueryPanic and the engine serves the next one.
func TestUncomparableKeyIsQueryPanic(t *testing.T) {
	checkQueryHygiene(t)
	key := func(i int) any { return []int{i % 4} }
	plan := &Join{Build: &Scan{Table: tbl("b", 8, key, key)}, Probe: &Scan{Table: tbl("p", 64, key, key)}}
	ns := newNodesT(t, EngineConfig{Workers: 2})
	h, err := ns.Submit(context.Background(), plan, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	drainRows(h)
	if err := h.Err(); !errors.Is(err, ErrQueryPanic) {
		t.Fatalf("joining on slice keys: %v, want ErrQueryPanic", err)
	}
	good := widePlan(10, 100, 2)
	if h, err = ns.Submit(context.Background(), good, nil, ""); err != nil {
		t.Fatal(err)
	}
	sameRows(t, drainRows(h), nestedJoinHashed(good))
	verifyIdle(t, ns)
}

// TestEmptyRemoteBucketAcquiredOnce: a steal pays for the remote buckets
// its rows touch that the thief has not acquired yet — each bucket's
// build rows, as the owner's seal counted them, at nominalTupleBytes a
// row — and remembers them, an empty bucket included, so a repeated steal
// is priced at its rows alone and acquires nothing. The stolen rows probe
// the owner's sealed side in place.
func TestEmptyRemoteBucketAcquiredOnce(t *testing.T) {
	const nodes, stripes, probeRows = 2, 8, 64
	const buckets = nodes * stripes
	mine := keysOwnedBy(0, nodes, stripes, probeRows)
	// Build rows — one to three a key — in node 0's even local buckets only:
	// its odd ones stay empty.
	build := &Table{Name: "b", Cols: []string{"k", "v"}}
	rowsIn := map[int]int{} // build rows per global bucket
	for i, k := range mine {
		if g := int(keyHash64(k) % buckets); g/nodes%2 == 0 {
			for j := 0; j <= i%3; j++ {
				build.Rows = append(build.Rows, Row{k, j})
				rowsIn[g]++
			}
		}
	}
	probe := tbl("p", probeRows, func(i int) any { return mine[i] }, func(i int) any { return i })
	phys, err := compile(&Join{Build: &Scan{Table: build}, Probe: &Scan{Table: probe}})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := newNodes(EngineConfig{Nodes: nodes, Workers: 1, Stripes: stripes})
	if err != nil {
		t.Fatal(err)
	}
	mq := &ns.newQuery(context.Background(), phys, nil).mq
	owner, thief := mq.frags[0], mq.frags[1]
	bo, vs := owner.ops[phys.root.partner.id], &thief.vscratch[0]
	owner.process(&activation{op: bo.op, b: build.Columnar(), lo: 0, hi: len(build.Rows)}, 0)
	owner.process(&activation{op: bo.op, closing: true}, 0) // the seal the chain barrier queues

	// price is the reference: the buckets rows [lo,hi) of the probe touch
	// outside paid, and their build rows' bytes; it adds them to paid.
	paid := map[int]bool{}
	price := func(lo, hi int) (n int, bytes int64) {
		for _, k := range mine[lo:hi] {
			if g := int(keyHash64(k) % buckets); !paid[g] {
				paid[g] = true
				n++
				bytes += int64(rowsIn[g]) * nominalTupleBytes
			}
		}
		return n, bytes
	}
	steal := func(lo, hi int) []*activation {
		return []*activation{{op: phys.root, b: probe.Columnar(), lo: lo, hi: hi, dest: 0}}
	}
	half := steal(0, probeRows/2)
	rows := int64(probeRows/2) * nominalTupleBytes
	wantN, wantB := price(0, probeRows/2)
	if est := mq.shipEstimate(thief, phys.root, half, vs); est != rows+wantB {
		t.Fatalf("a first steal is priced at %d B, want %d B of rows and %d B of buckets", est, rows, wantB)
	}
	if n, bytes := thief.acquireBuckets(phys.root, half, true, vs); n != wantN || bytes != wantB {
		t.Fatalf("a first steal acquired %d buckets for %d B, want %d for %d B", n, bytes, wantN, wantB)
	}
	empty := 0
	for g := range thief.ops[phys.root.id].acquired {
		if rowsIn[g] == 0 {
			empty++
		}
	}
	if empty == 0 || empty == wantN {
		t.Fatalf("%d of the %d acquired buckets are empty: the fixture needs both kinds", empty, wantN)
	}
	if est := mq.shipEstimate(thief, phys.root, half, vs); est != rows {
		t.Fatalf("a repeated steal is priced at %d B, want the rows alone (%d B)", est, rows)
	}
	if n, bytes := thief.acquireBuckets(phys.root, half, true, vs); n != 0 || bytes != 0 {
		t.Fatalf("a repeated steal acquired %d buckets for %d B: an acquired bucket is not remembered", n, bytes)
	}
	all := steal(0, probeRows)
	wantN, wantB = price(probeRows/2, probeRows)
	if n, bytes := thief.acquireBuckets(phys.root, all, true, vs); n != wantN || bytes != wantB {
		t.Fatalf("a wider steal acquired %d buckets for %d B, want the %d new ones for %d B", n, bytes, wantN, wantB)
	}
	_, out := thief.processProbeVec(all[0], 0)
	if out == nil || out.N != len(build.Rows) {
		t.Fatalf("the thief's probe of the stolen rows: %+v, want %d matches", out, len(build.Rows))
	}
	if bc := &out.Cols[len(out.Cols)-1]; &bc.I64[0] != &bo.side.store.Cols[1].I64[0] {
		t.Fatal("the stolen rows' output does not select from the owner's sealed store")
	}
}

// TestBuildSidesSealedAtBarrier: every node's build side is sealed before
// the probe chain starts — the chain barrier waits on one seal activation
// per node — a node no key is routed to included. Under total key skew
// onto node 0 with stealing off, no probe activation is ever node 1's,
// and yet node 1's side is sealed, empty, by the time the first probe
// scan row is filtered. Run under -race: the probe scans read both
// nodes' sides without a lock.
func TestBuildSidesSealedAtBarrier(t *testing.T) {
	checkQueryHygiene(t)
	const nodes, stripes, dimRows = 2, 8, 100
	plan := skewPlan(nodes, stripes, 6_000, dimRows).(*Join)
	ns := newNodesT(t, EngineConfig{Nodes: nodes, Workers: 2, Stripes: stripes, DisableStealing: true})
	var h *Handle
	ready := make(chan struct{})
	var unsealed atomic.Int64
	p := *plan
	p.Probe = &Scan{Table: plan.Probe.(*Scan).Table, Filter: func(Row) bool {
		<-ready
		for _, fq := range h.mq.frags {
			if fq.ops[h.mq.phys.root.partner.id].side == nil {
				unsealed.Add(1)
			}
		}
		return true
	}}
	h, err := ns.Submit(context.Background(), &p, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	close(ready)
	got := drainRows(h)
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, nestedJoinHashed(plan))
	if n := unsealed.Load(); n != 0 {
		t.Fatalf("%d probe-scan rows found a node's build side unsealed", n)
	}
	for i, want := range []int{dimRows, 0} {
		if side := h.mq.frags[i].ops[h.mq.phys.root.partner.id].side; side == nil || side.store.N != want {
			t.Fatalf("node %d's build side: %+v, want %d rows sealed", i, side, want)
		}
	}
}

// TestStolenOutputsReferenceOwnerStore: under total key skew onto node
// 0 the starving peer steals probe activations, and what it emits for
// them selects from node 0's sealed store — a stolen activation probes
// its owner's sealed side, no row is copied. The result equals the reference
// with stealing on and off. Run under -race.
func TestStolenOutputsReferenceOwnerStore(t *testing.T) {
	checkQueryHygiene(t)
	const nodes, stripes, factRows, dimRows = 2, 8, 60_000, 500
	plan := skewPlan(nodes, stripes, factRows, dimRows)
	want, _, err := runOnce(context.Background(), plan, nil, EngineConfig{Workers: 4, Stripes: stripes})
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []bool{false, true} {
		ns := newNodesT(t, EngineConfig{Nodes: nodes, Workers: 4, Stripes: stripes, DisableStealing: off})
		var st *Stats
		for attempt := 0; attempt < 5; attempt++ {
			h, err := ns.Submit(context.Background(), plan, nil, "")
			if err != nil {
				t.Fatal(err)
			}
			owner := h.mq.frags[0].ops[h.mq.phys.root.partner.id]
			var got []Row
			var arena vec.Arena
			for b, ok := h.Next(); ok; b, ok = h.Next() {
				// Every key is node 0's: whichever node emitted the
				// batch, its build columns are node 0's sealed columns.
				if bc := &b.Cols[len(b.Cols)-1]; owner.side == nil || &bc.Str[0] != &owner.side.store.Cols[1].Str[0] {
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
	want, _, err := runOnce(context.Background(), plan, nil, EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The build side fits 1.25 times its bytes and not half of them.
	side := sideBytes(plan.(*Join).Build.(*Scan).Table)
	got, st := runGoverned(t, plan, EngineConfig{MemoryPerNode: side * 5 / 4, SpillDir: t.TempDir()})
	sameRows(t, got, want)
	if st.SpilledPartitions != 0 || st.SpillPhases != 0 {
		t.Fatalf("a build that fits its budget spilled: %+v", st)
	}
	got, st = runGoverned(t, plan, EngineConfig{MemoryPerNode: side / 2, SpillDir: t.TempDir()})
	sameRows(t, got, want)
	if st.SpillPhases == 0 {
		t.Fatalf("a build past its budget never transitioned: %+v", st)
	}
}

// TestCancelDuringSeal cancels a query from its build scan's filter once
// it has passed every build row — that is, as the last build batches
// land and the seal activations turn a wide build side into its sealed
// form — on one node and on two. The query must end cancelled (or
// complete, if the seals and the probe chain won the race) with no
// goroutine left, and the engine must still serve.
func TestCancelDuringSeal(t *testing.T) {
	checkQueryHygiene(t)
	const buildRows = 50_000
	plan := widePlan(buildRows, 100_000, 8)
	for _, nodes := range []int{1, 2} {
		ns := newNodesT(t, EngineConfig{Nodes: nodes, Workers: 4})
		for round := 0; round < 3; round++ {
			ctx, cancel := context.WithCancel(context.Background())
			var seen atomic.Int64
			p := *plan
			p.Build = &Scan{Table: plan.Build.(*Scan).Table, Filter: func(Row) bool {
				if seen.Add(1) == buildRows {
					cancel()
				}
				return true
			}}
			h, err := ns.Submit(ctx, &p, nil, "")
			if err != nil {
				t.Fatal(err)
			}
			drain(h)
			if err := h.Err(); err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("%d node(s): %v", nodes, err)
			}
			cancel()
		}
		verifyIdle(t, ns)
	}
}

// TestBuildSideAllocBound is the seal's alloc gate (run by CI): turning
// a finished build side into its sealed form — the parts' rows into
// one store, the store indexed — makes the same handful of allocations
// whether the side holds a thousand rows or a hundred thousand, of two
// distinct keys or all distinct (a column's storage, the index: nothing
// per key, nothing per row), and the index is 12 bytes a row.
func TestBuildSideAllocBound(t *testing.T) {
	for _, n := range []int{1_000, 100_000} {
		for _, distinct := range []int{2, n} {
			q, _ := unsealedFixture(t, dupPlan(n, 1, 2, distinct), nil, EngineConfig{Workers: 1})
			bo := q.ops[q.mq.phys.root.partner.id]
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			err := bo.seal(q.mq)
			runtime.ReadMemStats(&m1)
			side := bo.side
			if err != nil || side.store.N != n {
				t.Fatalf("sealing %d rows: %+v, %v", n, side, err)
			}
			// Per column its Box and its mirror, the batch and its header
			// array, the index and its header: 8 (keys hash on the stack).
			if allocs := m1.Mallocs - m0.Mallocs; allocs > 12 {
				t.Fatalf("sealing %d rows of %d keys made %d allocations, want <= 12", n, distinct, allocs)
			}
			perRow := float64(4*(len(side.heads)+len(side.next))) / float64(n)
			if perRow > 16 {
				t.Fatalf("the index over %d rows takes %.1f B a row, want <= 16", n, perRow)
			}
			t.Logf("%d rows, %d keys: %d allocations, index %.0f B a row", n, distinct, m1.Mallocs-m0.Mallocs, perRow)
		}
	}
}

// TestFragmentAllocsIndependentOfBuckets: a fragment allocates nothing
// per hash bucket — a build side is one part per worker and the buckets
// only route keys between nodes and price steals — so a one-row join
// makes the same allocations, within a KiB, compile to first result, at
// 8 buckets a node and at 256.
func TestFragmentAllocsIndependentOfBuckets(t *testing.T) {
	run := func(stripes int) (mallocs, bytes uint64) {
		plan := widePlan(1, 1, 2)
		plan.Build.(*Scan).Table.Columnar()
		plan.Probe.(*Scan).Table.Columnar()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		q, probes := probeFixture(t, plan, nil, EngineConfig{Workers: 1, Stripes: stripes})
		_, out := q.processProbeVec(probes[0], 0)
		runtime.ReadMemStats(&m1)
		if out == nil || out.N != 1 {
			t.Fatalf("%d buckets: %+v, want the one match", stripes, out)
		}
		return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
	}
	run(8) // the identity table, the test's own lazy state
	m8, b8 := run(8)
	m256, b256 := run(256)
	if m256 != m8 || b256 > b8+1<<10 || b8 > b256+1<<10 {
		t.Fatalf("a one-row join: %d allocations and %d B at 8 buckets, %d and %d B at 256, want the same count and bytes within 1 KiB", m8, b8, m256, b256)
	}
	t.Logf("%d allocations; %d B at 8 buckets, %d B at 256", m8, b8, b256)
}

// BenchmarkJoinProbeGather is the probe kernel alone: a resident
// 100 000-row probe against a sealed 2 000-row build side at three build
// widths, one match per probe row, and — distinct=40 — against 40 keys
// of 50 rows each, 50 matches per probe row down one chain. Per match it
// carves two positions; the build width shows only in the per-batch
// column headers.
func BenchmarkJoinProbeGather(b *testing.B) {
	const buildRows, probeRows = 2_000, 100_000
	for _, tc := range []struct {
		name            string
		width, distinct int
	}{{"width=1", 1, buildRows}, {"width=4", 4, buildRows}, {"width=16", 16, buildRows}, {"distinct=40", 4, 40}} {
		b.Run(tc.name, func(b *testing.B) {
			fan := buildRows / tc.distinct
			q, probes := probeFixture(b, dupPlan(buildRows, probeRows, tc.width, tc.distinct), nil, EngineConfig{Workers: 1, Batch: 1024})
			run := func() {
				for _, a := range probes {
					if _, out := q.processProbeVec(a, 0); out.N != (a.hi-a.lo)*fan {
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
			matches := float64(probeRows*fan) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/matches, "ns/match")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/matches, "B/match")
		})
	}
}

// BenchmarkSealIndex is the seal alone — four workers' parts
// concatenated into one store and the store indexed — over build sides
// of 2 000 and 200 000 two-column rows keyed by distinct ints or strings.
// The seal is one activation per node, between the build and the probe
// chain, so on a large build side this is latency the barrier adds once.
func BenchmarkSealIndex(b *testing.B) {
	for _, n := range []int{2_000, 200_000} {
		for _, kind := range []string{"int", "string"} {
			b.Run(fmt.Sprintf("rows=%d/key=%s", n, kind), func(b *testing.B) {
				key := func(i int) any { return i }
				if kind == "string" {
					key = func(i int) any { return fmt.Sprintf("key-%08d", i) }
				}
				plan := &Join{Build: &Scan{Table: tbl("b", n, key, func(i int) any { return i })},
					Probe: &Scan{Table: tbl("p", 1, key, key)}}
				var m0, m1 runtime.MemStats
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer() // the build is the fixture's, the seal is what is timed
					q, _ := unsealedFixture(b, plan, nil, EngineConfig{Workers: 4})
					bo := q.ops[q.mq.phys.root.partner.id]
					runtime.ReadMemStats(&m0)
					b.StartTimer()
					err := bo.seal(q.mq)
					b.StopTimer()
					runtime.ReadMemStats(&m1)
					if err != nil || bo.side.store.N != n {
						b.Fatalf("sealed %+v, %v", bo.side, err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*b.N), "ns/row")
				b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n), "B/row")
			})
		}
	}
}
