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
// a one-node query — engine, coordinator and fragment from the engine's
// own constructors, no worker started — that is never scheduled. Every
// chain is driven to completion on worker 0, in chain order (builds
// before the probes that read them), except the root join's probe, whose
// input activations are returned instead of processed. gb, when set, is
// the group-by the root folds into.
func probeFixture(t testing.TB, plan Node, gb *GroupBy, cfg EngineConfig) (q *query, probes []*activation) {
	t.Helper()
	phys, err := compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := newNodes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q = ns.newQuery(phys, gb).mq.frags[0]
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
		got, _, err := runOnce(context.Background(), plan, nil, EngineConfig{Workers: workers, Batch: batch})
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
	q, probes := probeFixture(t, widePlan(buildRows, probeRows, width), nil, EngineConfig{Workers: 1})
	bo := q.ops[q.mq.phys.root.partner.id]
	var sealed *vec.Batch
	rows := 0
	for _, a := range probes {
		_, out := q.processProbeVec(a, 0)
		if sealed == nil {
			if bo.side == nil || bo.side.store.N != buildRows {
				t.Fatalf("first probe left the build side unsealed: %+v", bo.side)
			}
			sealed = bo.side.store
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
	for _, ap := range bo.stripes {
		if ap != nil {
			t.Fatal("a stripe outlived the seal")
		}
	}
}

// TestSealSingleFlight: every worker entering the first probe at once,
// the build side is sealed exactly once — all outputs select from one
// store — and the join is still right. Run under -race.
func TestSealSingleFlight(t *testing.T) {
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
// it) is cut at the first row of the second store: the rows before it
// become an output over the first store, the rest an activation of its
// own, and together they are the whole join.
func TestProbeCutsAtSecondStore(t *testing.T) {
	const buildRows, probeRows = 64, 256
	plan := widePlan(buildRows, probeRows, 2)
	q, probes := probeFixture(t, plan, nil, EngineConfig{Workers: 1, Stripes: 4, Batch: probeRows})
	root := q.mq.phys.root
	own, err := q.ops[root.partner.id].seal(&q.vscratch[0])
	if err != nil {
		t.Fatal(err)
	}
	// Pretend the engine has a second node owning the odd buckets, whose
	// sealed side — a store of its own holding the same rows — this node
	// has acquired.
	q.mq.n, q.mq.buckets = 2, 2*4
	theirs := *own
	theirs.store = &vec.Batch{Cols: append([]vec.Col(nil), own.store.Cols...), N: own.store.N}
	cache := bucketCache{1: &theirs, 3: &theirs, 5: &theirs, 7: &theirs}
	q.ops[root.id].cache.Store(&cache)

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
// a store past that is refused with ErrBuildTooLarge before a slot is
// allocated, not indexed with wrapped positions.
func TestBuildTooLargeIsTypedError(t *testing.T) {
	var vs vecScratch
	if _, err := sealStore(&vec.Batch{N: math.MaxInt32 + 1}, 0, &vs); !errors.Is(err, ErrBuildTooLarge) {
		t.Fatalf("sealing 2^31 rows: %v, want ErrBuildTooLarge", err)
	}
}

// sealKeys seals a one-column store holding keys (columnized as FromRows
// resolves them; boxless drops a typed column's Box on the probe side
// only — a store keeps its own).
func sealKeys(t *testing.T, keys ...any) *buildSide {
	t.Helper()
	rows := make([]Row, len(keys))
	for i, k := range keys {
		rows[i] = Row{k}
	}
	ap := vec.NewAppender(nil, 0)
	ap.AppendBatch(vec.FromRows(rows))
	bs, err := sealStore(ap.Batch(), 0, new(vecScratch))
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// matches probes bs with each key and returns, per key, the store
// positions matched in the order the chain walk reported them.
func matches(bs *buildSide, boxless bool, keys ...any) [][]int32 {
	rows := make([]Row, len(keys))
	for i, k := range keys {
		rows[i] = Row{k}
	}
	pb := vec.FromRows(rows)
	kc := &pb.Cols[0]
	if boxless && kc.Kind != vec.Any {
		kc.Box = nil
	}
	var vs vecScratch
	hs := keyHashes(pb, 0, &vs)
	out := make([][]int32, len(keys))
	for i := range keys {
		bs.match(&vs, kc, i, hs[i])
	}
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
		for _, boxless := range []bool{false, true} {
			for i, ps := range matches(bs, boxless, keys...) {
				if len(ps) != 1 || int(ps[0]) != i {
					t.Fatalf("key %v (boxless probe %v) matched %v, want [%d]", keys[i], boxless, ps, i)
				}
			}
		}
		eq(t, matches(bs, false, "k1", "absent", ""), nil, nil, nil)
	})
	t.Run("duplicates ascend", func(t *testing.T) {
		keys := make([]any, 2_100)
		for i := range keys {
			keys[i] = i % 7 // more rows than one hashing chunk, 300 a key
		}
		bs := sealKeys(t, keys...)
		for k, ps := range matches(bs, true, 0, 1, 2, 3, 4, 5, 6) {
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
			for _, boxless := range []bool{false, true} {
				eq(t, matches(bs, boxless, nil, keys[0], keys[2]), []int32{1, 3}, []int32{0, 4}, []int32{2})
			}
		}
	})
	t.Run("kinds do not cross", func(t *testing.T) {
		ints := sealKeys(t, 5, 6, 5)
		eq(t, matches(ints, true, int64(5), int32(5), uint64(5), 5.0, "5", 5), nil, nil, nil, nil, nil, []int32{0, 2})
		eq(t, matches(ints, true, int64(5), nil), nil, nil) // a typed column of another kind
		mixed := sealKeys(t, 5, int64(5), "5", 5.0, nil, true)
		for _, boxless := range []bool{false, true} {
			eq(t, matches(mixed, boxless, 5), []int32{0})
			eq(t, matches(mixed, boxless, int64(5)), []int32{1})
			eq(t, matches(mixed, boxless, "5"), []int32{2})
			eq(t, matches(mixed, boxless, 5.0), []int32{3})
			eq(t, matches(mixed, boxless, true, false), []int32{5}, nil)
		}
		eq(t, matches(mixed, false, int64(5), 5, nil, uint64(5)), []int32{1}, []int32{0}, []int32{4}, nil)
	})
	t.Run("floats", func(t *testing.T) {
		negZero := math.Copysign(0, -1)
		bs := sealKeys(t, math.NaN(), 0.0, negZero, 1.5, math.NaN())
		for _, boxless := range []bool{false, true} {
			eq(t, matches(bs, boxless, math.NaN(), negZero, 0.0, 1.5), nil, []int32{1, 2}, []int32{1, 2}, []int32{3})
		}
		anyStore := sealKeys(t, math.NaN(), 0.0, negZero, "x")
		eq(t, matches(anyStore, true, math.NaN(), negZero), nil, []int32{1, 2})
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

// TestEmptyRemoteBucketAcquiredOnce: a thief caches the owner's sealed
// side under every remote bucket its stolen rows hash to, whether the
// bucket holds build rows or not — so a second steal of rows for the
// same buckets acquires, and prices, nothing.
func TestEmptyRemoteBucketAcquiredOnce(t *testing.T) {
	const stripes = 8
	mine := keysOwnedBy(0, 2, stripes, 40)
	plan := &Join{Build: &Scan{Table: tbl("b", 1, func(int) any { return mine[0] }, func(int) any { return "x" })},
		Probe: &Scan{Table: tbl("p", len(mine), func(i int) any { return mine[i] }, func(i int) any { return i })}}
	phys, err := compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := newNodes(EngineConfig{Nodes: 2, Workers: 1, Stripes: stripes})
	if err != nil {
		t.Fatal(err)
	}
	mq := &ns.newQuery(phys, nil).mq
	owner, thief := mq.frags[0], mq.frags[1]
	// Node 0 builds its one row; its other buckets stay empty.
	build := phys.root.partner
	owner.process(&activation{op: build, b: columnize(plan.Build.(*Scan).Table), lo: 0, hi: 1}, 0)
	stolen := []*activation{{op: phys.root, b: columnize(plan.Probe.(*Scan).Table), lo: 0, hi: len(mine)}}
	copied, bytes := thief.acquireBuckets(phys.root, stolen)
	if copied < 2 || copied > stripes || bytes != nominalTupleBytes {
		t.Fatalf("first steal acquired %d buckets for %d B, want every bucket the rows touch (2..%d) and one build row's bytes", copied, bytes, stripes)
	}
	cache := *thief.ops[phys.root.id].cache.Load()
	for g, side := range cache {
		if side == nil || side != owner.ops[build.id].side || side.store.N != 1 {
			t.Fatalf("bucket %d is cached as %+v, want the owner's sealed side", g, side)
		}
	}
	if again, bytes := thief.acquireBuckets(phys.root, stolen); again != 0 || bytes != 0 {
		t.Fatalf("second steal acquired %d buckets for %d B: an empty bucket is not remembered", again, bytes)
	}
	if est := mq.shipEstimate(thief, phys.root, stolen); est != int64(len(mine))*nominalTupleBytes {
		t.Fatalf("a steal with every bucket cached is priced at %d B, want the rows alone", est)
	}
	_, out := thief.processProbeVec(stolen[0], 0)
	if out == nil || out.N != 1 {
		t.Fatalf("the thief's probe of the stolen rows: %+v, want the one match", out)
	}
}

// TestStolenOutputsReferenceOwnerStore: under total key skew onto node
// 0 the starving peer steals probe activations, and what it emits for
// them selects from node 0's sealed store — the thief caches the
// owner's sealed side, it copies no rows. The result equals the reference
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
	// ~5000 rows × (24 + 2×16 + ~5 string bytes + 48 entry) ≈ 550 KiB.
	got, st := runGoverned(t, plan, EngineConfig{MemoryPerNode: 640 << 10, SpillDir: t.TempDir()})
	sameRows(t, got, want)
	if st.SpilledPartitions != 0 || st.SpillPhases != 0 {
		t.Fatalf("a build that fits its budget spilled: %+v", st)
	}
	got, st = runGoverned(t, plan, EngineConfig{MemoryPerNode: 256 << 10, SpillDir: t.TempDir()})
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
		ns := newNodesT(t, EngineConfig{Nodes: nodes, Workers: 4})
		for round := 0; round < 3; round++ {
			ctx, cancel := context.WithCancel(context.Background())
			var once sync.Once
			p := *plan
			p.Probe = &Scan{Table: plan.Probe.(*Scan).Table, Filter: func(Row) bool {
				once.Do(cancel)
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
// a finished build side into its sealed form — the stripes' rows into
// one store, the store indexed — makes the same handful of allocations
// whether the side holds a thousand rows or a hundred thousand, of two
// distinct keys or all distinct (a column's storage, the index: nothing
// per key, nothing per row), and the index is 12 bytes a row.
func TestBuildSideAllocBound(t *testing.T) {
	for _, n := range []int{1_000, 100_000} {
		for _, distinct := range []int{2, n} {
			q, _ := probeFixture(t, dupPlan(n, 1, 2, distinct), nil, EngineConfig{Workers: 1})
			bo := q.ops[q.mq.phys.root.partner.id]
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			side, err := bo.seal(&q.vscratch[0])
			runtime.ReadMemStats(&m1)
			if err != nil || side.store.N != n {
				t.Fatalf("sealing %d rows: %+v, %v", n, side, err)
			}
			// Per column its Box and its mirror, the batch and its header
			// array, the index and its header, the hash scratch: 9.
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

// TestFragmentAllocsIndependentOfStripes: a stripe costs nothing until a
// row is routed to it, so a one-row join makes the same number of
// allocations — compile to first result — at 8 stripes and at 256. What
// grows is four arrays with an element per stripe: the fragment's
// stripes, locks and row counts, and the worker's routing lists.
func TestFragmentAllocsIndependentOfStripes(t *testing.T) {
	run := func(stripes int) (mallocs, bytes uint64) {
		plan := widePlan(1, 1, 2)
		columnize(plan.Build.(*Scan).Table)
		columnize(plan.Probe.(*Scan).Table)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		q, probes := probeFixture(t, plan, nil, EngineConfig{Workers: 1, Stripes: stripes})
		_, out := q.processProbeVec(probes[0], 0)
		runtime.ReadMemStats(&m1)
		if out == nil || out.N != 1 {
			t.Fatalf("%d stripes: %+v, want the one match", stripes, out)
		}
		return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
	}
	run(8) // the identity table, the test's own lazy state
	m8, b8 := run(8)
	m256, b256 := run(256)
	// 8 B a stripe for each of the fragment's three arrays, 24 B for a
	// routing list's header; half as much again for size-class rounding.
	if per := (8 + 8 + 8 + 24) * (256 - 8) * 3 / 2; m256 != m8 || b256 > b8+uint64(per) {
		t.Fatalf("a one-row join: %d allocations and %d B at 8 stripes, %d and %d B at 256, want the same count and <= %d B more", m8, b8, m256, b256, per)
	}
	t.Logf("%d allocations; %d B at 8 stripes, %d B at 256", m8, b8, b256)
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

// BenchmarkSealIndex is the seal alone — the stripes' rows concatenated
// into one store and the store indexed — over build sides of 2 000 and
// 200 000 two-column rows keyed by distinct ints or strings. The seal is
// serial (one worker seals, the others wait on it), so on a large build
// side this is latency every probe worker pays once.
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
					q, _ := probeFixture(b, plan, nil, EngineConfig{Workers: 1})
					bo := q.ops[q.mq.phys.root.partner.id]
					runtime.ReadMemStats(&m0)
					b.StartTimer()
					side, err := bo.seal(&q.vscratch[0])
					b.StopTimer()
					runtime.ReadMemStats(&m1)
					if err != nil || side.store.N != n {
						b.Fatalf("sealed %+v, %v", side, err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*b.N), "ns/row")
				b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n), "B/row")
			})
		}
	}
}
