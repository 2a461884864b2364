package exec

// Tests for the one price of held memory: what the node account is
// charged for a build side or a group partial matches the live heap it
// holds, and no refund exceeds its charge.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"hierdb/internal/vec"
)

// chargeKeys are the key kinds the price is pinned for: each makes key
// i of a k-row column. The Any column mixes int64 and string keys.
var chargeKeys = []struct {
	name string
	key  func(i int) any
}{
	{"int64", func(i int) any { return int64(i)*7919 + 1000 }},
	{"float64", func(i int) any { return float64(i)*1.5 + 0.25 }},
	{"string", func(i int) any { return fmt.Sprintf("key-%08d", i) }},
	{"any", func(i int) any {
		if i%2 == 0 {
			return int64(i) + 1000
		}
		return fmt.Sprintf("key-%08d", i)
	}},
}

// liveHeap returns the live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// chargeBatches columnizes k fresh rows [key(i), int64 payload] in
// batches of batch rows: storage no other structure holds.
func chargeBatches(k, batch int, key func(int) any) []*vec.Batch {
	var out []*vec.Batch
	for lo := 0; lo < k; lo += batch {
		rows := make([]Row, 0, batch)
		for i := lo; i < min(lo+batch, k); i++ {
			rows = append(rows, Row{key(i), int64(i)})
		}
		out = append(out, vec.FromRows(rows))
	}
	return out
}

// sealCharged builds a sealed build side from k fresh rows the way a
// governed build does — each batch appended whole to its worker's part
// (grown from empty: a presize is capacity no row was charged for) and
// charged buildBytes, the parts concatenated and indexed at the seal —
// and returns it with the bytes charged.
func sealCharged(t *testing.T, k, workers int, key func(int) any) (*buildSide, int64) {
	parts := make([]*vec.Appender, workers)
	var charged int64
	for i, b := range chargeBatches(k, 1024, key) {
		w := i % workers
		if parts[w] == nil {
			parts[w] = vec.NewAppender(nil, 0)
		}
		parts[w].AppendBatch(b)
		charged += buildBytes(b)
	}
	side, err := sealStore(vec.Concat(parts), 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return side, charged
}

// groupCharged folds k fresh keys into a group partial of two
// aggregates, charged as governGroupPartial charges it — the groups
// added since the last charge, after every batch — and returns it with
// the bytes charged.
func groupCharged(k int, key func(int) any) (*groupTable, int64) {
	var t *groupTable
	var charged int64
	priced := 0
	for _, b := range chargeBatches(k, 1024, key) {
		if t == nil {
			t = newGroupTable([]Aggregation{{Func: Count}, {Func: Sum}}, b.Cols[0].Kind)
		}
		gs := make([]int32, b.N)
		t.resolve(&b.Cols[0], 0, make([]uint64, b.N), gs)
		for i, g := range gs {
			t.n[g]++
			t.fold(1, g, float64(i))
		}
		charged += t.bytes(priced)
		priced = t.groups()
	}
	return t, charged
}

// sideBytes is what a build side of tb's rows is charged: their
// columns' bytes and the sealed index's (buildBytes).
func sideBytes(tb *Table) int64 { return buildBytes(tb.Columnar()) }

// withinQuarter fails unless charged is within ±25 % of the heap growth.
func withinQuarter(t *testing.T, what string, charged, growth int64) {
	t.Helper()
	r := float64(charged) / float64(growth)
	t.Logf("%s: charged %d B, heap growth %d B (×%.2f)", what, charged, growth, r)
	if math.Abs(r-1) > 0.25 {
		t.Errorf("%s: charged %d B for a heap growth of %d B (×%.2f), want within ±25 %%", what, charged, growth, r)
	}
}

// TestChargeMatchesHeap pins the memory price to the heap. For int64,
// float64, string and Any keys, a sealed build side of k rows — built
// from one part and from four — is charged within ±25 % of the live
// heap it holds: HeapAlloc after a collection with the side retained,
// less HeapAlloc after one without it. A group partial of k groups
// meets the same bound.
func TestChargeMatchesHeap(t *testing.T) {
	const k = 1 << 15
	for _, kc := range chargeKeys {
		for _, workers := range []int{1, 4} {
			side, charged := sealCharged(t, k, workers, kc.key)
			held := liveHeap()
			runtime.KeepAlive(side)
			side = nil
			withinQuarter(t, fmt.Sprintf("%s build side, %d parts", kc.name, workers), charged, held-liveHeap())
		}
		gt, charged := groupCharged(k, kc.key)
		held := liveHeap()
		runtime.KeepAlive(gt)
		gt = nil
		withinQuarter(t, kc.name+" group partial", charged, held-liveHeap())
	}
}

// TestRefundNeverExceedsCharge: a governed build fed batches of its
// compile-time schema — int keys, string payloads — crosses its budget
// and transitions to spill. The transition refunds what each part was
// charged, no more: after every batch the fragment's memUsed reads its
// charges less its refunds and is never negative, and the node's account
// reads 0 once the fragment retires and after Close.
func TestRefundNeverExceedsCharge(t *testing.T) {
	const workers, batches, rows = 2, 12, 64
	payload := func(i int) any { return fmt.Sprintf("s%d", i) }
	build := tbl("rb", 1, func(i int) any { return i }, payload)
	probe := tbl("rp", 1, func(i int) any { return i }, payload)
	phys, err := compile(&Join{Build: &Scan{Table: build}, Probe: &Scan{Table: probe}})
	if err != nil {
		t.Fatal(err)
	}
	in := make([]*vec.Batch, batches)
	for j := range in {
		rs := make([]Row, rows)
		for i := range rs {
			k := j*rows + i
			rs[i] = Row{k, payload(k)}
		}
		in[j] = vec.FromRows(rs)
	}
	// The eighth batch, the fourth on each part, crosses the budget.
	var budget int64
	for _, b := range in[:8] {
		budget += buildBytes(b)
	}
	ns := newNodesT(t, EngineConfig{Workers: workers, MemoryPerNode: budget - 1, SpillDir: t.TempDir()})
	q := ns.newQuery(context.Background(), phys, nil).mq.frags[0]
	bop := phys.root.partner
	or := q.ops[bop.id]
	var want int64 // charges less refunds
	for j, b := range in {
		if err := q.processBuild(&activation{op: bop, b: b, lo: 0, hi: b.N}, j%workers); err != nil {
			t.Fatal(err)
		}
		if spilled := or.spill.active.Load(); spilled != (j >= 7) {
			t.Fatalf("batch %d: spilled %v, want the transition at batch 7", j, spilled)
		}
		if want += buildBytes(b); j >= 7 {
			want = 0 // the transition refunded every charged row; later rows spill uncharged
		}
		if used := q.memUsed.Load(); used != want || used < 0 {
			t.Fatalf("batch %d: memUsed %d, want charges less refunds %d", j, used, want)
		}
	}
	q.finalize()
	if used := ns.pools[0].mem.used.Load(); used != 0 {
		t.Fatalf("node account %d bytes after the fragment retired", used)
	}
}
