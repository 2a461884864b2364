package exec

// Tests for the per-node memory broker: deterministic grant/deny/trim
// arithmetic, the race-stressed invariant that the sum of all
// outstanding leases always equals the broker's granted total and never
// exceeds its budget, and concurrent queries sharing one node's bytes.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"hierdb/internal/vec"
	"hierdb/internal/xrand"
)

// TestBrokerGrantDenyTrim walks one lease through the broker's
// arithmetic: chunk-padded grants, denial on shortfall (with nothing
// leaked), trim hysteresis, and releaseAll returning everything.
func TestBrokerGrantDenyTrim(t *testing.T) {
	b := &memBroker{budget: 4 * leaseChunk}
	var l memLease

	if !b.topUp(&l, 10) {
		t.Fatal("topUp(10) denied with an empty pool")
	}
	if g := l.granted.Load(); g != 10+leaseChunk {
		t.Fatalf("lease after topUp(10) = %d, want need+chunk = %d", g, 10+leaseChunk)
	}
	// Within the lease: no broker traffic, still granted.
	if !b.topUp(&l, leaseChunk) {
		t.Fatal("topUp within lease denied")
	}
	// Beyond the budget: denied, and the denial must leak nothing.
	before := b.available()
	if b.topUp(&l, 5*leaseChunk) {
		t.Fatal("topUp beyond budget granted")
	}
	if after := b.available(); after != before {
		t.Fatalf("denied topUp moved available from %d to %d", before, after)
	}
	// Growing to exactly the budget succeeds (grant capped at avail).
	if !b.topUp(&l, 4*leaseChunk) {
		t.Fatal("topUp to exactly the budget denied")
	}
	if avail := b.available(); avail != 0 {
		t.Fatalf("available after full grant = %d, want 0", avail)
	}
	// Usage collapses: trim keeps one chunk of slack, frees the rest.
	b.trim(&l, 10)
	if g := l.granted.Load(); g != 10+leaseChunk {
		t.Fatalf("lease after trim(10) = %d, want used+chunk = %d", g, 10+leaseChunk)
	}
	// Within the hysteresis band trim is a no-op.
	g := l.granted.Load()
	b.trim(&l, g-leaseChunk)
	if l.granted.Load() != g {
		t.Fatal("trim inside the hysteresis band shrank the lease")
	}
	b.releaseAll(&l)
	if g := l.granted.Load(); g != 0 {
		t.Fatalf("lease after releaseAll = %d, want 0", g)
	}
	if avail := b.available(); avail != b.budget {
		t.Fatalf("available after releaseAll = %d, want full budget %d", avail, b.budget)
	}
}

// TestBrokerLeaseInvariant race-stresses the broker with concurrent
// fragments growing, shrinking, spilling (denied top-ups) and retiring,
// while a checker repeatedly asserts the conservation invariant: the
// sum of all leases equals granted, and granted never exceeds the
// budget. Run under -race this is the broker's concurrency check.
func TestBrokerLeaseInvariant(t *testing.T) {
	const fragments = 8
	const iters = 2000
	budget := int64(fragments) * 3 * leaseChunk // contended: ~3 chunks each
	b := &memBroker{budget: budget}
	leases := make([]memLease, fragments)

	stop := make(chan struct{})
	checkErr := make(chan error, 1)
	go func() {
		defer close(checkErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Lease stores happen under b.mu, so holding it snapshots
			// the whole system consistently.
			b.mu.Lock()
			var sum int64
			for i := range leases {
				sum += leases[i].granted.Load()
			}
			granted := b.granted
			b.mu.Unlock()
			if sum != granted || granted < 0 || granted > budget {
				checkErr <- &brokerInvariantError{sum: sum, granted: granted, budget: budget}
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for f := 0; f < fragments; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			r := xrand.New(uint64(f) + 1)
			l := &leases[f]
			var used int64
			for i := 0; i < iters; i++ {
				switch r.Intn(4) {
				case 0, 1: // grow, possibly denied (the spill decision)
					used += r.Int63n(leaseChunk) + 1
					if !b.topUp(l, used) {
						// Denied: the fragment spills, usage collapses.
						used = used / 4
						b.trim(l, used)
					}
				case 2: // shrink and trim
					used = used / 2
					b.trim(l, used)
				case 3: // fragment retires and a new one reuses the slot
					b.releaseAll(l)
					used = 0
				}
			}
			b.releaseAll(l)
		}(f)
	}
	wg.Wait()
	close(stop)
	if err, ok := <-checkErr; ok && err != nil {
		t.Fatal(err)
	}
	if avail := b.available(); avail != budget {
		t.Fatalf("available after all fragments retired = %d, want %d", avail, budget)
	}
}

// brokerInvariantError reports a conservation violation snapshot.
type brokerInvariantError struct {
	sum, granted, budget int64
}

func (e *brokerInvariantError) Error() string {
	return fmt.Sprintf("broker invariant violated: sum(leases)=%d granted=%d budget=%d",
		e.sum, e.granted, e.budget)
}

// TestConcurrentQueriesShareNodeMemory: a node's budget is one account
// its in-flight queries share. Query A's build side stays charged while
// A's consumer stops reading mid-stream, so query B — whose build fits
// the budget on its own — finds the rest of the node's bytes too few and
// spills. Both return the ungoverned result, and once both retire the
// node's broker has nothing leased.
func TestConcurrentQueriesShareNodeMemory(t *testing.T) {
	checkQueryHygiene(t)
	const budget = 640 << 10 // a build row costs ≈ 110 B: 3 000 rows ≈ 330 KiB, 4 000 ≈ 440 KiB
	planA, planB := govPlan(3_000, 200_000), govPlan(4_000, 8_000)
	wantA, _, err := runOnce(context.Background(), planA, nil, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wantB, _, err := runOnce(context.Background(), planB, nil, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := EngineConfig{Workers: 2, MemoryPerNode: budget, SpillDir: t.TempDir()}
	if _, alone, err := runOnce(context.Background(), planB, nil, cfg); err != nil || alone.SpilledPartitions != 0 {
		t.Fatalf("B alone under the budget: %+v, %v — the fixture wants it to fit", alone, err)
	}

	ns := newNodesT(t, cfg)
	hA, err := ns.Submit(context.Background(), planA, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	first, ok := hA.Next() // A is probing: its build side is sealed and charged
	if !ok {
		t.Fatalf("A delivered nothing: %v", hA.Err())
	}
	var arena vec.Arena
	gotA := first.AppendRows(nil, &arena)
	if used := hA.mq.frags[0].memUsed.Load(); used < 256<<10 {
		t.Fatalf("A's resident build side holds %d charged bytes mid-stream, want its ≈ 330 KiB", used)
	}

	hB, err := ns.Submit(context.Background(), planB, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, collectHandle(t, hB), wantB)
	if st := hB.Stats(); st.SpilledPartitions == 0 {
		t.Fatalf("B did not spill beside A's charged build side: %+v", st)
	}

	for b, ok := hA.Next(); ok; b, ok = hA.Next() {
		gotA = b.AppendRows(gotA, &arena)
	}
	if err := hA.Err(); err != nil {
		t.Fatal(err)
	}
	sameRows(t, gotA, wantA)
	if b := ns.pools[0].broker; b.available() != b.budget {
		t.Fatalf("%d of %d broker bytes still leased after both queries retired", b.budget-b.available(), b.budget)
	}
}
