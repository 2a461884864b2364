package exec

// Tests for the admission controller: the Close-wakes-parked-Submit
// regression (the bug that motivated replacing the channel semaphores),
// round-robin fairness across tenants, context cancellation while
// parked, queue-full rejection, and admission-before-compile ordering.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitQueued spins until the admitter reports n parked waiters.
func waitQueued(t *testing.T, ad *admitter, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ad.queued() != n {
		if time.Now().After(deadline) {
			t.Fatalf("admitter never reached %d queued waiters (have %d)", n, ad.queued())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestAdmitterRoundRobinFairness parks a1, b1, a2, a3 behind one busy
// slot and checks grants interleave tenants round-robin (FIFO within
// one): a1, b1, a2, a3 — tenant b's single waiter is not starved behind
// tenant a's backlog despite arriving second.
func TestAdmitterRoundRobinFairness(t *testing.T) {
	ad := newAdmitter(1, 0)
	if _, err := ad.acquire(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}

	order := make(chan string, 4)
	var wg sync.WaitGroup
	park := func(label, tenant string, queued int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ad.acquire(context.Background(), tenant); err != nil {
				t.Errorf("%s: %v", label, err)
				return
			}
			order <- label
			ad.release()
		}()
		waitQueued(t, ad, queued)
	}
	park("a1", "a", 1)
	park("b1", "b", 2)
	park("a2", "a", 3)
	park("a3", "a", 4)

	ad.release() // hand the slot down the queue
	wg.Wait()
	close(order)
	var got []string
	for l := range order {
		got = append(got, l)
	}
	want := "a1 b1 a2 a3"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("grant order %q, want %q", s, want)
	}
	// Everything released: the fast path is free again.
	if wait, err := ad.acquire(context.Background(), ""); err != nil || wait != 0 {
		t.Fatalf("post-drain acquire = (%v, %v), want immediate grant", wait, err)
	}
}

// TestAdmitterCtxCancelWhileParked cancels a parked waiter's context
// and checks it unparks with ctx.Err() and leaves no queue residue.
func TestAdmitterCtxCancelWhileParked(t *testing.T) {
	ad := newAdmitter(1, 0)
	if _, err := ad.acquire(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := ad.acquire(ctx, "x")
		errc <- err
	}()
	waitQueued(t, ad, 1)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter never unparked")
	}
	if n := ad.queued(); n != 0 {
		t.Fatalf("%d waiters still queued after cancel", n)
	}
	// The abandoned waiter must not have consumed the slot handed back.
	ad.release()
	if _, err := ad.acquire(context.Background(), ""); err != nil {
		t.Fatalf("acquire after cancel+release: %v", err)
	}
}

// TestAdmitterQueueFull checks fast rejection once the wait queue is at
// capacity: with one slot and a one-deep queue, the third acquire fails
// immediately with ErrAdmissionQueueFull.
func TestAdmitterQueueFull(t *testing.T) {
	ad := newAdmitter(1, 1)
	if _, err := ad.acquire(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	go func() {
		if _, err := ad.acquire(context.Background(), ""); err != nil {
			t.Errorf("parked waiter: %v", err)
			return
		}
		ad.release()
	}()
	waitQueued(t, ad, 1)
	if _, err := ad.acquire(context.Background(), ""); !errors.Is(err, ErrAdmissionQueueFull) {
		t.Fatalf("over-capacity acquire = %v, want ErrAdmissionQueueFull", err)
	}
	ad.release()
}

// TestAdmitterCloseSettlesWaiters closes the admitter with parked
// waiters and checks every one fails with ErrClosed, as do future
// acquires.
func TestAdmitterCloseSettlesWaiters(t *testing.T) {
	ad := newAdmitter(1, 0)
	if _, err := ad.acquire(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 2)
	for i := 0; i < 2; i++ {
		tenant := string(rune('a' + i))
		go func() {
			_, err := ad.acquire(context.Background(), tenant)
			errc <- err
		}()
	}
	waitQueued(t, ad, 2)
	ad.close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("parked waiter got %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("parked waiter never unparked after close")
		}
	}
	if _, err := ad.acquire(context.Background(), ""); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close = %v, want ErrClosed", err)
	}
}

// TestCloseFailsParkedSubmit is the regression test for the admission
// hang this controller replaced: a Submit parked behind a full
// semaphore on a context.Background() call used to select only on the
// semaphore channel, so Close never woke it. Now Close must fail the
// parked Submit with ErrClosed within 100ms, with no goroutine leaked —
// at any node count, admission being the engine's one layer.
func TestCloseFailsParkedSubmit(t *testing.T) {
	for _, nodes := range []int{1, 2} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			checkQueryHygiene(t)
			ns, err := NewNodesConfig(EngineConfig{Nodes: nodes, Workers: 2, MaxConcurrentQueries: 1})
			if err != nil {
				t.Fatal(err)
			}
			// h1 holds the only slot; its sink backpressure keeps it in
			// flight until Close aborts it.
			h1, err := ns.Submit(context.Background(), starPlan(40, 300_000), nil, "")
			if err != nil {
				t.Fatal(err)
			}
			type parked struct {
				err error
				at  time.Time
			}
			done := make(chan parked, 1)
			go func() {
				_, err := ns.Submit(context.Background(), starPlan(41, 10), nil, "parked")
				done <- parked{err: err, at: time.Now()}
			}()
			waitQueued(t, ns.admit, 1)

			closedAt := time.Now()
			go ns.Close() // Close also drains h1; run it alongside the assert
			select {
			case p := <-done:
				if !errors.Is(p.err, ErrClosed) {
					t.Fatalf("parked Submit returned %v, want ErrClosed", p.err)
				}
				if d := p.at.Sub(closedAt); d > 100*time.Millisecond {
					t.Fatalf("parked Submit took %v after Close, want <= 100ms", d)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("parked Submit still blocked 5s after Close — the hang this test guards against")
			}
			drain(h1)
			if err := h1.Err(); !errors.Is(err, ErrClosed) {
				t.Fatalf("aborted in-flight query reported %v, want ErrClosed", err)
			}
		})
	}
}

// TestAdmissionPrecedesCompile checks Submit takes its admission slot
// before compiling the plan, so parked queries pin no compiled state:
// with the queue at capacity, even a plan that cannot compile (a Scan
// with no table — past the cheap nil-argument check, failed only by
// compile) is rejected with ErrAdmissionQueueFull (admission saw it
// first); once a slot frees, the same bad plan fails compile and
// releases its slot.
func TestAdmissionPrecedesCompile(t *testing.T) {
	checkQueryHygiene(t)
	pool, err := NewNodesConfig(EngineConfig{Workers: 2, MaxConcurrentQueries: 1, AdmissionQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	h1, err := pool.Submit(context.Background(), starPlan(44, 300_000), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	fillerErr := make(chan error, 1)
	go func() {
		h, err := pool.Submit(context.Background(), starPlan(45, 10), nil, "")
		if err == nil {
			drain(h)
			err = h.Err()
		}
		fillerErr <- err
	}()
	waitQueued(t, pool.admit, 1)

	// Queue full: the uncompilable plan is turned away by admission,
	// not compile.
	if _, err := pool.Submit(context.Background(), &Scan{}, nil, ""); !errors.Is(err, ErrAdmissionQueueFull) {
		t.Fatalf("Submit(bad plan) with full queue = %v, want ErrAdmissionQueueFull", err)
	}

	// Free the slot; the filler runs, then compile failures surface —
	// and must release their slot for the next valid Submit.
	drain(h1)
	if err := h1.Err(); err != nil {
		t.Fatal(err)
	}
	if err := <-fillerErr; err != nil {
		t.Fatalf("filler query: %v", err)
	}
	if _, err := pool.Submit(context.Background(), &Scan{}, nil, ""); err == nil || !strings.Contains(err.Error(), "scan without table") {
		t.Fatalf("Submit(bad plan) with free slot = %v, want compile error", err)
	}
	h3, err := pool.Submit(context.Background(), starPlan(46, 1000), nil, "")
	if err != nil {
		t.Fatalf("Submit after compile failure did not get the slot back: %v", err)
	}
	drain(h3)
	if err := h3.Err(); err != nil {
		t.Fatal(err)
	}
}
