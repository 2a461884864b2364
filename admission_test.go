package hierdb

// Facade tests for the admission controller and memory broker options:
// queue-full rejection and prompt ErrClosed through Run, admission-wait
// stats with tenant labels, and option validation.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"hierdb/internal/leaktest"
)

// bigSelfJoinDB opens a DB with the given options plus one 300k-row
// table whose self-join is large enough that an undrained Run stays in
// flight on sink backpressure (holding its admission slot).
func bigSelfJoinDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db := Open(append([]Option{WithWorkers(2)}, opts...)...)
	t.Cleanup(func() { db.Close() })
	tab := &Table{Name: "big", Cols: []string{"k"}}
	for i := 0; i < 300_000; i++ {
		tab.Rows = append(tab.Rows, Row{i})
	}
	if err := db.Register(tab.Name, FromTable(tab)); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestAdmissionQueueFullAndCloseWakesParked drives the whole admission
// story through the facade: with one slot and a one-deep queue, an
// undrained query holds the slot, a parked Run waits in the queue, an
// over-capacity Run is rejected with ErrAdmissionQueueFull, and Close
// promptly fails the parked Run with ErrClosed — the regression the
// admission controller exists for (the old channel semaphore left a
// context.Background() Run parked forever).
func TestAdmissionQueueFullAndCloseWakesParked(t *testing.T) {
	leaktest.Check(t, 2)
	db := bigSelfJoinDB(t, WithMaxConcurrentQueries(1), WithAdmissionQueue(1))

	rows, err := db.Scan("big").Join(db.Scan("big"), KeyCol(0), KeyCol(0)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}

	// The parked Run retries on queue-full (it can race the probe loop
	// below for the single queue slot) and reports its terminal error.
	type outcome struct {
		err error
		at  time.Time
	}
	parked := make(chan outcome, 1)
	go func() {
		for {
			_, err := db.Scan("big").WithTenant("parked").Run(context.Background())
			if errors.Is(err, ErrAdmissionQueueFull) {
				continue
			}
			parked <- outcome{err: err, at: time.Now()}
			return
		}
	}()

	// Probe with a pre-cancelled context until the queue reports full:
	// a probe that finds queue space parks, sees its dead context and
	// removes itself (context.Canceled); one that finds the queue full
	// is rejected before parking — proof the parked Run is in the queue.
	probeCtx, cancel := context.WithCancel(context.Background())
	cancel()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := db.Scan("big").WithTenant("probe").Run(probeCtx)
		if errors.Is(err, ErrAdmissionQueueFull) {
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("probe Run = %v, want context.Canceled or ErrAdmissionQueueFull", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("parked Run never reached the admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	closedAt := time.Now()
	go db.Close()
	select {
	case o := <-parked:
		if !errors.Is(o.err, ErrClosed) {
			t.Fatalf("parked Run returned %v, want ErrClosed", o.err)
		}
		if d := o.at.Sub(closedAt); d > 100*time.Millisecond {
			t.Fatalf("parked Run took %v after Close, want <= 100ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked Run still blocked 5s after Close — the hang this test guards against")
	}
	rows.Close()
}

// TestAdmissionWaitReported checks a Run that parked and was then
// granted reports the time parked in EngineStats.AdmissionWait.
func TestAdmissionWaitReported(t *testing.T) {
	leaktest.Check(t, 2)
	db := bigSelfJoinDB(t, WithMaxConcurrentQueries(1))

	rows, err := db.Scan("big").Join(db.Scan("big"), KeyCol(0), KeyCol(0)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	type waited struct {
		st  *EngineStats
		err error
	}
	done := make(chan waited, 1)
	go func() {
		_, st, err := db.Scan("big").Where(Pred{Col: 0, Op: Lt, Val: 10}).
			WithTenant("b").Collect(context.Background())
		done <- waited{st: st, err: err}
	}()
	// Give the second Run time to park, then free the slot by draining.
	time.Sleep(200 * time.Millisecond)
	if _, err := rows.Collect(); err != nil {
		t.Fatal(err)
	}
	w := <-done
	if w.err != nil {
		t.Fatal(w.err)
	}
	if w.st.AdmissionWait <= 0 {
		t.Fatalf("AdmissionWait = %v, want > 0 for a Run that parked", w.st.AdmissionWait)
	}
}

// TestMemoryBrokerRequiresBudget checks WithMemoryBroker without a
// WithMemory budget is rejected at Open (surfaced on first use).
func TestMemoryBrokerRequiresBudget(t *testing.T) {
	leaktest.Check(t, 2)
	db := Open(WithMemoryBroker(true))
	defer db.Close()
	if _, err := db.Scan("t").Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "WithMemoryBroker requires") {
		t.Fatalf("Run on broker-without-memory DB = %v, want the Open error", err)
	}
}
