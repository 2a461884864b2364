// Package leaktest is the shared goroutine-hygiene helper of the
// engine's test suites. Every test that spawns a query — on an
// exec.Nodes engine or the hierdb.DB facade — registers Check first, so
// worker goroutines, context-cancellation hooks and the test's own
// consumers are all proven to wind down with whatever the test tears
// down (pools close asynchronously, hence the polling).
//
// The complementary "pool-idle" discipline — after an abort, a fresh
// query on the same pool must complete — stays with the test packages,
// since running a query is surface-specific; this package owns the
// goroutine accounting both share.
package leaktest

import (
	"runtime"
	"testing"
	"time"
)

// settleTimeout bounds how long Settle polls for goroutines to wind
// down before declaring a leak.
const settleTimeout = 5 * time.Second

// Check snapshots the goroutine count and registers a cleanup that
// fails the test unless the count settles back to within slack of the
// snapshot. Register it before creating pools/engines/DBs: cleanups run
// last-in-first-out, so the leak check then runs after the test's own
// Close cleanups, and slack only needs to cover runtime background
// goroutines (2 is the suites' convention), not resident workers.
func Check(t testing.TB, slack int) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() { Settle(t, base, slack) })
}

// Settle polls until the goroutine count returns to within slack of
// base (worker pools wind down asynchronously after Close), failing the
// test at the timeout. Exposed for tests that need the check mid-test
// rather than at cleanup.
func Settle(t testing.TB, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(settleTimeout)
	for {
		if n := runtime.NumGoroutine(); n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d before (slack %d)", runtime.NumGoroutine(), base, slack)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
