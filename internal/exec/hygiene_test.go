package exec

// Shared helpers of the exec test suite: the goroutine-leak check
// (internal/leaktest, also used by the facade tests), the engine-idle
// check — after a cancel/abort, a fresh query on the same engine must
// still complete — and runOnce, the suite's reference run. Register
// checkQueryHygiene at the top of every test that spawns a query.

import (
	"context"
	"fmt"
	"testing"

	"hierdb/internal/leaktest"
	"hierdb/internal/vec"
)

// drainRows consumes a handle's columnar output stream and materializes
// it as rows — the test-side equivalent of the facade's Collect.
func drainRows(h *Handle) []Row {
	var out []Row
	var arena vec.Arena
	for b, ok := h.Next(); ok; b, ok = h.Next() {
		out = b.AppendRows(out, &arena)
	}
	return out
}

// drain pops a handle's output until the query has retired and its
// queue is empty.
func drain(h *Handle) {
	for _, ok := h.Next(); ok; _, ok = h.Next() {
	}
}

// runOnce runs one query — a group-by when gb is non-nil — to completion
// on an engine of configuration cfg that lives for the call, and
// materializes its result: the reference run the suite compares other
// engines, configurations and node counts against. A configuration the
// engine refuses is the returned error, and so is a node memory account
// that does not read zero once the engine is closed.
func runOnce(ctx context.Context, root Node, gb *GroupBy, cfg EngineConfig) (_ []Row, _ *Stats, err error) {
	ns, err := NewNodesConfig(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		ns.Close()
		if err == nil {
			err = memSettled(ns)
		}
	}()
	h, err := ns.Submit(ctx, root, gb, "")
	if err != nil {
		return nil, nil, err
	}
	rows := drainRows(h)
	if err := h.Err(); err != nil {
		return nil, nil, err
	}
	return rows, h.Stats(), nil
}

// checkQueryHygiene registers the suite's goroutine-leak check. Call it
// before creating pools or engines: cleanups run LIFO, so the check
// runs after the test's Close cleanups have released the workers.
func checkQueryHygiene(t *testing.T) {
	t.Helper()
	leaktest.Check(t, 2)
}

// memSettled reports the first node whose memory account does not read
// zero: every byte a retired fragment charged must be back.
func memSettled(ns *Nodes) error {
	for i, p := range ns.pools {
		if p.mem == nil {
			continue
		}
		if used := p.mem.used.Load(); used != 0 {
			return fmt.Errorf("node %d: %d of %d bytes still charged", i, used, p.mem.budget)
		}
	}
	return nil
}

// verifyMemSettled requires every node's memory account to read zero
// while the engine still runs: no retired query may keep a charge.
func verifyMemSettled(t *testing.T, ns *Nodes) {
	t.Helper()
	if err := memSettled(ns); err != nil {
		t.Fatal(err)
	}
}

// verifyIdle proves an engine still serves queries (the "engine-idle"
// check): a small fresh join must complete with the right cardinality.
func verifyIdle(t *testing.T, ns *Nodes) {
	t.Helper()
	h, err := ns.Submit(context.Background(), cancelPlan(1000), nil, "")
	if err != nil {
		t.Fatalf("post-incident query failed to submit: %v", err)
	}
	n := 0
	for batch, ok := h.Next(); ok; batch, ok = h.Next() {
		n += batch.N
	}
	if err := h.Err(); err != nil || n != 1000 {
		t.Fatalf("post-incident query: %d rows, err %v", n, err)
	}
}
