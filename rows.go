package hierdb

// Streaming result iteration. Rows pops the query's result queue on its
// coordinator: when the consumer lags, the query's production pauses at
// the queue's bound — no worker waits on a consumer — so a result set is
// never materialized unless the caller asks for it with Collect.
//
// The engine streams columnar batches; Rows is the row boundary. Row
// materialization is lazy — Next only advances a cursor, and a caller
// that skips Row() for a batch never pays for boxing it into rows; one
// that calls it pays the row's interface words and no box per value
// (internal/vec boxes in place).

import (
	"hierdb/internal/exec"
	"hierdb/internal/vec"
)

// Rows streams a running query's results:
//
//	rows, err := q.Run(ctx)
//	...
//	defer rows.Close()
//	for rows.Next() {
//		use(rows.Row())
//	}
//	err = rows.Err()
//
// Rows is not safe for concurrent use. An unread Rows costs no worker:
// its query's production pauses, and a query whose output is all queued
// retires and frees its admission slot and memory charge. One still
// paused holds both until read or closed — always drain it or Close.
type Rows struct {
	h      *exec.Handle
	batch  *vec.Batch
	i      int // next logical row of batch
	cur    Row
	arena  vec.Arena
	err    error
	closed bool
}

// Next advances to the next row, blocking for the engine as needed. It
// returns false at end of stream, on query error, or after Close; check
// Err to tell the first two apart.
func (r *Rows) Next() bool {
	if r.closed {
		return false
	}
	r.cur = nil
	for {
		if r.batch != nil && r.i < r.batch.N {
			r.i++
			return true
		}
		batch, ok := r.h.Next()
		if !ok {
			if r.err == nil {
				r.err = r.h.Err()
			}
			return false
		}
		r.batch, r.i = batch, 0
	}
}

// Row returns the current row, materialized from the columnar batch on
// first call. Valid after a true Next until the next call; the engine
// does not reuse row storage, so retaining rows is safe. A value of a
// row read from a table file or a spill partition points into the
// decoded batch's column storage instead of a heap copy of its own, so a
// retained row keeps that batch's columns alive.
func (r *Rows) Row() Row {
	if r.cur == nil && r.batch != nil && r.i > 0 {
		r.cur = r.batch.ReadRow(r.i-1, r.arena.Anys(len(r.batch.Cols)))
	}
	return r.cur
}

// Err returns the query's terminal error once Next has returned false
// (nil on clean completion or when iteration was ended by Close).
func (r *Rows) Err() error { return r.err }

// Close cancels the query if it is still running, discards its queued
// output, waits for it to retire, and returns any error already observed
// by Next. Idempotent; safe after full iteration.
func (r *Rows) Close() error {
	if r.closed {
		return r.err
	}
	r.closed = true
	r.batch, r.i, r.cur = nil, 0, nil
	r.h.Cancel()
	for _, ok := r.h.Next(); ok; _, ok = r.h.Next() {
	}
	return r.err
}

// Collect drains the remaining stream into a slice, batch-wise. Like
// Row's, the returned rows keep alive the column storage of the batches
// their values were read from.
func (r *Rows) Collect() ([]Row, error) {
	var out []Row
	if !r.closed {
		// Buffer the remaining batches, then carve the row slice once at
		// the exact total — no growslice churn on large results.
		partial, start := r.batch, r.i
		r.batch, r.i = nil, 0
		var batches []*vec.Batch
		total := 0
		if partial != nil {
			total += partial.N - start
		}
		for batch, ok := r.h.Next(); ok; batch, ok = r.h.Next() {
			batches = append(batches, batch)
			total += batch.N
		}
		out = make([]Row, 0, total)
		if partial != nil {
			for i := start; i < partial.N; i++ {
				out = append(out, partial.ReadRow(i, r.arena.Anys(len(partial.Cols))))
			}
		}
		for _, batch := range batches {
			out = batch.AppendRows(out, &r.arena)
		}
		if r.err == nil {
			r.err = r.h.Err()
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return out, nil
}

// Stats returns the query's per-query counters (activation counts,
// per-worker load on the shared pool, result rows). It blocks until the
// query retires, so call it after iteration completes or after Close.
func (r *Rows) Stats() *EngineStats { return r.h.Stats() }
