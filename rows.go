package hierdb

// Streaming result iteration. Rows pops the query's result queue on its
// coordinator: when the consumer lags, the query's production pauses at
// the queue's bound — no worker waits on a consumer — so a result set is
// never materialized unless the caller asks for it with Collect.
//
// The engine streams columnar batches; Rows is the row boundary. Row
// materialization is lazy and a batch at a time — Next only advances a
// cursor, a caller that skips Row() for a batch never pays for boxing
// it, and the first Row() of a batch boxes all its rows column by column
// (vec's AppendRows, the path Collect takes): the rows' interface words
// and no box per value (internal/vec boxes in place).

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
	h     *exec.Handle
	batch *vec.Batch
	i     int // next logical row of batch
	// rows are batch's rows once Row materialized them, else empty; the
	// slice is reused across batches, the rows it holds never are.
	rows   []Row
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
		r.batch, r.i, r.rows = batch, 0, r.rows[:0]
	}
}

// Row returns the current row; the first call in a batch materializes
// the whole batch. Valid after a true Next until the next call; the
// engine does not reuse row storage, so retaining rows is safe. A typed
// value of a row points into the column storage it was read from — a
// decoded chunk or spill partition, a resident table's columnization, a
// join's build store — instead of a heap copy of its own, so a retained
// row keeps those columns alive.
func (r *Rows) Row() Row {
	if r.batch == nil || r.i == 0 {
		return nil
	}
	return r.batchRows()[r.i-1]
}

// batchRows returns the current batch's rows, materializing them on
// first use.
func (r *Rows) batchRows() []Row {
	if len(r.rows) == 0 {
		r.rows = r.batch.AppendRows(r.rows[:0], &r.arena)
	}
	return r.rows
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
	r.batch, r.i, r.rows = nil, 0, nil
	r.h.Cancel()
	for _, ok := r.h.Next(); ok; _, ok = r.h.Next() {
	}
	return r.err
}

// Collect drains the remaining stream into a slice, batch-wise. Like
// Row's, the returned rows keep alive the column storage their values
// were read from.
func (r *Rows) Collect() ([]Row, error) {
	var out []Row
	if !r.closed {
		// Buffer the remaining batches, then carve the row slice once at
		// the exact total — no growslice churn on large results.
		var partial []Row
		if r.batch != nil && r.i < r.batch.N {
			partial = r.batchRows()[r.i:]
		}
		r.batch, r.i, r.rows = nil, 0, nil
		var batches []*vec.Batch
		total := len(partial)
		for batch, ok := r.h.Next(); ok; batch, ok = r.h.Next() {
			batches = append(batches, batch)
			total += batch.N
		}
		out = append(make([]Row, 0, total), partial...)
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
