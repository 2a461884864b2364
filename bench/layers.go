package main

// Per-layer measurement from outside: each replay times a layer's
// public functions doing exactly the work one query of the workload
// asks of that layer, on the workload's own data. Spans go to the
// tracer under a per-workload `replay` root.

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"hierdb"
	"hierdb/internal/spill"
	"hierdb/internal/store"
	"hierdb/internal/vec"
)

// values holds computed layer metrics by name; names absent from it
// are reported as 0 (the workload asks nothing of that layer).
type values map[string]float64

// Engine granularities the replays reproduce (the engine's defaults).
const (
	engineMorsel = 1024 // scan granularity in rows
	engineBatch  = 256  // pipeline and spill granularity in rows
)

// replay is the context of one workload's layer replays.
type replay struct {
	tr     *tracer
	root   int
	budget time.Duration // per replayed operation
	v      values
	k      float64 // host-slowdown correction of the replay under way
}

// mid returns the host-corrected median of a replay's pass times.
func (r *replay) mid(d []time.Duration) time.Duration {
	return time.Duration(float64(median(d)) * r.k)
}

// passes runs fn at least three times and until the budget is spent;
// fn returns the time of the part it wants counted. The heap is
// collected before each pass: with the workload's tables live a GC
// cycle costs tens of milliseconds, and one landing inside a pass
// would be charged to whichever layer happened to allocate next.
func (r *replay) passes(fn func() (time.Duration, error)) ([]time.Duration, error) {
	var out []time.Duration
	for start := time.Now(); len(out) < 3 || time.Since(start) < r.budget; {
		runtime.GC()
		d, err := fn()
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// span records one replay span ending now.
func (r *replay) span(name string, start time.Time) time.Duration {
	end := time.Now()
	r.tr.add(name, r.root, -1, 0, start, end)
	return end.Sub(start)
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func perRow(d time.Duration, rows int) float64 {
	if rows == 0 {
		return 0
	}
	return float64(d) / float64(rows)
}

func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// replayStore does what one scan_disk query asks of internal/store:
// test every chunk's zone maps against the predicates, read and decode
// the chunks that survive. It returns the store time of one query.
func (r *replay) store(si *setupInfo) (time.Duration, error) {
	var opens []time.Duration
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		tf, err := store.Open(si.filePath)
		opens = append(opens, time.Since(t0))
		if err != nil {
			return 0, err
		}
		if err := tf.Close(); err != nil {
			return 0, err
		}
	}
	tf, err := store.Open(si.filePath)
	if err != nil {
		return 0, err
	}
	defer tf.Close()
	st, err := os.Stat(si.filePath)
	if err != nil {
		return 0, err
	}

	n := tf.NumChunks()
	var (
		reads, skips  []time.Duration
		scanned, rows int
		bytes         int64
		readTotal     time.Duration
		allocs        uint64
	)
	whole, err := r.passes(func() (time.Duration, error) {
		scanned, rows, bytes = 0, 0, 0
		t0 := time.Now()
		keep := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if !tf.Skippable(i, si.preds) {
				keep = append(keep, i)
			}
		}
		skips = append(skips, r.span("store.skippable", t0))
		m0 := mallocs()
		for _, i := range keep {
			c0 := time.Now()
			b, err := tf.ReadChunk(i)
			if err != nil {
				return 0, err
			}
			d := r.span("store.read_chunk", c0)
			reads = append(reads, d)
			readTotal += d
			scanned++
			rows += b.N
			bytes += tf.Chunk(i).Len
		}
		allocs = mallocs() - m0
		return time.Since(t0), nil
	})
	if err != nil {
		return 0, err
	}
	v := r.v
	v["store.chunks_scanned_per_query"] = float64(scanned)
	v["store.chunks_skipped_ratio"] = float64(n-scanned) / float64(n)
	v["store.disk_kb_per_query"] = float64(bytes) / 1024
	v["store.read_chunk_us"] = us(r.mid(reads))
	v["store.decode_MBps"] = mbps(bytes*int64(len(whole)), time.Duration(float64(readTotal)*r.k))
	v["store.decode_allocs_per_row"] = float64(allocs) / float64(max(rows, 1))
	v["store.skippable_ns_per_chunk"] = perRow(r.mid(skips), n)
	v["store.open_us"] = us(r.mid(opens))
	v["store.write_MBps"] = mbps(st.Size(), si.fileWrite)
	v["store.bytes_per_user_byte"] = float64(st.Size()) / float64(si.fileUserBytes)
	return r.mid(whole), nil
}

// batchesOf columnizes a table the way the engine does, n rows at a time.
func batchesOf(t *hierdb.Table, n int) []*vec.Batch {
	var out []*vec.Batch
	for lo := 0; lo < len(t.Rows); lo += n {
		out = append(out, vec.FromRows(t.Rows[lo:min(lo+n, len(t.Rows))]))
	}
	return out
}

// replaySpill does what one join_spill query asks of internal/spill:
// encode every build and probe batch once and decode it once, in
// memory and through a real partition file. It returns the codec time
// of one query.
func (r *replay) spill(si *setupInfo, dir string) (time.Duration, error) {
	var batches []*vec.Batch
	rows := 0
	for _, t := range si.spillSrc {
		batches = append(batches, batchesOf(t, engineBatch)...)
		rows += len(t.Rows)
	}
	encoded := make([][]byte, len(batches))
	var total int64
	for i, b := range batches {
		buf, err := spill.EncodeCols(nil, b)
		if err != nil {
			return 0, err
		}
		encoded[i] = buf
		total += int64(len(buf))
	}

	var encAllocs, decAllocs uint64
	var scratch []byte
	enc, err := r.passes(func() (time.Duration, error) {
		m0, t0 := mallocs(), time.Now()
		for _, b := range batches {
			var err error
			if scratch, err = spill.EncodeCols(scratch[:0], b); err != nil {
				return 0, err
			}
		}
		d := r.span("spill.encode", t0)
		encAllocs = mallocs() - m0
		return d, nil
	})
	if err != nil {
		return 0, err
	}
	dec, err := r.passes(func() (time.Duration, error) {
		m0, t0 := mallocs(), time.Now()
		for i, buf := range encoded {
			if _, err := spill.DecodeCols(buf, batches[i].N); err != nil {
				return 0, err
			}
		}
		d := r.span("spill.decode", t0)
		decAllocs = mallocs() - m0
		return d, nil
	})
	if err != nil {
		return 0, err
	}
	round := 0
	file, err := r.passes(func() (time.Duration, error) {
		round++
		t0 := time.Now()
		f, err := spill.Create(dir, fmt.Sprintf("replay-%d.spill", round))
		if err != nil {
			return 0, err
		}
		defer f.Close()
		refs := make([]spill.Ref, 0, len(batches))
		for _, b := range batches {
			ref, err := f.AppendCols(b)
			if err != nil {
				return 0, err
			}
			refs = append(refs, ref)
		}
		for _, ref := range refs {
			if _, err := f.ReadCols(ref); err != nil {
				return 0, err
			}
		}
		return r.span("spill.file_roundtrip", t0), nil
	})
	if err != nil {
		return 0, err
	}
	v := r.v
	v["spill.encode_MBps"] = mbps(total, r.mid(enc))
	v["spill.decode_MBps"] = mbps(total, r.mid(dec))
	v["spill.file_roundtrip_MBps"] = mbps(2*total, r.mid(file))
	v["spill.bytes_per_row"] = float64(total) / float64(rows)
	v["spill.encode_allocs_per_row"] = float64(encAllocs) / float64(rows)
	v["spill.decode_allocs_per_row"] = float64(decAllocs) / float64(rows)
	return r.mid(enc) + r.mid(dec), nil
}

// replayVec times internal/vec's kernels over the workload's fact
// table, morsel by morsel, with the workload's own predicates. It
// returns the filter+gather+row-read time of one query.
func (r *replay) vec(si *setupInfo) time.Duration {
	// None of the vec kernels can fail.
	passes := func(fn func() time.Duration) []time.Duration {
		d, _ := r.passes(func() (time.Duration, error) { return fn(), nil })
		return d
	}
	rows := len(si.fact.Rows)
	var batches []*vec.Batch
	from := passes(func() time.Duration {
		t0 := time.Now()
		batches = batchesOf(si.fact, engineMorsel)
		return time.Since(t0)
	})
	// AppendRowsSel reads a nil selection as "every row", so a morsel the
	// predicates empty must keep an empty, non-nil one.
	sels := make([][]int32, len(batches))
	for i := range sels {
		sels[i] = []int32{}
	}
	selected := 0
	var scratch []int32
	filter := passes(func() time.Duration {
		selected = 0
		t0 := time.Now()
		for i, b := range batches {
			scratch = vec.ApplyPreds(b, si.preds, nil, scratch)
			sels[i] = append(sels[i][:0], scratch...)
			selected += len(scratch)
		}
		return r.span("vec.filter", t0)
	})
	views := make([]*vec.Batch, len(batches))
	sel := passes(func() time.Duration {
		var a vec.Arena
		t0 := time.Now()
		for i, b := range batches {
			views[i] = vec.Select(b, sels[i], &a)
		}
		return time.Since(t0)
	})
	gather := passes(func() time.Duration {
		ap := vec.NewAppender(nil, 0)
		t0 := time.Now()
		for i, b := range batches {
			ap.AppendRowsSel(b, sels[i])
		}
		return r.span("vec.gather", t0)
	})
	var readAllocs uint64
	read := passes(func() time.Duration {
		var a vec.Arena
		m0, t0 := mallocs(), time.Now()
		for _, b := range views {
			for i := 0; i < b.N; i++ {
				runtime.KeepAlive(b.ReadRow(i, a.Anys(len(b.Cols))))
			}
		}
		d := r.span("vec.read_row", t0)
		readAllocs = mallocs() - m0
		return d
	})
	appendRows := passes(func() time.Duration {
		var a vec.Arena
		var dst []hierdb.Row
		t0 := time.Now()
		for _, b := range views {
			dst = b.AppendRows(dst[:0], &a)
		}
		return time.Since(t0)
	})
	v := r.v
	v["vec.from_rows_ns_per_row"] = perRow(r.mid(from), rows)
	v["vec.filter_ns_per_row"] = perRow(r.mid(filter), rows)
	v["vec.select_ns_per_row"] = perRow(r.mid(sel), selected)
	v["vec.gather_ns_per_row"] = perRow(r.mid(gather), selected)
	v["vec.read_row_ns"] = perRow(r.mid(read), selected)
	v["vec.append_rows_ns_per_row"] = perRow(r.mid(appendRows), selected)
	v["vec.read_row_allocs_per_row"] = float64(readAllocs) / float64(max(selected, 1))
	return r.mid(filter) + r.mid(gather) + r.mid(read)
}

// simValues fills the simulation-layer metrics from the reference
// executions (bit-exact: they depend on nothing the host does).
func simValues(si *setupInfo, v values) (virtualSeconds float64) {
	var busy, idle, iowait, rtDP, rtFP float64
	var queueOps, stealRounds, steals, balance, pipeline int64
	for i, run := range si.simRef {
		busy += run.Busy.Seconds()
		idle += run.Idle.Seconds()
		iowait += run.IOWait.Seconds()
		if i%2 == 0 {
			rtDP += run.ResponseTime.Seconds()
		} else {
			rtFP += run.ResponseTime.Seconds()
		}
		queueOps += run.QueueOps
		stealRounds += run.StealRounds
		steals += run.StealsSucceeded
		balance += run.BalanceBytes
		pipeline += run.PipelineBytes
	}
	n := float64(len(si.simRef))
	v["core.virtual_rt_s"] = (rtDP + rtFP) / n
	v["core.idle_share"] = idle / (busy + idle + iowait)
	v["core.queue_ops_per_run"] = float64(queueOps) / n
	if stealRounds > 0 {
		v["core.steal_success_ratio"] = float64(steals) / float64(stealRounds)
	}
	v["simnet.balance_kb_per_run"] = float64(balance) / 1024 / n
	v["simnet.pipeline_kb_per_run"] = float64(pipeline) / 1024 / n
	v["core.dp_over_fp_rt"] = rtDP / rtFP
	v["optimizer.plans_us"] = us(si.simPlans)
	return (rtDP + rtFP) / n
}
