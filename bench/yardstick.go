package main

// The host yardstick. The reference host is a small shared VM whose
// virtual CPUs each drop, independently and for seconds to minutes at
// a time, to between a half and three quarters of their speed on
// memory- and allocation-heavy code — long enough to swallow whole
// runs, so no statistic taken inside one run averages it out, and an
// integer loop does not feel it at all. What does track it is code
// shaped like the workloads: this package's own row-at-a-time hash
// join over a fixed table (allocation, maps, boxed rows) and a
// streaming sum over 8 MiB. Both are timed between measured windows,
// never inside one; their slowdown against the constants below scales
// the window's times, so a metric reads in reference-host milliseconds
// whatever phase the host was in. This is the paper's §5.1.3 rule —
// only ratios between comparable executions — applied to the host
// instead of to the plan. Uncorrected, ten runs of one workload spread
// 14–27 % (inter-quartile, of the median); corrected, 3–10 %.

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hierdb"
)

// Yardstick kernel times on the reference host in its fast phase. They
// only fix the unit: changing them scales every time metric of every
// commit alike.
const (
	yardJoinNominal   = 730 * time.Microsecond
	yardStreamNominal = 480 * time.Microsecond
	yardReps          = 3 // per reading; -quick takes 1
)

var (
	yardQuery = func() refQuery {
		fact, d1, d2 := genFact(7, 4*vRange, 200, 50), genDim(7, 2, "d1", 200), genDim(7, 3, "d2", 50)
		return refQuery{scan: fact.Rows, preds: []hierdb.Pred{{Col: factV, Op: hierdb.Lt, Val: vRange / 2}}, joins: []refJoin{
			{build: d1.Rows, probeCol: factK1, buildCol: 0}, {build: d2.Rows, probeCol: factK2, buildCol: 0}}}
	}()
	yardArray = func() []uint64 {
		a := make([]uint64, 1<<20)
		for i := range a {
			a[i] = uint64(i) // touched, so the sum streams real memory, not the zero page
		}
		return a
	}()
	yardSink atomic.Uint64
)

// yardKernels times both kernels on the calling goroutine and returns
// their slowdown against nominal. It keeps the fastest repetition: a GC
// cycle of the surrounding process can only slow a repetition down,
// while a slow host phase slows them all.
func yardKernels(reps int) float64 {
	join, stream := make([]time.Duration, reps), make([]time.Duration, reps)
	for i := range join {
		t0 := time.Now()
		sum := checksumOf(yardQuery.eval()).sum
		t1 := time.Now()
		for _, v := range yardArray {
			sum += v
		}
		join[i], stream[i] = t1.Sub(t0), time.Since(t1)
		yardSink.Add(sum)
	}
	return math.Sqrt(float64(slices.Min(join)) / float64(yardJoinNominal) *
		float64(slices.Min(stream)) / float64(yardStreamNominal))
}

// slowdown returns how much slower than nominal the host is running
// right now (1 = nominal). The host's virtual CPUs slow down
// independently of each other, so there are two readings: one on the
// caller's thread, where the client's share of a query runs (row
// boxing, or the whole simulator), and one on nproc threads at once,
// whose speeds add up to the capacity the engine's pool sees. The
// result is their geometric mean.
func slowdown(nproc, reps int) float64 {
	serial := yardKernels(reps)
	speeds := make([]float64, nproc)
	var wg sync.WaitGroup
	for i := range speeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			speeds[i] = 1 / yardKernels(reps)
		}()
	}
	wg.Wait()
	var capacity float64
	for _, s := range speeds {
		capacity += s
	}
	return math.Sqrt(serial * float64(nproc) / capacity)
}
