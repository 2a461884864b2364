package main

// The measuring loop shared by every workload: closed-loop clients, a
// leg's wall/CPU/allocation window, latency pooling across rounds, and
// the percentile rule.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"hierdb"
)

// limit bounds one leg: a fixed operation count (-quick, tests) or a
// time budget (the default; the driver's --seconds).
type limit struct {
	ops int
	dur time.Duration
}

// div splits a budget into n equal parts (the interleaved rounds); a
// count-bounded part keeps at least one operation.
func (l limit) div(n int) limit {
	return limit{ops: max(l.ops/n, min(l.ops, 1)), dur: l.dur / time.Duration(n)}
}

// Indices of the EngineStats counters the exec.* layer metrics are
// made of, summed over a leg's queries.
const (
	cActivations = iota
	cInterRows   // Σ OpRows: rows produced by every operator
	cMaxWorker   // busiest worker's activations
	cSumWorker   // all workers' activations
	cStealRounds
	cSteals
	cStolenActs
	cStolenBucketB
	cRedistributed
	cSpilledB
	cSpilledParts
	cSpillPhases
	cChunksScanned
	cChunksSkipped
	cDiskB
	nCounters
)

type engSums struct {
	v       [nCounters]int64
	workers int64 // len(PerWorker), the same for every query of a workload
}

func (e *engSums) add(st *hierdb.EngineStats) {
	var inter, mx, sum int64
	for _, r := range st.OpRows {
		inter += r
	}
	for _, w := range st.PerWorker {
		sum += w
		mx = max(mx, w)
	}
	e.workers = int64(len(st.PerWorker))
	for i, d := range [nCounters]int64{
		cActivations: st.Activations, cInterRows: inter, cMaxWorker: mx, cSumWorker: sum,
		cStealRounds: st.StealRounds, cSteals: st.Steals, cStolenActs: st.StolenActivations,
		cStolenBucketB: st.StolenBucketBytes, cRedistributed: st.RowsRedistributed,
		cSpilledB: st.SpilledBytes, cSpilledParts: st.SpilledPartitions, cSpillPhases: st.SpillPhases,
		cChunksScanned: st.ChunksScanned, cChunksSkipped: st.ChunksSkipped, cDiskB: st.DiskBytesRead,
	} {
		e.v[i] += d
	}
}

func (e *engSums) merge(o *engSums) {
	for i := range e.v {
		e.v[i] += o.v[i]
	}
	e.workers = max(e.workers, o.workers)
}

// leg is what one measured window (or several merged ones) produced.
// Times are host-corrected once the window has been scaled; rawWall
// keeps the uncorrected wall time.
type leg struct {
	lat                   []time.Duration // one per attempted operation; failed ones count as failedLatency
	ops, failed, rejected int64
	rows                  int64 // verified result rows
	wall, cpu, rawWall    time.Duration
	mallocs, allocBytes   uint64
	eng                   engSums
	// traced legs only
	admit, runCall, firstRow, drain []time.Duration
	check                           time.Duration
	firstErr                        error
}

func (l *leg) record(o op, traced bool) {
	l.ops++
	l.lat = append(l.lat, o.lat)
	if o.err != nil {
		l.failed++
		if o.rejected {
			l.rejected++
		}
		if l.firstErr == nil {
			l.firstErr = o.err
		}
		return
	}
	l.rows += o.rows
	if o.stats != nil {
		l.eng.add(o.stats)
	}
	if traced {
		if o.stats != nil {
			l.admit = append(l.admit, o.stats.AdmissionWait)
			l.runCall = append(l.runCall, o.runCall)
			l.firstRow = append(l.firstRow, o.firstRow)
			l.drain = append(l.drain, o.lat-o.runCall-o.firstRow)
		}
		l.check += o.check
	}
}

func (l *leg) merge(o *leg) {
	l.lat = append(l.lat, o.lat...)
	l.ops += o.ops
	l.failed += o.failed
	l.rejected += o.rejected
	l.rows += o.rows
	l.wall += o.wall
	l.rawWall += o.rawWall
	l.cpu += o.cpu
	l.mallocs += o.mallocs
	l.allocBytes += o.allocBytes
	l.eng.merge(&o.eng)
	l.admit = append(l.admit, o.admit...)
	l.runCall = append(l.runCall, o.runCall...)
	l.firstRow = append(l.firstRow, o.firstRow...)
	l.drain = append(l.drain, o.drain...)
	l.check += o.check
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
}

// scale multiplies every time the leg measured by k: the window's
// host-slowdown correction (see yardstick.go). Failed operations keep
// their beyond-any-latency mark.
func (l *leg) scale(k float64) {
	mul := func(d time.Duration) time.Duration { return time.Duration(float64(d) * k) }
	for _, ds := range [][]time.Duration{l.lat, l.admit, l.runCall, l.firstRow, l.drain} {
		for i, d := range ds {
			if d != failedLatency {
				ds[i] = mul(d)
			}
		}
	}
	l.wall, l.cpu, l.check = mul(l.wall), mul(l.cpu), mul(l.check)
}

func (l *leg) qps() float64 {
	if l.wall <= 0 {
		return 0
	}
	return float64(l.ops-l.failed) / l.wall.Seconds()
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runWindow drives one measured window: `clients` closed-loop clients,
// each sending its next operation only when the previous one has been
// drained and checked, until the limit is reached. first is the index
// of each client's first operation, so successive rounds continue the
// same id sequence instead of replaying it.
func runWindow(ctx context.Context, in instance, clients int, lim limit, first int, m mode) *leg {
	parts := make([]leg, clients)
	cyc := in.cycle()
	perClient := lim.ops / clients / cyc * cyc
	if lim.ops > 0 && perClient == 0 {
		perClient = cyc
	}
	client := func(c int) {
		l := &parts[c]
		deadline := time.Now().Add(lim.dur)
		for i := 0; ; i++ {
			if i%cyc == 0 {
				if lim.ops > 0 && i >= perClient {
					return
				}
				if lim.ops == 0 && !time.Now().Before(deadline) {
					return
				}
			}
			l.record(in.do(ctx, c, first+i, m), m.tr != nil)
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, t0 := cpuTime(), time.Now()
	if clients == 1 {
		client(0)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client(c)
			}()
		}
		wg.Wait()
	}
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	runtime.ReadMemStats(&ms1)

	out := &parts[0]
	for c := 1; c < clients; c++ {
		out.merge(&parts[c])
	}
	out.wall, out.rawWall, out.cpu = wall, wall, cpu
	out.mallocs, out.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	return out
}

// supported reports whether n samples support percentile p (0..1): the
// rule is at least ten samples beyond it.
func supported(n int, p float64) bool { return float64(n)*(1-p) >= 10-1e-9 }

// highestSupported returns the highest of the usual percentiles that n
// samples support, 0.5 if none does.
func highestSupported(n int) float64 {
	best := 0.5
	for _, p := range []float64{0.9, 0.95, 0.99, 0.999} {
		if supported(n, p) {
			best = p
		}
	}
	return best
}

// percentile returns the p-quantile (nearest rank) of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(d []time.Duration) time.Duration { return percentile(sortedCopy(d), 0.5) }

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metric is one named, unit-carrying value.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // printed beside the value, not part of the JSON
}

func fmtValue(v float64) string {
	switch a := math.Abs(v); {
	case v == math.Trunc(v) && a < 1e15:
		return fmt.Sprintf("%.0f", v)
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}
