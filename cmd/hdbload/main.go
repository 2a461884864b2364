// Command hdbload is an open-loop latency harness for the real-data
// engine's admission path: it fires a fixed-rate arrival schedule of
// mixed queries (point lookups, the difftest multi-join, a grouped
// aggregation) at one resident DB handle and reports per-kind latency
// percentiles, admission waits, queue-full rejections, and spill
// counters.
//
// Open-loop means arrivals do not wait for completions: each query's
// latency is measured from its *scheduled* arrival time, so time spent
// parked in the admission queue (or waiting behind a slow engine) is
// charged to the query rather than silently stretching the schedule —
// the coordinated-omission-free view of tail latency.
//
// Usage:
//
//	go run ./cmd/hdbload -rate 100 -duration 5s -maxq 4 -queue 32 \
//	    -memory 65536 -tenants 2 -mix point=0.5,join=0.3,group=0.2
//
// -memory gives each node one count of that many bytes, shared by every
// query in flight on it; concurrent governed queries charge it and spill
// when their charges take it past the budget.
//
// The table set is a seeded difftest case (identical across runs with
// the same -seed), so latency shifts between configurations reflect the
// engine, not the data.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hierdb"
	"hierdb/internal/difftest"
	"hierdb/internal/xrand"
)

// queryKind indexes the workload mix.
type queryKind int

const (
	kindPoint queryKind = iota
	kindJoin
	kindGroup
	numKinds
)

var kindNames = [numKinds]string{"point", "join", "group"}

// result is one completed arrival.
type result struct {
	kind     queryKind
	latency  time.Duration // completion - scheduled arrival
	admit    time.Duration // time parked in the admission queue
	rejected bool          // ErrAdmissionQueueFull
	err      error         // any other failure
	spillPar int64
	spillByt int64
}

func main() {
	rate := flag.Float64("rate", 50, "arrival rate in queries/sec (open loop)")
	duration := flag.Duration("duration", 5*time.Second, "length of the arrival schedule")
	nodes := flag.Int("nodes", 1, "engine nodes")
	workers := flag.Int("workers", 0, "workers per node (0 = engine default)")
	memory := flag.Int64("memory", 0, "per-node memory budget in bytes, shared by the node's queries (0 = ungoverned)")
	maxq := flag.Int("maxq", 4, "admission slots (0 = unbounded, no queue)")
	queue := flag.Int("queue", 0, "admission queue capacity (0 = 8x slots)")
	tenants := flag.Int("tenants", 1, "tenant labels cycled across arrivals (admission fairness)")
	relations := flag.Int("relations", 5, "relations in the synthesized join case")
	seed := flag.Uint64("seed", 1, "workload seed (tables and arrival kinds)")
	mix := flag.String("mix", "point=0.5,join=0.3,group=0.2", "arrival mix weights")
	flag.Parse()

	weights, err := parseMix(*mix)
	if err != nil {
		log.Fatalf("hdbload: %v", err)
	}
	if *rate <= 0 || *duration <= 0 {
		log.Fatal("hdbload: -rate and -duration must be positive")
	}

	c := difftest.Synthesize(*seed, "load", *relations)

	opts := []hierdb.Option{hierdb.WithNodes(*nodes)}
	if *workers > 0 {
		opts = append(opts, hierdb.WithWorkers(*workers))
	}
	if *memory > 0 {
		opts = append(opts, hierdb.WithMemory(*memory), hierdb.WithSpillDir(os.TempDir()))
	}
	if *maxq > 0 {
		opts = append(opts, hierdb.WithMaxConcurrentQueries(*maxq))
	}
	if *queue > 0 {
		opts = append(opts, hierdb.WithAdmissionQueue(*queue))
	}
	db := hierdb.Open(opts...)
	defer db.Close()
	if err := c.Register(db); err != nil {
		log.Fatalf("hdbload: register: %v", err)
	}

	// One unmeasured warm-up query per kind, so first-touch costs (lazy
	// allocations, file-system metadata for spill files) stay out of the
	// measured tail.
	r := xrand.New(*seed)
	for k := queryKind(0); k < numKinds; k++ {
		if _, _, err := buildQuery(db, c, k, r, *tenants).Collect(context.Background()); err != nil {
			log.Fatalf("hdbload: warm-up %s: %v", kindNames[k], err)
		}
	}

	n := int(*rate * duration.Seconds())
	if n < 1 {
		n = 1
	}
	interval := time.Duration(float64(time.Second) / *rate)
	fmt.Printf("hdbload: %d arrivals @ %.0f/s over %s; nodes=%d maxq=%d queue=%s memory=%d tenants=%d\n",
		n, *rate, *duration, *nodes, *maxq, queueLabel(*maxq, *queue), *memory, *tenants)

	results := make([]result, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		scheduled := start.Add(time.Duration(i) * interval)
		if d := time.Until(scheduled); d > 0 {
			time.Sleep(d)
		}
		kind := drawKind(r, weights)
		q := buildQuery(db, c, kind, r, *tenants)
		wg.Add(1)
		go func(i int, kind queryKind, q *hierdb.Query, scheduled time.Time) {
			defer wg.Done()
			_, st, err := q.Collect(context.Background())
			res := result{kind: kind, latency: time.Since(scheduled)}
			switch {
			case errors.Is(err, hierdb.ErrAdmissionQueueFull):
				res.rejected = true
			case err != nil:
				res.err = err
			default:
				res.admit = st.AdmissionWait
				res.spillPar = st.SpilledPartitions
				res.spillByt = st.SpilledBytes
			}
			results[i] = res
		}(i, kind, q, scheduled)
	}
	wg.Wait()
	report(results)
}

// buildQuery assembles one arrival's plan. Point lookups probe a random
// row id on the first relation; joins run the case's full left-deep
// chain; group-bys fold the largest relation by its first join key.
func buildQuery(db *hierdb.DB, c *difftest.Case, kind queryKind, r *xrand.Rand, tenants int) *hierdb.Query {
	var q *hierdb.Query
	switch kind {
	case kindPoint:
		t := c.Tables[0]
		q = db.Scan(t.Name).Where(hierdb.Pred{Col: 0, Op: hierdb.Eq, Val: r.Intn(len(t.Rows))})
	case kindJoin:
		q = c.Plan(db)
	default:
		t := c.Tables[0]
		for _, tb := range c.Tables[1:] {
			if len(tb.Rows) > len(t.Rows) {
				t = tb
			}
		}
		// Column 1 is the first join-key column (column 0 is the row id).
		q = db.Scan(t.Name).GroupBy(hierdb.KeyCol(1), hierdb.Aggregation{Func: hierdb.Count})
	}
	if tenants > 1 {
		q = q.WithTenant(fmt.Sprintf("t%d", r.Intn(tenants)))
	}
	return q
}

func drawKind(r *xrand.Rand, weights [numKinds]float64) queryKind {
	x := r.Float64() * (weights[0] + weights[1] + weights[2])
	for k := queryKind(0); k < numKinds-1; k++ {
		if x < weights[k] {
			return k
		}
		x -= weights[k]
	}
	return numKinds - 1
}

func parseMix(s string) ([numKinds]float64, error) {
	var w [numKinds]float64
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return w, fmt.Errorf("bad -mix entry %q (want kind=weight)", part)
		}
		v, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || v < 0 {
			return w, fmt.Errorf("bad -mix weight %q", part)
		}
		switch kv[0] {
		case "point":
			w[kindPoint] = v
		case "join":
			w[kindJoin] = v
		case "group":
			w[kindGroup] = v
		default:
			return w, fmt.Errorf("unknown -mix kind %q (want point, join, group)", kv[0])
		}
	}
	if w[0]+w[1]+w[2] <= 0 {
		return w, fmt.Errorf("-mix weights sum to zero")
	}
	return w, nil
}

func queueLabel(maxq, queue int) string {
	if maxq <= 0 {
		return "-"
	}
	if queue <= 0 {
		return strconv.Itoa(8 * maxq)
	}
	return strconv.Itoa(queue)
}

// report prints per-kind and overall latency percentiles plus admission
// and spill counters.
func report(results []result) {
	fmt.Printf("%-6s %7s %7s %8s %9s %9s %9s %9s %9s\n",
		"kind", "ok", "reject", "failed", "p50", "p99", "p999", "max", "admit-p99")
	for k := queryKind(0); k <= numKinds; k++ {
		var lats, admits []time.Duration
		var ok, rejected, failed int
		for _, res := range results {
			if k < numKinds && res.kind != k {
				continue
			}
			switch {
			case res.rejected:
				rejected++
			case res.err != nil:
				failed++
			default:
				ok++
				lats = append(lats, res.latency)
				admits = append(admits, res.admit)
			}
		}
		name := "all"
		if k < numKinds {
			name = kindNames[k]
		}
		if ok+rejected+failed == 0 {
			continue
		}
		fmt.Printf("%-6s %7d %7d %8d %9s %9s %9s %9s %9s\n",
			name, ok, rejected, failed,
			fmtDur(pct(lats, 0.50)), fmtDur(pct(lats, 0.99)),
			fmtDur(pct(lats, 0.999)), fmtDur(pct(lats, 1.0)),
			fmtDur(pct(admits, 0.99)))
	}
	var spillPar, spillByt int64
	var failed int
	for _, res := range results {
		spillPar += res.spillPar
		spillByt += res.spillByt
		if res.err != nil {
			failed++
		}
	}
	fmt.Printf("spill: partitions=%d bytes=%d\n", spillPar, spillByt)
	if failed > 0 {
		for _, res := range results {
			if res.err != nil {
				fmt.Printf("first failure: %v\n", res.err)
				break
			}
		}
		os.Exit(1)
	}
}

// pct returns the p-quantile of ds by sorted rank (nearest-rank, p=1.0
// is the max). Empty input reports zero.
func pct(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(p*float64(len(sorted))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(d)/float64(time.Second))
	}
}
