// Skewdemo: the effect the paper's Figure 9 studies, on real data — a join
// whose probe keys follow a Zipf distribution. Dynamic scheduling (DP)
// keeps workers evenly loaded; static binding (FP) strands them.
//
//	go run ./examples/skewdemo
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"runtime"
	"time"

	"hierdb"
)

func main() {
	const (
		nBuild = 50_000
		nProbe = 600_000
		theta  = 0.9 // high Zipf skew
	)
	// Zipf CDF over nBuild ranks.
	weights := make([]float64, nBuild)
	sum := 0.0
	for i := range weights {
		w := 1 / math.Pow(float64(i+1), theta)
		weights[i] = w
		sum += w
	}
	cdf := make([]float64, nBuild)
	acc := 0.0
	for i, w := range weights {
		acc += w / sum
		cdf[i] = acc
	}
	rng := uint64(7)
	uniform := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>11) / (1 << 53)
	}
	draw := func() int {
		u := uniform()
		lo, hi := 0, nBuild-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}

	build := &hierdb.Table{Name: "dim", Cols: []string{"id", "payload"}}
	for i := 0; i < nBuild; i++ {
		build.Rows = append(build.Rows, hierdb.Row{i, i})
	}
	probe := &hierdb.Table{Name: "fact", Cols: []string{"dim_id", "v"}}
	for i := 0; i < nProbe; i++ {
		probe.Rows = append(probe.Rows, hierdb.Row{draw(), i})
	}

	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4 // keep the scheduling comparison meaningful on tiny hosts
	}
	fmt.Printf("probe keys Zipf(theta=%.1f) over %d build keys, %d probe rows, %d workers\n\n",
		theta, nBuild, nProbe, workers)
	for _, mode := range []struct {
		label  string
		static bool
	}{
		{"DP", false},
		{"FP", true},
	} {
		db := hierdb.Open(hierdb.WithWorkers(workers), hierdb.WithStatic(mode.static))
		for _, t := range []*hierdb.Table{build, probe} {
			if err := db.Register(t.Name, hierdb.FromTable(t)); err != nil {
				log.Fatal(err)
			}
		}
		start := time.Now()
		rows, stats, err := db.Scan("fact").
			Join(db.Scan("dim"), hierdb.KeyCol(0), hierdb.KeyCol(0)).
			Collect(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-3s %8d rows  %8v  worker imbalance %.2f\n",
			mode.label, len(rows), time.Since(start).Round(time.Millisecond), stats.Imbalance())
		db.Close()
	}
}
