// Command benchdiff is the CI bench-regression gate: it parses `go test
// -bench` output, compares allocs/op per benchmark against the committed
// baselines (BENCH_kernel.json / BENCH_engine.json), fails on any
// regression beyond the tolerance, and writes the fresh numbers — ns/op,
// B/op and custom metrics too — as a JSON artifact for upload.
//
// Usage:
//
//	go test -run '^$' -bench ... -benchmem ./... | tee bench.txt
//	go run ./cmd/benchdiff -baseline BENCH_kernel.json -baseline BENCH_engine.json \
//	    -in bench.txt -out bench-fresh.json [-tolerance 1.0]
//
// Baseline schema: {"benchmarks": {"BenchmarkName": {..., "baseline":
// {"allocs_op": N}}}}; entries carrying a before/after pair
// (BENCH_kernel.json) gate against "after". Wall clock is not gated: on
// a shared host whose effective speed drifts up to ~2x, a ns/op gate
// catches nothing short of a 2x regression, while allocs/op is
// deterministic. Wall-clock claims are made by interleaved A/B runs of
// the benchmark module (bench/), not here. A benchmark present in a
// baseline file but absent from the input fails the gate (a silently
// renamed benchmark must not weaken it); pass -skip-missing to relax
// that when gating a subset.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one benchmark's fresh numbers.
type benchResult struct {
	NsOp     float64            `json:"ns_op"`
	AllocsOp float64            `json:"allocs_op"`
	BytesOp  float64            `json:"bytes_op"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

// baseline is one benchmark's gated expectation.
type baseline struct {
	AllocsOp float64 `json:"allocs_op"`
}

// baselineEntry matches both BENCH schemas: a plain {"baseline": ...}
// and a before/after pair, where "after" is the current expectation.
type baselineEntry struct {
	Baseline *baseline `json:"baseline"`
	After    *baseline `json:"after"`
}

type baselineFile struct {
	Benchmarks map[string]baselineEntry `json:"benchmarks"`
}

// parseBench reads `go test -bench` output. Benchmark names are stripped
// of the trailing -GOMAXPROCS suffix; repeated runs of one benchmark
// keep the minimum of each quantity (noise only ever adds).
func parseBench(r io.Reader) (map[string]*benchResult, error) {
	out := make(map[string]*benchResult)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := trimProcs(f[0])
		fresh := &benchResult{NsOp: -1, AllocsOp: -1, BytesOp: -1}
		// f[1] is the iteration count; then (value, unit) pairs.
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchdiff: bad value %q for %s", f[i], name)
			}
			switch unit := f[i+1]; unit {
			case "ns/op":
				fresh.NsOp = v
			case "allocs/op":
				fresh.AllocsOp = v
			case "B/op":
				fresh.BytesOp = v
			default:
				if fresh.Metrics == nil {
					fresh.Metrics = make(map[string]float64)
				}
				fresh.Metrics[unit] = v
			}
		}
		if prev, ok := out[name]; ok {
			merge(prev, fresh)
		} else {
			out[name] = fresh
		}
	}
	return out, sc.Err()
}

// merge folds repeated runs of one benchmark: the gated quantities
// (ns/op, allocs/op, B/op) keep their minimum — noise only ever adds to
// those — while custom metrics are taken wholesale from the fastest run
// (minima would be wrong for throughput units like rows/s, and mixing
// runs per metric would record an internally inconsistent artifact).
func merge(dst, src *benchResult) {
	if src.NsOp >= 0 && (dst.NsOp < 0 || src.NsOp < dst.NsOp) && src.Metrics != nil {
		dst.Metrics = src.Metrics
	}
	lo := func(a, b float64) float64 {
		if a < 0 {
			return b
		}
		if b < 0 || a < b {
			return a
		}
		return b
	}
	dst.NsOp = lo(dst.NsOp, src.NsOp)
	dst.AllocsOp = lo(dst.AllocsOp, src.AllocsOp)
	dst.BytesOp = lo(dst.BytesOp, src.BytesOp)
}

// trimProcs strips the -N GOMAXPROCS suffix from a benchmark name.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// loadBaselines merges the gated expectations of every baseline file.
func loadBaselines(paths []string) (map[string]baseline, error) {
	out := make(map[string]baseline)
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var bf baselineFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			return nil, fmt.Errorf("benchdiff: %s: %w", path, err)
		}
		for name, e := range bf.Benchmarks {
			b := e.Baseline
			if e.After != nil {
				b = e.After
			}
			if b == nil {
				return nil, fmt.Errorf("benchdiff: %s: %s has neither baseline nor after", path, name)
			}
			if _, dup := out[name]; dup {
				return nil, fmt.Errorf("benchdiff: duplicate baseline for %s", name)
			}
			out[name] = *b
		}
	}
	return out, nil
}

// compare gates fresh numbers against the baselines, returning one line
// per problem. allocs/op regresses when it exceeds the baseline by more
// than the tolerance fraction (improvements always pass); ns/op is
// recorded, never gated.
func compare(base map[string]baseline, fresh map[string]*benchResult, tol float64, skipMissing bool) []string {
	var problems []string
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base[name]
		f, ok := fresh[name]
		if !ok {
			if !skipMissing {
				problems = append(problems, fmt.Sprintf("%s: in baseline but not in bench output", name))
			}
			continue
		}
		got, want := f.AllocsOp, b.AllocsOp
		if got < 0 || want <= 0 && got <= 0 {
			continue
		}
		if got > want*(1+tol) {
			problems = append(problems, fmt.Sprintf("%s: allocs/op regressed: %.6g > %.6g (+%.0f%% tolerance)",
				name, got, want, tol*100))
		}
	}
	return problems
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var baselines multiFlag
	in := flag.String("in", "-", "bench output file (- = stdin)")
	out := flag.String("out", "", "write fresh numbers as a JSON artifact")
	tol := flag.Float64("tolerance", 1.0, "allowed regression fraction for allocs/op")
	skipMissing := flag.Bool("skip-missing", false, "ignore baselines absent from the bench output")
	flag.Var(&baselines, "baseline", "baseline JSON file (repeatable)")
	flag.Parse()
	if len(baselines) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: at least one -baseline is required")
		os.Exit(2)
	}

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		defer f.Close()
		r = f
	}
	fresh, err := parseBench(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	base, err := loadBaselines(baselines)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	if *out != "" {
		artifact := struct {
			GoVersion  string                  `json:"go"`
			GOOS       string                  `json:"goos"`
			GOARCH     string                  `json:"goarch"`
			Tolerance  float64                 `json:"tolerance"`
			Benchmarks map[string]*benchResult `json:"benchmarks"`
		}{runtime.Version(), runtime.GOOS, runtime.GOARCH, *tol, fresh}
		raw, err := json.MarshalIndent(artifact, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	}

	gated := 0
	for name := range base {
		if _, ok := fresh[name]; ok {
			gated++
		}
	}
	fmt.Printf("benchdiff: %d benchmarks parsed, %d gated against %d baselines (tolerance ±%.0f%%)\n",
		len(fresh), gated, len(base), *tol*100)
	if problems := compare(base, fresh, *tol, *skipMissing); len(problems) > 0 {
		for _, p := range problems {
			fmt.Println("REGRESSION:", p)
		}
		os.Exit(1)
	}
	fmt.Println("benchdiff: no regressions")
}
