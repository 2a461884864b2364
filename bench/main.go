// Command bench is the repository's one benchmark: a single-process,
// closed-loop load generator that runs six named workloads against the
// hierdb facade and the internal layer packages, checks every result
// against an independent reference, and reports end-to-end metrics
// (-trace 0) or per-layer metrics from a traced run (-trace 1). See
// README.md for the workloads, the metrics and how to compare commits.
//
//	go run . [-workload a,b] [-seed N] [-seconds S] [-trace 0|1] [-quick] [-json file] [-trace-out dir]
//	go run . -compare a.json b.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Warm-up operations before timing (columnization caches, lazy pools,
// the OS page cache for the table file); how often a run repeats the
// whole set-up to report a median set-up time — at least minSetups,
// then until setupBudget is spent, so a set-up of a few milliseconds
// is sampled often enough to be steady; and the interleaved rounds.
const (
	warmupOps   = 20
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 1500 * time.Millisecond
	rounds      = 3
	// window is how long clients run between two yardstick readings:
	// short against the host's slow phases, long against one query.
	window = 150 * time.Millisecond
)

type config struct {
	names   []string
	seed    uint64
	seconds float64
	trace   bool
	quick   bool
	out     string
	json    string
}

func main() {
	var (
		cfg      config
		workload = flag.String("workload", "", "comma-separated workloads to run (default: all six)")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced run reporting end-to-end metrics")
		compare  = flag.Bool("compare", false, "compare two -json result files given as arguments")
	)
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for tables, lookup ids and the tenant draw")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds per workload")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke run: 1/20 of every table and query count, same checks")
	flag.StringVar(&cfg.out, "trace-out", "out", "directory for trace files and scratch tables")
	flag.StringVar(&cfg.json, "json", "", "also write the results to this file, for -compare")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -compare a.json b.json"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	cfg.trace = *trace == 1
	if cfg.seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive, got %v", cfg.seconds))
	}
	if *workload == "" {
		for _, w := range workloads {
			cfg.names = append(cfg.names, w.name)
		}
	} else {
		for _, name := range strings.Split(*workload, ",") {
			if findWorkload(name) == nil {
				fatal(fmt.Errorf("unknown workload %q", name))
			}
			cfg.names = append(cfg.names, name)
		}
	}

	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if cfg.json != "" {
		if err := res.writeFile(cfg.json); err != nil {
			fatal(err)
		}
	}
	// The pipeline reads the last line of standard output.
	fmt.Println(res.lastLine())
	if !res.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// state is one selected workload during a run.
type state struct {
	w       *workload
	e       env
	in      instance
	clients int
	setups  []time.Duration
	next    int       // each client's next operation index
	slow    []float64 // every yardstick reading of the run
	reps    int       // kernel repetitions per yardstick reading
	tr      *tracer
	// legs, merged over the rounds
	main     leg // the leg the workload is judged by: untraced (-trace 0) or traced (-trace 1)
	untraced leg // traced run: a short untraced leg, for the tracing overhead
	nextOnly leg // traced run, streamed workloads: iteration without Row()
	alt      leg // traced run: the ratio leg on the alternative configuration
	// off-window checks (warm-up and post-window checksum queries)
	offAttempted, offFailed int64
	problems                []string // failed cross-checks and first errors
	layer                   values
	replayed                []budgetRow // traced run: one query's replayed time per layer
}

func (s *state) problem(format string, args ...any) {
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

// offWindow runs n unmeasured operations; the first checks the full
// checksum, the rest the count.
func (s *state) offWindow(ctx context.Context, n int, m mode) {
	for i := 0; i < n; i++ {
		m.full = i == 0
		for c := 0; c < s.clients; c++ {
			o := s.in.do(ctx, c, s.next+i, m)
			s.offAttempted++
			if o.err != nil {
				s.offFailed++
				s.problem("off-window query: %v", o.err)
			}
		}
	}
	s.next += n
}

// yardstick reads the host's current slowdown and keeps it for the report.
func (s *state) yardstick() float64 {
	f := slowdown(s.e.nproc, s.reps)
	s.slow = append(s.slow, f)
	return f
}

// setUp performs the workload's whole set-up — generation, file
// write, Open, Register, Analyze, reference computation, warm-up —
// and records how long it took.
func (s *state) setUp(ctx context.Context, warmup int) error {
	before, t0 := s.yardstick(), time.Now()
	in, err := s.w.setup(s.e)
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", s.w.name, err)
	}
	s.in, s.next = in, 0
	warmup = (warmup + in.cycle() - 1) / in.cycle() * in.cycle()
	s.offWindow(ctx, warmup, mode{})
	el := time.Since(t0)
	k := 1 / math.Sqrt(before*s.yardstick())
	s.setups = append(s.setups, time.Duration(float64(el)*k))
	for _, d := range []*time.Duration{&in.info().register, &in.info().analyze, &in.info().fileWrite, &in.info().simPlans} {
		*d = time.Duration(float64(*d) * k)
	}
	return nil
}

// run executes the selected workloads and returns their results,
// printing progress and the metric tables to w.
func run(ctx context.Context, cfg config, w io.Writer) (*results, error) {
	nproc := runtime.NumCPU()
	scale, warmup, minReps, maxReps, reps := 1.0, warmupOps, minSetups, maxSetups, yardReps
	if cfg.quick {
		scale, warmup, minReps, maxReps, reps = 1.0/20, 3, 1, 1, 1
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.out, "scratch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var states []*state
	defer func() {
		for _, s := range states {
			if s.in != nil {
				s.in.close()
			}
		}
	}()
	for _, name := range cfg.names {
		wl := findWorkload(name)
		dir := filepath.Join(scratch, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		s := &state{w: wl, clients: wl.clients, layer: values{}, reps: reps,
			e: env{seed: cfg.seed, scale: scale, nproc: nproc, dir: dir}}
		if s.clients == 0 {
			s.clients = nproc
		}
		states = append(states, s)
		// Set-up is repeated and its median reported: one set-up is a
		// single sample of a second or two, too noisy to bound.
		for start := time.Now(); len(s.setups) < minReps || (len(s.setups) < maxReps && time.Since(start) < setupBudget); {
			if s.in != nil {
				if err := s.in.close(); err != nil {
					return nil, err
				}
				s.in = nil
				runtime.GC()
			}
			if err := s.setUp(ctx, warmup); err != nil {
				return nil, err
			}
		}
		fmt.Fprintf(w, "# %s: set up in %.3fs (median of %d)\n", name, median(s.setups).Seconds(), len(s.setups))
		if cfg.trace {
			s.tr = newTracer()
			if err := s.prepareTraced(ctx); err != nil {
				return nil, err
			}
		}
	}

	// Each workload's budget is split into interleaved rounds
	// (A,B,…,A,B,…) so minute-scale host drift lands on all alike.
	for r := 0; r < rounds; r++ {
		for _, s := range states {
			lim := limit{dur: time.Duration(cfg.seconds * float64(time.Second))}
			if cfg.quick {
				lim = limit{ops: max(s.w.queries/20, s.in.cycle())}
			}
			runtime.GC()
			s.round(ctx, lim.div(rounds), cfg.trace)
		}
	}

	res := &results{Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Quick: cfg.quick, Nproc: nproc,
		Workloads: map[string]*workloadResult{}}
	for _, s := range states {
		if cfg.trace {
			if err := s.replays(cfg.seconds, cfg.quick); err != nil {
				return nil, err
			}
			path := filepath.Join(cfg.out, "trace-"+s.w.name+".json")
			if err := s.tr.write(path); err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "# %s: %d spans written to %s\n", s.w.name, len(s.tr.spans), path)
		}
		res.Workloads[s.w.name] = s.result(cfg.trace)
	}
	res.print(w, states)
	return res, nil
}

// round runs one round of the workload's legs and its post-window
// checksum query.
func (s *state) round(ctx context.Context, lim limit, traced bool) {
	// A leg is a run of windows with a yardstick reading on either side
	// of each; a window's times are divided by the slowdown around it.
	leg := func(dst *leg, lim limit, m mode) {
		deadline := time.Now().Add(lim.dur)
		for before := s.yardstick(); ; {
			win := lim
			if lim.ops == 0 {
				win.dur = min(window, time.Until(deadline))
			}
			l := runWindow(ctx, s.in, s.clients, win, s.next, m)
			after := s.yardstick()
			l.scale(1 / math.Sqrt(before*after))
			s.next += len(l.lat)/s.clients + 1
			dst.merge(l)
			before = after
			if lim.ops > 0 || !time.Now().Before(deadline) {
				return
			}
		}
	}
	if !traced {
		leg(&s.main, lim, mode{})
	} else {
		// A traced run spends a third of the budget on the traced leg and
		// a sixth on each comparison leg; the replays take the rest.
		si := s.in.info()
		leg(&s.main, lim.div(3), mode{tr: s.tr})
		leg(&s.untraced, lim.div(6), mode{})
		if si.streamed {
			leg(&s.nextOnly, lim.div(6), mode{nextOnly: true})
		}
		if si.ratio != "" {
			leg(&s.alt, lim.div(6), mode{alt: true})
		}
	}
	// Measured queries check the row count only; one more per round, out
	// of the window, checks the checksum. The simulator's every run is
	// already checked bit for bit.
	if s.in.info().simRef == nil {
		s.offWindow(ctx, 1, mode{})
	}
}
