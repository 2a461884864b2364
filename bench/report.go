package main

// Turning legs into named metrics, printing them, and the result
// files: the JSON line the pipeline reads and the -json file -compare
// reads.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type workloadResult struct {
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Problems  []string              `json:"problems,omitempty"`
	Metrics   map[string]jsonMetric `json:"metrics"`
	list      []metric              // Metrics in table order, with notes
}

type results struct {
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Trace     bool                       `json:"trace"`
	Quick     bool                       `json:"quick"`
	Nproc     int                        `json:"nproc"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func (r *results) correct() bool {
	for _, w := range r.Workloads {
		if w.Failed != 0 || len(w.Problems) != 0 {
			return false
		}
	}
	return true
}

func (r *results) writeFile(path string) error {
	buf, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// lastLine renders the pipeline's result object. With one workload
// the metrics carry their bare names; with several, <workload>.<name>.
func (r *results) lastLine() string {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: r.correct(), Metrics: map[string]jsonMetric{}}
	for name, w := range r.Workloads {
		out.Attempted += w.Attempted
		out.Failed += w.Failed
		for k, m := range w.Metrics {
			if len(r.Workloads) > 1 {
				k = name + "." + k
			}
			out.Metrics[k] = m
		}
	}
	buf, err := json.Marshal(out)
	if err != nil {
		return fmt.Sprintf(`{"correct":false,"attempted":1,"failed":1,"metrics":{},"error":%q}`, err)
	}
	return string(buf)
}

// prepareTraced does the once-per-run work of a traced run: opens and
// warms the ratio leg's DB, and times Explain and Analyze.
func (s *state) prepareTraced(ctx context.Context) error {
	ei, ok := s.in.(*engineInst)
	if !ok {
		return nil
	}
	if err := ei.ensureAlt(); err != nil {
		return fmt.Errorf("%s: ratio leg: %w", s.w.name, err)
	}
	if ei.altDB != nil {
		s.offWindow(ctx, 3, mode{alt: true})
	}
	k := 1 / s.yardstick()
	q := ei.build(ei.db, 0, 0)
	var explains []time.Duration
	for i := 0; i < 51; i++ {
		t0 := time.Now()
		if _, err := q.Explain(ctx); err != nil {
			return fmt.Errorf("%s: explain: %w", s.w.name, err)
		}
		explains = append(explains, time.Since(t0))
	}
	s.layer["hierdb.explain_us"] = us(median(explains)) * k
	t0 := time.Now()
	if _, err := ei.db.Analyze(ei.si.mainTable); err != nil {
		return fmt.Errorf("%s: analyze: %w", s.w.name, err)
	}
	s.layer["hierdb.analyze_ms"] = ms(time.Since(t0)) * k
	return nil
}

// replays runs the layer replays the workload's query touches and
// books their time as a share of the query's CPU time.
func (s *state) replays(seconds float64, quick bool) error {
	si := s.in.info()
	t0 := time.Now()
	r := &replay{tr: s.tr, v: s.layer, root: s.tr.add("replay", 0, -1, 0, t0, t0),
		budget: time.Duration(seconds / 64 * float64(time.Second))}
	if quick {
		r.budget = 0
	}
	defer func() { s.tr.setEnd(r.root, time.Now()) }()
	cpuPerQuery := float64(s.main.cpu) / float64(max(s.main.ops, 1))
	share := func(name string, d time.Duration, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %s replay: %w", s.w.name, name, err)
		}
		if name != "vec" {
			s.layer[name+".query_share"] = float64(d) / cpuPerQuery
		}
		// The budget is in raw span time, so the replayed time goes back to raw.
		s.replayed = append(s.replayed, budgetRow{name + " (replayed)", time.Duration(float64(d) / r.k)})
		return nil
	}
	if si.filePath != "" {
		r.k = 1 / s.yardstick()
		d, err := r.store(si)
		if err := share("store", d, err); err != nil {
			return err
		}
	}
	if si.spillSrc != nil {
		dir := filepath.Join(s.e.dir, "replay")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		r.k = 1 / s.yardstick()
		d, err := r.spill(si, dir)
		if err := share("spill", d, err); err != nil {
			return err
		}
	}
	if si.fact != nil {
		r.k = 1 / s.yardstick()
		if err := share("vec", r.vec(si), nil); err != nil {
			return err
		}
	}
	return nil
}

// endToEnd computes the end-to-end metrics of the workload's main leg.
func (s *state) endToEnd() []metric {
	m := &s.main
	lat := sortedCopy(m.lat)
	ops := float64(max(m.ops, 1))
	note := fmt.Sprintf("n=%d, highest supported percentile p%g", len(lat), 100*highestSupported(len(lat)))
	vals := map[string]metric{
		"setup_s":            {value: median(s.setups).Seconds(), note: fmt.Sprintf("median of %d set-ups", len(s.setups))},
		"queries_per_s":      {value: m.qps()},
		"latency_p50_ms":     {value: ms(percentile(lat, 0.5))},
		"latency_p95_ms":     {value: ms(percentile(lat, 0.95)), note: note},
		"cpu_ms_per_query":   {value: ms(m.cpu) / ops},
		"allocs_per_query":   {value: float64(m.mallocs) / ops},
		"alloc_kb_per_query": {value: float64(m.allocBytes) / 1024 / ops},
		"result_rows_per_s":  {value: float64(m.rows) / m.wall.Seconds()},
	}
	return inOrder(endToEndDefs, func(name string) metric { return vals[name] })
}

func inOrder(defs []metricDef, get func(name string) metric) []metric {
	out := make([]metric, len(defs))
	for i, d := range defs {
		out[i] = get(d.name)
		out[i].name, out[i].unit = d.name, d.unit
	}
	return out
}

// layerMetrics computes the per-layer metrics of a traced run.
func (s *state) layerMetrics() []metric {
	v, m, si := s.layer, &s.main, s.in.info()
	n := float64(max(m.ops-m.failed, 1))
	per := func(c int) float64 { return float64(m.eng.v[c]) / n }

	v["hierdb.run_call_ms"] = ms(median(m.runCall))
	v["hierdb.first_row_ms"] = ms(median(m.firstRow))
	v["hierdb.drain_ms"] = ms(median(m.drain))
	admit := sortedCopy(m.admit)
	v["hierdb.admission_wait_p50_ms"] = ms(percentile(admit, 0.5))
	v["hierdb.admission_wait_p95_ms"] = ms(percentile(admit, 0.95))
	v["hierdb.rejected_share"] = float64(m.rejected) / float64(max(m.ops, 1))
	v["hierdb.register_ms"] = ms(si.register)
	if si.streamed && s.nextOnly.ops > 0 {
		rowsPerQuery := float64(s.untraced.rows) / float64(max(s.untraced.ops-s.untraced.failed, 1))
		v["hierdb.row_box_ns_per_row"] = float64(median(s.untraced.lat)-median(s.nextOnly.lat)) / rowsPerQuery
	}

	v["exec.activations_per_query"] = per(cActivations)
	v["exec.intermediate_rows_per_query"] = per(cInterRows)
	if sum := m.eng.v[cSumWorker]; sum > 0 {
		v["exec.worker_imbalance"] = float64(m.eng.v[cMaxWorker]) * float64(m.eng.workers) / float64(sum)
	}
	v["exec.steal_rounds_per_query"] = per(cStealRounds)
	v["exec.steals_per_query"] = per(cSteals)
	if r := m.eng.v[cStealRounds]; r > 0 {
		v["exec.steal_success_ratio"] = float64(m.eng.v[cSteals]) / float64(r)
	}
	v["exec.stolen_activations_per_query"] = per(cStolenActs)
	v["exec.stolen_bucket_kb_per_query"] = per(cStolenBucketB) / 1024
	v["exec.rows_redistributed_per_query"] = per(cRedistributed)
	v["exec.spilled_kb_per_query"] = per(cSpilledB) / 1024
	v["exec.spilled_partitions_per_query"] = per(cSpilledParts)
	v["exec.spill_phases_per_query"] = per(cSpillPhases)
	if si.inputBytes > 0 {
		v["exec.spill_write_amp"] = per(cSpilledB) / float64(si.inputBytes)
	}
	if si.ratio != "" && s.alt.ops > s.alt.failed {
		// §5.1.3: only ratios between comparable executions of one plan.
		if si.ratioOfP50 {
			v[si.ratio] = float64(median(s.untraced.lat)) / float64(median(s.alt.lat))
		} else {
			v[si.ratio] = s.untraced.qps() / s.alt.qps()
		}
	}
	// The store counters are the engine's own; where the store replay ran
	// it must have done exactly the engine's I/O.
	scanned, skipped := per(cChunksScanned), per(cChunksSkipped)
	engine := map[string]float64{"store.chunks_scanned_per_query": scanned, "store.disk_kb_per_query": per(cDiskB) / 1024}
	if scanned+skipped > 0 {
		engine["store.chunks_skipped_ratio"] = skipped / (scanned + skipped)
	}
	for name, eng := range engine {
		if replayed, ok := v[name]; ok && replayed != eng {
			s.problem("%s: replay %v, EngineStats %v", name, replayed, eng)
		}
		v[name] = eng
	}
	s.assertNil(v)

	if si.simRef != nil {
		virtual := simValues(si, v)
		v["core.wall_ms_per_virtual_s"] = ms(m.wall) / n / virtual
	}

	lat := sortedCopy(m.lat)
	v["client.samples"] = float64(len(lat))
	if len(lat) >= 1000 {
		v["client.latency_p99_ms"] = ms(percentile(lat, 0.99))
	}
	v["client.verify_share"] = float64(m.check) / float64(max(m.wall, 1))
	if u := s.untraced.qps(); u > 0 {
		v["client.trace_overhead_pct"] = 100 * (u - m.qps()) / u
	}
	v["host.slowdown"] = medianFloat(s.slow)
	v["host.nproc"] = float64(s.e.nproc)

	notes := map[string]string{"host.slowdown": s.slowNote()}
	if len(lat) < 1000 {
		notes["client.latency_p99_ms"] = "not reported below 1000 samples"
	}
	return inOrder(layerDefs, func(name string) metric { return metric{value: v[name], note: notes[name]} })
}

// slowNote summarises the run's yardstick readings.
func (s *state) slowNote() string {
	slow := append([]float64(nil), s.slow...)
	sort.Float64s(slow)
	return fmt.Sprintf("min %.3f max %.3f over %d yardstick readings", slow[0], slow[len(slow)-1], len(slow))
}

// assertNil checks that a layer the workload does not use did no
// work, and that the layer it exists for did some.
func (s *state) assertNil(v values) {
	families := map[string][]string{
		"group_multinode": {"exec.steal_rounds_per_query", "exec.steals_per_query", "exec.stolen_activations_per_query", "exec.stolen_bucket_kb_per_query", "exec.rows_redistributed_per_query"},
		"join_spill":      {"exec.spilled_kb_per_query", "exec.spilled_partitions_per_query", "exec.spill_phases_per_query"},
		"scan_disk":       {"store.chunks_scanned_per_query", "store.disk_kb_per_query"},
	}
	must := map[string][]string{
		"group_multinode": {"exec.rows_redistributed_per_query"},
		"join_spill":      {"exec.spilled_kb_per_query", "exec.spill_phases_per_query"},
		"scan_disk":       {"store.chunks_scanned_per_query", "store.chunks_skipped_ratio"},
	}
	for owner, names := range families {
		if owner == s.w.name {
			continue
		}
		for _, name := range names {
			if v[name] != 0 {
				s.problem("%s is %v, must be 0 off %s", name, v[name], owner)
			}
		}
	}
	for _, name := range must[s.w.name] {
		if v[name] == 0 {
			s.problem("%s is 0, the workload exists to exercise it", name)
		}
	}
}

// result assembles the workload's result: every attempted operation
// of every leg and off-window check, and the metrics of the run kind.
func (s *state) result(traced bool) *workloadResult {
	r := &workloadResult{Attempted: s.offAttempted, Failed: s.offFailed, Metrics: map[string]jsonMetric{}}
	for _, l := range []*leg{&s.main, &s.untraced, &s.nextOnly, &s.alt} {
		r.Attempted += l.ops
		r.Failed += l.failed
		if l.firstErr != nil {
			s.problem("measured query: %v", l.firstErr)
		}
	}
	if s.main.ops == 0 {
		s.problem("no operation measured")
	}
	if traced {
		r.list = s.layerMetrics()
	} else {
		r.list = s.endToEnd()
	}
	for _, m := range r.list {
		r.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	r.Problems = s.problems
	return r
}

// print writes every metric by name with its unit, per workload, and
// for a traced run the cost budget.
func (r *results) print(w io.Writer, states []*state) {
	for _, s := range states {
		res := r.Workloads[s.w.name]
		fmt.Fprintf(w, "\n== %s: %d client(s), %d samples, %d attempted, %d failed ==\n",
			s.w.name, s.clients, len(s.main.lat), res.Attempted, res.Failed)
		fmt.Fprintf(w, "  times are host-corrected: host slowdown %.3f (%s); uncorrected %.2f queries/s\n",
			medianFloat(s.slow), s.slowNote(), float64(s.main.ops-s.main.failed)/s.main.rawWall.Seconds())
		for _, m := range res.list {
			note := ""
			if m.note != "" {
				note = "  (" + m.note + ")"
			}
			fmt.Fprintf(w, "  %-36s %14s %-6s%s\n", m.name, fmtValue(m.value), m.unit, note)
		}
		if r.Trace {
			s.printBudget(w)
		}
		for _, p := range res.Problems {
			fmt.Fprintf(w, "  FAILED: %s\n", p)
		}
	}
	fmt.Fprintln(w)
}

// printBudget prints the workload's cost budget: the mean query span
// split into facade self times and the remainder, then the replayed
// single-threaded layer times as shares of it.
func (s *state) printBudget(w io.Writer) {
	rest := "exec (remainder)"
	if s.in.info().simRef != nil {
		rest = "core (the whole execution)"
	}
	rows, query := budget(s.tr.spans, rest)
	if query == 0 {
		return
	}
	fmt.Fprintf(w, "  cost budget, mean per query (query span %.3f ms):\n", ms(query))
	var sum time.Duration
	for _, b := range rows {
		sum += b.perQuery
		fmt.Fprintf(w, "    %-28s %10.3f ms %6.1f%%\n", b.name, ms(b.perQuery), 100*float64(b.perQuery)/float64(query))
	}
	fmt.Fprintf(w, "    %-28s %10.3f ms %6.1f%%\n", "sum", ms(sum), 100*float64(sum)/float64(query))
	for _, b := range s.replayed {
		fmt.Fprintf(w, "    %-28s %10.3f ms %6.1f%% of the query span (one thread)\n", b.name, ms(b.perQuery), 100*float64(b.perQuery)/float64(query))
	}
}

// compareFiles prints, for every (workload, metric) of two result
// files, the relative difference b vs a, and marks end-to-end metrics
// that worsened by more than their bound.
func compareFiles(w io.Writer, pathA, pathB string) error {
	load := func(path string) (*results, error) {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r results
		if err := json.Unmarshal(buf, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	if a.Trace != b.Trace || a.Quick != b.Quick || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "note: the two runs differ in kind (trace %v/%v, quick %v/%v, seconds %v/%v)\n",
			a.Trace, b.Trace, a.Quick, b.Quick, a.Seconds, b.Seconds)
	}
	defs := append(append([]metricDef(nil), endToEndDefs...), layerDefs...)
	beyond := 0
	fmt.Fprintf(w, "%-18s %-36s %14s %14s %9s\n", "workload", "metric", "a", "b", "b vs a")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			continue
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(w, "%-18s failed operations: a %d, b %d\n", wl.name, ra.Failed, rb.Failed)
		}
		for _, d := range defs {
			ma, oka := ra.Metrics[d.name]
			mb, okb := rb.Metrics[d.name]
			if !oka || !okb {
				continue
			}
			diff, mark := 0.0, ""
			switch {
			case ma.Value == mb.Value:
			case ma.Value == 0:
				mark = "  (a is 0)"
			default:
				diff = (mb.Value - ma.Value) / ma.Value
				worse := diff
				if d.better == "higher" {
					worse = -diff
				}
				if d.bound > 0 && worse > d.bound {
					mark = fmt.Sprintf("  WORSE beyond %.0f%%", 100*d.bound)
					beyond++
				}
			}
			fmt.Fprintf(w, "%-18s %-36s %14s %14s %+8.2f%%%s\n", wl.name, d.name, fmtValue(ma.Value), fmtValue(mb.Value), 100*diff, mark)
		}
	}
	fmt.Fprintf(w, "%d end-to-end metric(s) worse beyond their bound\n", beyond)
	return nil
}
