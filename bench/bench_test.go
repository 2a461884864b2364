package main

// Self-tests of the benchmark's own machinery. No timing assertions:
// they check arithmetic, determinism, the checker, and that a -quick
// run of every workload verifies all of its results.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"hierdb"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{15, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if supported(199, 0.95) || !supported(200, 0.95) {
		t.Error("p95 needs exactly 200 samples: ten beyond it")
	}
	var s []time.Duration
	for i := 1; i <= 200; i++ {
		s = append(s, time.Duration(i))
	}
	for p, want := range map[float64]time.Duration{0.5: 100, 0.95: 190, 0.99: 198, 1: 200} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..200, %v) = %d, want %d", p, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %d", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "query", ID: 1, Query: 1, Start: 0, End: 100},
		{Name: "hierdb.run_call", ID: 2, Parent: 1, Query: 1, Start: 10, End: 30},
		{Name: "hierdb.first_row", ID: 3, Parent: 1, Query: 1, Start: 20, End: 50}, // overlaps its sibling
		{Name: "hierdb.drain", ID: 4, Parent: 1, Query: 1, Start: 90, End: 120},    // outlives its parent
		{Name: "replay", ID: 5, Query: -1, Start: 200, End: 300},
		{Name: "store.read_chunk", ID: 6, Parent: 5, Query: -1, Start: 210, End: 250},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 20, 3: 30, 4: 30, 5: 60, 6: 40} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}

	// The budget of well-nested spans sums to the query span exactly.
	nested := []span{
		{Name: "query", ID: 1, Query: 1, Start: 0, End: 100},
		{Name: "hierdb.run_call", ID: 2, Parent: 1, Query: 1, Start: 0, End: 10},
		{Name: "hierdb.first_row", ID: 3, Parent: 1, Query: 1, Start: 10, End: 40},
		{Name: "hierdb.drain", ID: 4, Parent: 1, Query: 1, Start: 45, End: 100},
	}
	rows, query := budget(nested, "exec (remainder)")
	var sum time.Duration
	for _, r := range rows {
		sum += r.perQuery
	}
	if query != 100 || sum != query || rows[3].perQuery != 5 {
		t.Errorf("budget rows %v sum %d, query span %d", rows, sum, query)
	}
}

// quickEnv is the -quick environment the generation tests share.
func quickEnv(t *testing.T, seed uint64) env {
	return env{seed: seed, scale: 1.0 / 20, nproc: 2, dir: t.TempDir()}
}

func TestSeedDeterminism(t *testing.T) {
	type snapshot struct {
		fact, d1 *hierdb.Table
		want     expected
	}
	take := func(seed uint64) snapshot {
		e := quickEnv(t, seed)
		in, err := setupJoinStream(e)
		if err != nil {
			t.Fatal(err)
		}
		defer in.close()
		fact, d1, _ := streamTables(e)
		return snapshot{fact, d1, in.(*engineInst).want(0, 0)}
	}
	a, again, b := take(1), take(1), take(2)
	if !reflect.DeepEqual(a.fact.Rows, again.fact.Rows) || !reflect.DeepEqual(a.d1.Rows, again.d1.Rows) || a.want != again.want {
		t.Error("the same seed generated different tables or a different reference checksum")
	}
	if len(a.fact.Rows) != len(b.fact.Rows) || len(a.d1.Rows) != len(b.d1.Rows) || a.want.rows != b.want.rows {
		t.Errorf("another seed changed sizes: fact %d/%d, d1 %d/%d, result rows %d/%d",
			len(a.fact.Rows), len(b.fact.Rows), len(a.d1.Rows), len(b.d1.Rows), a.want.rows, b.want.rows)
	}
	if reflect.DeepEqual(a.fact.Rows, b.fact.Rows) || a.want.sum == b.want.sum {
		t.Error("another seed generated the same data")
	}
}

func TestCheckerCatchesDroppedAndDuplicatedRows(t *testing.T) {
	fact, d1, d2 := streamTables(quickEnv(t, 1))
	q := refQuery{scan: fact.Rows, preds: []hierdb.Pred{{Col: factV, Op: hierdb.Lt, Val: vRange / 2}}, joins: []refJoin{
		{build: d1.Rows, probeCol: factK1, buildCol: 0}, {build: d2.Rows, probeCol: factK2, buildCol: 0}}}
	rows := q.eval()
	want := checksumOf(rows)
	if want.rows != int64(len(fact.Rows)/2) {
		t.Fatalf("reference joined %d rows, want exactly half of %d", want.rows, len(fact.Rows))
	}
	shuffled := append([]hierdb.Row(nil), rows...)
	shuffled[0], shuffled[len(shuffled)-1] = shuffled[len(shuffled)-1], shuffled[0]
	if checksumOf(shuffled) != want {
		t.Error("checksum depends on row order")
	}
	if got := checksumOf(rows[1:]); got.rows == want.rows || got.sum == want.sum {
		t.Error("a dropped row went unnoticed")
	}
	if got := checksumOf(append(shuffled, rows[7])); got.rows == want.rows || got.sum == want.sum {
		t.Error("a duplicated row went unnoticed")
	}
	// Same count, one row replaced by a copy of another: only the sum tells.
	swapped := append([]hierdb.Row(nil), rows...)
	swapped[3] = rows[4]
	if got := checksumOf(swapped); got.rows != want.rows || got.sum == want.sum {
		t.Error("a replaced row went unnoticed")
	}
}

// TestQuickEndToEnd runs every workload at -quick size, untraced and
// traced (side by side, to keep the suite short): every result
// verified, every declared metric reported.
func TestQuickEndToEnd(t *testing.T) {
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("trace=%v", traced), func(t *testing.T) { quickEndToEnd(t, traced) })
	}
}

func quickEndToEnd(t *testing.T, traced bool) {
	t.Parallel()
	cfg := config{seed: 3, seconds: 1, quick: true, trace: traced, out: t.TempDir()}
	for _, w := range workloads {
		cfg.names = append(cfg.names, w.name)
	}
	res, err := run(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defs := endToEndDefs
	if traced {
		defs = layerDefs
	}
	for _, w := range workloads {
		r := res.Workloads[w.name]
		if r == nil || r.Failed != 0 || len(r.Problems) != 0 || r.Attempted == 0 {
			t.Fatalf("trace=%v %s: %+v", traced, w.name, r)
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("trace=%v %s: %d metrics, want %d", traced, w.name, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := r.Metrics[d.name]
			if !ok || m.Unit != d.unit || (!traced && m.Value <= 0) {
				t.Errorf("trace=%v %s: metric %s = %+v (present %v)", traced, w.name, d.name, m, ok)
			}
		}
		if traced {
			if _, err := os.Stat(filepath.Join(cfg.out, "trace-"+w.name+".json")); err != nil {
				t.Error(err)
			}
		}
	}
	var last struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]jsonMetric
	}
	if err := json.Unmarshal([]byte(res.lastLine()), &last); err != nil || !last.Correct || last.Attempted < 1 || last.Failed != 0 {
		t.Errorf("last line %+v: %v", last, err)
	}
}

func TestCompareMarksRegressions(t *testing.T) {
	mk := func(qps, p50 float64) *results {
		return &results{Seconds: 10, Workloads: map[string]*workloadResult{"join_stream": {Attempted: 1, Metrics: map[string]jsonMetric{
			"queries_per_s":  {qps, "1/s"},
			"latency_p50_ms": {p50, "ms"},
		}}}}
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := mk(100, 10).writeFile(a); err != nil {
		t.Fatal(err)
	}
	if err := mk(70, 10.5).writeFile(b); err != nil { // -30% throughput is beyond 25%, +5% latency is not
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareFiles(&out, a, b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.Contains(line, "queries_per_s") && !strings.Contains(line, "WORSE"):
			t.Errorf("throughput regression not marked: %q", line)
		case strings.Contains(line, "latency_p50_ms") && strings.Contains(line, "WORSE"):
			t.Errorf("latency within its bound marked: %q", line)
		}
	}
	if !strings.Contains(out.String(), "1 end-to-end metric(s) worse") {
		t.Errorf("summary line missing:\n%s", out.String())
	}
}

// TestStableSurfaceOnly greps the benchmark's own sources for API the
// ROADMAP schedules for deletion, so the deletion PRs compile against
// an unedited benchmark.
func TestStableSurfaceOnly(t *testing.T) {
	banned := regexp.MustCompile(`RegisterTable|\.Selectivity\(|\.Combine\(|Combine:|hierdb\.Execute\(|ExecuteGroupBy|exec\.(Pool|NewPool|Execute)|\.ReadBatch\(|spill\.Row|\.Scan\("[^"]*",|difftest`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if code, _, _ := strings.Cut(line, "//"); banned.MatchString(code) {
				t.Errorf("%s:%d uses API scheduled for deletion: %s", f, i+1, strings.TrimSpace(line))
			}
		}
	}
}

// TestManifestMatchesDefs keeps BENCHMARK.json, which the pipeline
// reads, equal to the tables this program reports from.
func TestManifestMatchesDefs(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/: ", err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var m struct {
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
		RunSeconds int     `json:"run_seconds"`
	}
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in bench", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), bench has %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got []entry, defs []metricDef) {
		if len(got) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in bench", len(got), kind, len(defs))
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, bench has %+v", kind, i, g, d)
			}
		}
	}
	same("end-to-end", m.EndToEnd, endToEndDefs)
	same("per-layer", m.PerLayer, layerDefs)
}
