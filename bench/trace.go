package main

// The traced run's span recorder. Spans are recorded from this
// package's own files, around the calls into each layer (spans inside
// the engine are a later change); they stay in memory until the run
// ends and are then written as JSON.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent 0 means a
// root; spans of one query share Query (replay spans carry -1).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Client int    `json:"client"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	queries int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)} }

// add records one span and returns its id. Callers hold no lock.
func (t *tracer) add(name string, parent, query, client int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addLocked(name, parent, query, client, start, end)
}

func (t *tracer) addLocked(name string, parent, query, client int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name, id, parent, query, client, int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))})
	return id
}

// query records one live query: the `query` span from just before Run
// (t0) to stream end (t3), with the facade boundaries inside it — Run
// returned (t1), first Next returned (t2).
func (t *tracer) query(client int, t0, t1, t2, t3 time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queries++
	q := t.addLocked("query", 0, t.queries, client, t0, t3)
	if t1 == t0 && t2 == t0 {
		return // sim_hier: no facade boundary inside an execution
	}
	t.addLocked("hierdb.run_call", q, t.queries, client, t0, t1)
	t.addLocked("hierdb.first_row", q, t.queries, client, t1, t2)
	t.addLocked("hierdb.drain", q, t.queries, client, t2, t3)
}

// setEnd patches the end of a span recorded before its children.
func (t *tracer) setEnd(id int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(end.Sub(t.epoch))
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once, and a child is clipped to its parent).
func selfTimes(spans []span) map[int]time.Duration {
	byID := make(map[int]*span, len(spans))
	children := make(map[int][]*span)
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for id, s := range byID {
		kids := children[id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[id] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// budgetRow is one line of a workload's cost budget: a layer's self
// time per query.
type budgetRow struct {
	name     string
	perQuery time.Duration
}

// budget attributes the mean `query` span to the facade spans inside
// it plus a remainder — time inside the query interval that no facade
// call covers — booked to the layer named by rest. The rows sum to the
// mean query span.
func budget(spans []span, rest string) (rows []budgetRow, query time.Duration) {
	self := selfTimes(spans)
	sum := make(map[string]time.Duration)
	var n int64
	var total time.Duration
	for i := range spans {
		s := &spans[i]
		if s.Query < 0 {
			continue
		}
		name := s.Name
		if name == "query" {
			n++
			total += time.Duration(s.End - s.Start)
			name = rest
		}
		sum[name] += self[s.ID]
	}
	if n == 0 {
		return nil, 0
	}
	for _, name := range []string{"hierdb.run_call", "hierdb.first_row", "hierdb.drain", rest} {
		rows = append(rows, budgetRow{name, sum[name] / time.Duration(n)})
	}
	return rows, total / time.Duration(n)
}
