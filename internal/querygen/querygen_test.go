package querygen

import (
	"fmt"
	"testing"
	"testing/quick"

	"hierdb/internal/xrand"
)

func TestGenerateValid(t *testing.T) {
	r := xrand.New(17)
	for i := 0; i < 50; i++ {
		q := Generate(r, "q", DefaultParams(4))
		if err := q.Validate(); err != nil {
			t.Fatalf("query %d invalid: %v", i, err)
		}
		if len(q.Relations) != 12 || len(q.Edges) != 11 {
			t.Fatalf("query %d shape: %d relations, %d edges", i, len(q.Relations), len(q.Edges))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	q1 := Generate(xrand.New(5), "q", DefaultParams(2))
	q2 := Generate(xrand.New(5), "q", DefaultParams(2))
	for i := range q1.Relations {
		if q1.Relations[i].Cardinality != q2.Relations[i].Cardinality {
			t.Fatal("cardinalities differ across identical seeds")
		}
	}
	for i := range q1.Edges {
		if q1.Edges[i] != q2.Edges[i] {
			t.Fatal("edges differ across identical seeds")
		}
	}
}

func TestSelectivityMakesBoundedResults(t *testing.T) {
	r := xrand.New(23)
	q := Generate(r, "q", DefaultParams(1))
	for _, e := range q.Edges {
		ra, rb := q.Relations[e.A], q.Relations[e.B]
		max := ra.Cardinality
		if rb.Cardinality > max {
			max = rb.Cardinality
		}
		result := e.Selectivity * float64(ra.Cardinality) * float64(rb.Cardinality)
		lo, hi := 0.5*float64(max), 1.5*float64(max)
		if result < lo-1 || result > hi+1 {
			t.Fatalf("edge result %.0f outside [%.0f, %.0f]", result, lo, hi)
		}
	}
}

func TestGraphIsTreeQuick(t *testing.T) {
	f := func(seed uint64, relsRaw uint8) bool {
		p := DefaultParams(2)
		p.Relations = int(relsRaw%11) + 2
		q := Generate(xrand.New(seed), "q", p)
		return q.Validate() == nil && q.NumJoins() == p.Relations-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBrokenQueries(t *testing.T) {
	r := xrand.New(3)
	q := Generate(r, "q", DefaultParams(1))

	disconnected := *q
	disconnected.Edges = append([]Edge(nil), q.Edges...)
	disconnected.Edges[0] = disconnected.Edges[1] // duplicate edge, leaves a vertex unreached
	if err := disconnected.Validate(); err == nil {
		t.Error("disconnected graph accepted")
	}

	badSel := *q
	badSel.Edges = append([]Edge(nil), q.Edges...)
	badSel.Edges[0].Selectivity = 0
	if err := badSel.Validate(); err == nil {
		t.Error("zero selectivity accepted")
	}

	tooFew := &Query{Name: "x"}
	if err := tooFew.Validate(); err == nil {
		t.Error("empty query accepted")
	}
}

func TestClassWeightsBias(t *testing.T) {
	p := DefaultParams(1)
	p.ClassWeights = [3]float64{1, 0, 0} // all small
	q := Generate(xrand.New(9), "q", p)
	for _, rel := range q.Relations {
		if rel.Cardinality > 20_000 {
			t.Fatalf("non-small relation with small-only weights: %d", rel.Cardinality)
		}
	}
}

func TestGenerateGatedAccepts(t *testing.T) {
	r := xrand.New(31)
	calls := 0
	q := GenerateGated(r, "q", DefaultParams(1), 10, func(q *Query) (bool, float64) {
		calls++
		return calls == 3, 1
	})
	if calls != 3 {
		t.Fatalf("accept called %d times", calls)
	}
	if q == nil {
		t.Fatal("nil query")
	}
}

func TestGenerateGatedFallsBackToClosest(t *testing.T) {
	r := xrand.New(31)
	best := 0
	q := GenerateGated(r, "q", DefaultParams(1), 5, func(q *Query) (bool, float64) {
		best++
		return false, float64(10 - best) // last is closest
	})
	if q == nil {
		t.Fatal("nil query on fallback")
	}
}

// TestScanPredsShape: 0-2 predicates per scan, columns in range, every
// operator and both constant families drawn, and the draw a function of
// the generator state alone.
func TestScanPredsShape(t *testing.T) {
	r := xrand.New(11)
	counts := [3]int{}
	ops := map[PredOp]int{}
	foreign := 0
	for i := 0; i < 2000; i++ {
		ncols := 1 + i%5
		ps := ScanPreds(r, ncols)
		if len(ps) > 2 {
			t.Fatalf("%d predicates on one scan", len(ps))
		}
		counts[len(ps)]++
		for _, p := range ps {
			if p.Col < 0 || p.Col >= ncols || p.Pick < 0 || p.Pick >= 1 || p.Op > PredNotNull {
				t.Fatalf("out-of-range draw %+v over %d columns", p, ncols)
			}
			ops[p.Op]++
			if p.Foreign {
				foreign++
			}
		}
	}
	if counts[0] == 0 || counts[1] == 0 || counts[2] == 0 || len(ops) != int(PredNotNull)+1 || foreign == 0 {
		t.Fatalf("draw misses a shape: counts %v ops %v foreign %d", counts, ops, foreign)
	}
	a, b := ScanPreds(xrand.New(5), 4), ScanPreds(xrand.New(5), 4)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same state, different draws: %v vs %v", a, b)
	}
}

// TestDrawGroupByShape: one to three aggregates, picks in range, every
// function, both key sides and both projection choices drawn, and the
// draw a function of the generator state alone.
func TestDrawGroupByShape(t *testing.T) {
	r := xrand.New(13)
	funcs := map[AggFunc]int{}
	shapes := map[[2]bool]int{}
	for i := 0; i < 500; i++ {
		g := DrawGroupBy(r)
		if len(g.Aggs) < 1 || len(g.Aggs) > 3 || g.KeyPick < 0 || g.KeyPick >= 1 {
			t.Fatalf("out-of-range draw %+v", g)
		}
		for _, a := range g.Aggs {
			if a.Func > AggMax || a.Pick < 0 || a.Pick >= 1 {
				t.Fatalf("out-of-range aggregate %+v", a)
			}
			funcs[a.Func]++
		}
		shapes[[2]bool{g.KeyBuild, g.Project}]++
	}
	if len(funcs) != 4 || len(shapes) != 4 {
		t.Fatalf("draw misses a shape: functions %v, (build key, projected) %v", funcs, shapes)
	}
	if a, b := DrawGroupBy(xrand.New(5)), DrawGroupBy(xrand.New(5)); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same state, different draws: %v vs %v", a, b)
	}
}
