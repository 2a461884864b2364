package vec

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// boxCases returns, per typed kind, the values TestBoxInPlaceMatchesRuntimeBox
// boxes: the edge cases of the issue — null, 0, 255, 256, -1, MinInt64,
// MaxUint64, NaN, ±0.0, "", a long string, true, false — in the kind's own
// type.
func boxCases() map[Kind][]any {
	ints := []int64{0, 255, 256, -1 /* MaxUint64 as uint64 */, math.MinInt64, math.MaxInt64}
	out := map[Kind][]any{
		Float64: {nil, 0.0, 255.0, 256.0, -1.0, float64(math.MinInt64), float64(math.MaxUint64), math.NaN(), math.Copysign(0, -1), math.Inf(1)},
		Bool:    {nil, true, false},
		String:  {nil, "", strings.Repeat("a long string, ", 100), "0", "255", "true"},
	}
	for _, k := range []Kind{Int, Int32, Int64, Uint64} {
		vals := []any{nil}
		for _, v := range ints {
			switch k {
			case Int:
				vals = append(vals, int(v))
			case Int32:
				vals = append(vals, int32(v))
			case Int64:
				vals = append(vals, v)
			case Uint64:
				vals = append(vals, uint64(v))
			}
		}
		out[k] = vals
	}
	return out
}

// boxless columnizes vals (one typed kind, nulls allowed): a typed
// column has no Box, so every Value boxes from the mirror.
func boxless(t *testing.T, k Kind, vals []any) *Col {
	t.Helper()
	rows := make([]Row, len(vals))
	for i, v := range vals {
		rows[i] = Row{v}
	}
	b := FromRows(rows)
	checkBoxIffAny(t, "FromRows", b)
	if c := &b.Cols[0]; c.Kind != k {
		t.Fatalf("%v values columnize as %v", k, c.Kind)
	}
	return &b.Cols[0]
}

// sameBox fails unless got behaves as the runtime's box want does.
func sameBox(t *testing.T, what string, got, want any) {
	t.Helper()
	nan := false
	if f, ok := want.(float64); ok && f != f {
		nan = true
		if g, ok := got.(float64); !ok || g == g {
			t.Fatalf("%s: got %#v, want NaN", what, got)
		}
	} else if got != want {
		t.Fatalf("%s: got %#v != want %#v", what, got, want)
	}
	if reflect.TypeOf(got) != reflect.TypeOf(want) || KindOf(got) != KindOf(want) {
		t.Fatalf("%s: got type %T, want %T", what, got, want)
	}
	if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
		t.Fatalf("%s: %%#v %s, want %s", what, g, w)
	}
	switch x := got.(type) {
	case nil, int, int32, int64, uint64, float64, bool, string:
	default:
		t.Fatalf("%s: type switch sees %T", what, x)
	}
	// Map-key identity, both directions (NaN is never found, either way).
	for dir, ins := range [2][2]any{{want, got}, {got, want}} {
		m := map[any]int{ins[0]: 1}
		if hit := m[ins[1]] == 1; hit == nan {
			t.Fatalf("%s: map inserted with %d, looked up with the other: hit %v", what, dir, hit)
		}
	}
}

func TestBoxInPlaceMatchesRuntimeBox(t *testing.T) {
	if runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64" {
		for k := Int; k <= String; k++ {
			if typeWords[k] == nil {
				t.Errorf("%v boxes by copy on %s: its init self-check failed", k, runtime.GOARCH)
			}
		}
	}
	for k, vals := range boxCases() {
		c := boxless(t, k, vals)
		for pos, want := range vals {
			sameBox(t, fmt.Sprintf("%v[%d]", k, pos), c.Value(pos), want)
		}
	}
}

// TestBoxInPlaceSurvivesGC drops every reference to the columns but the
// boxes, collects, churns the heap so freed memory is reused, and checks
// the boxes still read their values.
func TestBoxInPlaceSurvivesGC(t *testing.T) {
	cases := boxCases()
	got := map[Kind][]any{}
	func() {
		for k, vals := range cases {
			c := boxless(t, k, vals)
			for pos := range vals {
				got[k] = append(got[k], c.Value(pos))
			}
		}
	}()
	for i := 0; i < 2; i++ {
		runtime.GC()
		junk := make([][]int64, 64)
		for j := range junk {
			junk[j] = make([]int64, 64)
			for w := range junk[j] {
				junk[j][w] = -0x5a5a5a5a5a5a5a5b
			}
		}
		runtime.KeepAlive(junk)
	}
	for k, vals := range cases {
		for pos, want := range vals {
			sameBox(t, fmt.Sprintf("%v[%d] after GC", k, pos), got[k][pos], want)
		}
	}
}

// TestBoxInPlaceZeroAlloc is vec's alloc gate (run by CI): delivering a
// typed column's values as interfaces — by Value, into rows, into a Box
// when FillBox turns a column Any — costs no heap box per value, and
// storing them copies them into an Appender's mirrors.
func TestBoxInPlaceZeroAlloc(t *testing.T) {
	rows := make([]Row, 1024)
	for i := range rows {
		rows[i] = Row{1000 + i, fmt.Sprint("s", i), float64(i) + 0.5, int64(i) << 40}
	}
	b := FromRows(rows)
	checkBoxIffAny(t, "FromRows", b)
	var sink any
	if a := testing.AllocsPerRun(10, func() {
		for ci := range b.Cols {
			for pos := 0; pos < b.N; pos++ {
				sink = b.Cols[ci].Value(pos)
			}
		}
	}); a != 0 {
		t.Fatalf("Value allocates %.0f per %d values", a, b.N*len(b.Cols))
	}
	_ = sink
	dst := make([]Row, 0, b.N)
	if a := testing.AllocsPerRun(10, func() {
		var arena Arena
		dst = b.AppendRows(dst[:0], &arena)
	}); a > 2 {
		t.Fatalf("AppendRows allocates %.0f for %d rows, want the arena chunk only", a, b.N)
	}
	rowsEq(t, dst, rows)
	var store *Batch
	if a := testing.AllocsPerRun(10, func() {
		ap := NewAppender([]Kind{Int, String, Float64, Int64}, b.N)
		ap.AppendBatch(b)
		store = ap.Batch()
	}); a > 32 {
		t.Fatalf("storing %d rows allocates %.0f, want a few per column, none per value", b.N, a)
	}
	checkBoxIffAny(t, "Appender", store)
	rowsEq(t, store.AppendRows(nil, new(Arena)), rows)
	if a := testing.AllocsPerRun(10, func() {
		c := b.Cols[0]
		c.FillBox()
	}); a != 1 {
		t.Fatalf("FillBox allocates %.0f for %d values, want the Box only", a, b.N)
	}
}

// TestBoxRowsMatchesValue is the boxing kernel's contract: for every
// kind — typed, boxed in place or by copy; turned Any, its Box boxed in
// place by FillBox; and an Any column holding nulls — through no index, a window past position 0
// or a permutation, for every row and a repeating subset, at strides 1
// and 3, BoxRows writes at dst[j*stride] exactly the value Value reads
// at the row's storage position, and nothing between.
func TestBoxRowsMatchesValue(t *testing.T) {
	cases := boxCases()
	cases[Any] = []any{1, nil, "x", nil, 2.5, nil, nil}
	for k, vals := range cases {
		for _, mode := range []string{"boxless", "copy", "box"} {
			if mode != "box" && k == Any {
				continue
			}
			t.Run(fmt.Sprint(k, "/", mode), func(t *testing.T) {
				if mode == "copy" {
					withCopyBox(t, k)
				}
				rows := make([]Row, len(vals))
				for i, v := range vals {
					rows[i] = Row{v}
				}
				c := FromRows(rows).Cols[0]
				if c.Kind != k {
					t.Fatalf("%v values columnize as %v", k, c.Kind)
				}
				if mode == "box" && k != Any {
					c.FillBox()
					for pos, v := range vals {
						sameBox(t, fmt.Sprintf("%v[%d] after FillBox", k, pos), c.Value(pos), v)
					}
				}
				boxRowsAsValue(t, &c)
			})
		}
	}
}

// boxRowsAsValue checks BoxRows against Value on c through every index
// and selection shape, at strides 1 and 3.
func boxRowsAsValue(t *testing.T, c *Col) {
	t.Helper()
	n := c.Len()
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32((i*5 + 3) % n)
	}
	for _, idx := range [][]int32{nil, Ident(n)[1:], perm} {
		c.Idx = idx
		m := n
		if idx != nil {
			m = len(idx)
		}
		for _, rows := range [][]int32{Ident(m), {int32(m - 1), 0, int32(m / 2), 0}} {
			for _, stride := range []int{1, 3} {
				dst := make([]any, len(rows)*stride+1)
				for i := range dst {
					dst[i] = "untouched"
				}
				c.BoxRows(dst, stride, rows)
				for i, got := range dst {
					want := any("untouched")
					if j := i / stride; i%stride == 0 && j < len(rows) {
						want = c.Value(c.Pos(int(rows[j])))
					}
					if fmt.Sprintf("%T %v", got, got) != fmt.Sprintf("%T %v", want, want) {
						t.Fatalf("idx %v, rows %v, stride %d: dst[%d] = %T %v, want %T %v", idx, rows, stride, i, got, got, want, want)
					}
				}
			}
		}
	}
}

// BenchmarkBoxRows prices vec's one boxing kernel (Col.BoxRows →
// boxInto) per value, in a row tile's shape: the 1 024 rows of one column
// written at stride 8, as into a block of 8-wide rows. Legs: an Int64
// mirror read densely, and through an index — a permutation of its
// storage positions, as a join output reads a build column — an indexed
// String mirror (both boxed in place), and an indexed Any column (its
// Box's words copied). None may allocate.
func BenchmarkBoxRows(b *testing.B) {
	const n, stride = 1024, 8
	rows := make([]Row, n)
	for i := range rows {
		var mixed any = i
		if i%2 == 1 {
			mixed = fmt.Sprint("m", i)
		}
		rows[i] = Row{int64(i) << 20, fmt.Sprint("s", i), mixed}
	}
	cols := FromRows(rows).Cols
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i * 389 % n) // 389 is prime to 1024: every position once
	}
	legs := []struct {
		name string
		col  Col
		idx  []int32
	}{
		{"int64/dense", cols[0], nil},
		{"int64/indexed", cols[0], perm},
		{"string/indexed", cols[1], perm},
		{"any/indexed", cols[2], perm},
	}
	dst := make([]any, n*stride)
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			c := leg.col
			c.Idx = leg.idx
			b.ReportAllocs()
			for range b.N {
				c.BoxRows(dst, stride, Ident(n))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/value")
		})
	}
}

// withCopyBox forces kind k onto the copying fallback for the rest of
// the test — the seam that exercises what a platform failing the init
// self-check runs.
func withCopyBox(t *testing.T, k Kind) {
	saved := typeWords[k]
	typeWords[k] = nil
	t.Cleanup(func() { typeWords[k] = saved })
}

func TestCopyBoxFallbackMatchesInPlace(t *testing.T) {
	for k, vals := range boxCases() {
		c := boxless(t, k, vals)
		inPlace := make([]any, len(vals))
		for pos := range vals {
			inPlace[pos] = c.Value(pos)
		}
		t.Run(k.String(), func(t *testing.T) {
			withCopyBox(t, k)
			for pos := range vals {
				copied := c.Value(pos)
				sameBox(t, fmt.Sprintf("%v[%d] copied", k, pos), copied, vals[pos])
				sameBox(t, fmt.Sprintf("%v[%d] copied vs in place", k, pos), copied, inPlace[pos])
			}
		})
	}
}

// TestUnsafeConfined: box.go is the module's only importer of unsafe.
func TestUnsafeConfined(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir // another module (bench/)
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		rel, _ := filepath.Rel(root, path)
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "unsafe" && filepath.ToSlash(rel) != "internal/vec/box.go" {
				t.Errorf("%s imports unsafe; only internal/vec/box.go may", rel)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d files under %s", files, root)
	}
}
