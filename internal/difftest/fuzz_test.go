package difftest

import (
	"context"
	"fmt"
	"testing"

	"hierdb"
	"hierdb/internal/xrand"
)

// FuzzJoinEquivalence fuzzes the engine's configuration space on a
// two-table join: key distribution (domain size and a hot-key skew
// knob), batch/morsel granularities, and the memory budget. Every
// configuration must return the reference multiset. The committed seed
// corpus under testdata/fuzz pins the interesting regimes (tiny budgets
// that force deep re-partitioning, hot keys that defeat partitioning,
// batch sizes of 1, null-heavy and mixed-type key columns); CI
// additionally runs a short -fuzztime smoke.
//
// Two high seed bits steer the key-column shape (so the historical
// corpus, whose seeds never set them, is unaffected): bit 40 makes the
// key column null-heavy (the columnar kernels must route nulls through
// bitmaps, side lists and the spill codec's null sections), bit 41
// mixes int and string keys in one column (defeating typed indexing and
// typed spill encoding — the boxed Any paths must agree with them).
func FuzzJoinEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint8(0), uint8(0), uint8(0), uint32(0))            // defaults, unlimited memory
	f.Add(uint64(2), uint16(8), uint8(128), uint8(4), uint8(16), uint32(2048))       // small domain, mild skew, tiny budget
	f.Add(uint64(3), uint16(1), uint8(255), uint8(1), uint8(1), uint32(512))         // one giant key: recursion hits the depth cap
	f.Add(uint64(4), uint16(500), uint8(0), uint8(255), uint8(255), uint32(65535))   // large batches/morsels, spill at the margin
	f.Add(uint64(0xbeef), uint16(97), uint8(30), uint8(7), uint8(3), uint32(12345))  // odd granularities
	f.Add(uint64(1)<<40|7, uint16(16), uint8(0), uint8(0), uint8(0), uint32(1024))   // null-heavy key column under a tiny budget
	f.Add(uint64(3)<<40|11, uint16(32), uint8(64), uint8(8), uint8(8), uint32(4096)) // mixed int/string keys with nulls, skewed
	f.Fuzz(func(t *testing.T, seed uint64, keyDomain uint16, skew, batch, morsel uint8, memBudget uint32) {
		dom := int(keyDomain)%512 + 1
		nullHeavy := seed&(1<<40) != 0
		mixedKeys := seed&(1<<41) != 0
		r := xrand.New(seed)
		drawKey := func() any {
			if nullHeavy && r.Intn(4) == 0 {
				return nil // null key (matches only other nulls)
			}
			k := r.Intn(dom)
			if skew > 0 && r.Intn(256) < int(skew) {
				k = 0 // hot key
			}
			if mixedKeys && k%3 == 0 {
				return fmt.Sprintf("s%d", k) // string key sharing the column with ints
			}
			return k
		}
		build := &hierdb.Table{Name: "b", Cols: []string{"k", "v"}}
		for i := 0; i < 100+int(seed%200); i++ {
			build.Rows = append(build.Rows, hierdb.Row{drawKey(), fmt.Sprintf("b%d", i)})
		}
		probe := &hierdb.Table{Name: "p", Cols: []string{"k", "v"}}
		for i := 0; i < 200+int(seed%400); i++ {
			probe.Rows = append(probe.Rows, hierdb.Row{drawKey(), i})
		}

		run := func(opts ...hierdb.Option) map[string]int {
			db := hierdb.Open(opts...)
			defer db.Close()
			for _, tb := range []*hierdb.Table{build, probe} {
				if err := db.Register(tb.Name, hierdb.FromTable(tb)); err != nil {
					t.Fatal(err)
				}
			}
			rows, _, err := db.Scan("p").Join(db.Scan("b"), hierdb.KeyCol(0), hierdb.KeyCol(0)).
				Collect(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return Multiset(rows)
		}

		ref := run(hierdb.WithWorkers(4))
		budget := int64(memBudget) // 0 = unlimited leg degenerates to the reference config
		gran := []hierdb.Option{
			hierdb.WithBatch(int(batch)),
			hierdb.WithMorsel(int(morsel) * 16),
			hierdb.WithMemory(budget),
			hierdb.WithSpillDir(t.TempDir()),
		}
		for name, opts := range map[string][]hierdb.Option{
			"governed":       append([]hierdb.Option{hierdb.WithWorkers(3)}, gran...),
			"governed-2node": append([]hierdb.Option{hierdb.WithNodes(2), hierdb.WithWorkers(2)}, gran...),
		} {
			if err := DiffMultisets(name, "reference", run(opts...), ref); err != nil {
				t.Fatalf("seed=%d dom=%d skew=%d batch=%d morsel=%d budget=%d: %v",
					seed, dom, skew, batch, morsel, budget, err)
			}
		}
	})
}
