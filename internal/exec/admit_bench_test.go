package exec

// Benchmarks for the admission controller and memory account hot paths,
// gated by cmd/benchdiff against BENCH_engine.json. /grant is the
// uncontended Submit fast path (one mutex acquire per side);/park is
// the full park-and-handoff cycle a queued Submit pays: goroutine
// parks, release transfers the slot, done channel wakes it.
// BenchmarkChargeMem is a governed fragment's chargeMem/unchargeMem mix:
// one batch-sized charge a batch, two atomic adds, and one uncharge per
// working-set collapse.

import (
	"context"
	"runtime"
	"testing"
)

func BenchmarkAdmission(b *testing.B) {
	ctx := context.Background()
	b.Run("grant", func(b *testing.B) {
		ad := newAdmitter(1, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ad.acquire(ctx, ""); err != nil {
				b.Fatal(err)
			}
			ad.release()
		}
	})
	b.Run("park", func(b *testing.B) {
		ad := newAdmitter(1, 0)
		if _, err := ad.acquire(ctx, ""); err != nil {
			b.Fatal(err)
		}
		done := make(chan struct{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			go func() {
				if _, err := ad.acquire(ctx, "t"); err != nil {
					b.Error(err)
				}
				done <- struct{}{}
			}()
			for ad.queued() != 1 {
				runtime.Gosched()
			}
			// The waiter inherits the slot; inflight never dips, so the
			// next iteration's waiter parks behind it again.
			ad.release()
			<-done
		}
	})
}

func BenchmarkChargeMem(b *testing.B) {
	const step = 4 << 10    // one batch-sized charge
	const ceiling = 8 << 20 // fragment working set before collapse
	q := accountFragments(b, 1<<30)()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if used := q.memUsed.Load(); used+step > ceiling {
			q.unchargeMem(used)
		}
		if q.chargeMem(step) {
			b.Fatal("charge denied under a 1GiB budget")
		}
	}
	q.finalize()
}
