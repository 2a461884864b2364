package simdisk

import (
	"testing"

	"hierdb/internal/simtime"
)

func TestDefaultParamsMatchPaperTable(t *testing.T) {
	p := DefaultParams()
	if p.Seek != 5*simtime.Millisecond {
		t.Errorf("Seek = %v", p.Seek)
	}
	if p.Latency != 17*simtime.Millisecond {
		t.Errorf("Latency = %v", p.Latency)
	}
	if p.TransferRate != 6<<20 {
		t.Errorf("TransferRate = %d", p.TransferRate)
	}
	if p.InitInstr != 5000 {
		t.Errorf("InitInstr = %d", p.InitInstr)
	}
	if p.CachePages != 8 {
		t.Errorf("CachePages = %d", p.CachePages)
	}
}

func TestSinglePageTiming(t *testing.T) {
	k := simtime.NewKernel()
	d := New(k, DefaultParams())
	var readAt simtime.Time
	k.Spawn("reader", func(p *simtime.Proc) {
		r := d.StartRead(1)
		for !r.TryRead() {
			p.Delay(r.NextReadyAt() - p.Now())
		}
		readAt = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := 5*simtime.Millisecond + 17*simtime.Millisecond + DefaultParams().PageTransfer()
	if readAt != want {
		t.Fatalf("first page at %v, want %v", readAt, want)
	}
}

func TestFIFOSerialization(t *testing.T) {
	k := simtime.NewKernel()
	d := New(k, DefaultParams())
	r1 := d.StartRead(4)
	r2 := d.StartRead(1)
	// r2's page must come after all of r1's transfers.
	if r2.NextReadyAt() <= r1.ready(3) {
		t.Fatalf("second request overlaps first: %v <= %v", r2.NextReadyAt(), r1.ready(3))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchWindowStallsSlowConsumer(t *testing.T) {
	p := DefaultParams()
	p.CachePages = 2
	k := simtime.NewKernel()
	d := New(k, p)
	var times []simtime.Time
	k.Spawn("slow", func(pr *simtime.Proc) {
		r := d.StartRead(6)
		for !r.Done() {
			for !r.TryRead() {
				pr.Delay(r.NextReadyAt() - pr.Now())
			}
			times = append(times, pr.Now())
			pr.Delay(50 * simtime.Millisecond) // much slower than the disk
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 6 {
		t.Fatalf("read %d pages", len(times))
	}
	// With a window of 2 and a 50ms consumer, page i (i>=2) cannot be
	// available before page i-2 was consumed.
	for i := 2; i < 6; i++ {
		if times[i] < times[i-2]+p.PageTransfer() {
			t.Fatalf("page %d at %v violates window (page %d consumed at %v)",
				i, times[i], i-2, times[i-2])
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	k := simtime.NewKernel()
	d := New(k, DefaultParams())
	d.StartRead(3)
	d.StartRead(2)
	s := d.Stats()
	if s.Requests != 2 || s.PagesRead != 5 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Busy <= 0 {
		t.Fatalf("busy = %v", s.Busy)
	}
}

func TestTryReadBeforeReady(t *testing.T) {
	k := simtime.NewKernel()
	d := New(k, DefaultParams())
	done := false
	k.Spawn("p", func(pr *simtime.Proc) {
		r := d.StartRead(1)
		if r.TryRead() {
			t.Error("TryRead succeeded at time 0")
		}
		pr.Delay(r.NextReadyAt() - pr.Now())
		if !r.TryRead() {
			t.Error("TryRead failed at ready time")
		}
		if !r.Done() {
			t.Error("request not done after last page")
		}
		if r.TryRead() {
			t.Error("TryRead succeeded on completed request")
		}
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("proc did not finish")
	}
}

func TestStartReadPanicsOnZeroPages(t *testing.T) {
	k := simtime.NewKernel()
	d := New(k, DefaultParams())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	d.StartRead(0)
}
