package simtime

// Microbenchmarks and allocation-regression gates for the kernel hot
// path. The tentpole claim — scheduling a Delay, a Signal wakeup or a
// process dispatch allocates nothing — is pinned with
// testing.AllocsPerRun so it cannot silently rot.

import "testing"

// BenchmarkKernelDelay measures one Proc.Delay round trip: push the
// dispatch event, park the process, pop the event and resume.
func BenchmarkKernelDelay(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	k.Spawn("delayer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Delay(Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelSignalWait measures a Cond ping-pong between two
// processes: each iteration is one Signal plus one Wait on each side.
func BenchmarkKernelSignalWait(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	ping := k.NewCond("ping")
	pong := k.NewCond("pong")
	// The waiter spawns first so its Wait precedes the first Signal.
	k.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			pong.Wait(p)
			ping.Signal()
		}
	})
	k.Spawn("signaler", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			pong.Signal()
			ping.Wait(p)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelAfter measures the general timed-callback path (the
// only scheduling path that may allocate, for the caller's closure).
func BenchmarkKernelAfter(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	n := 0
	var tick func()
	tick = func() {
		if n < b.N {
			n++
			k.After(Microsecond, tick)
		}
	}
	k.After(0, tick)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestDelaySchedulingZeroAlloc pins the Proc.Delay scheduling path
// (dispatchAt: event construction plus heap push) at zero allocations
// once the event heap has grown to capacity.
func TestDelaySchedulingZeroAlloc(t *testing.T) {
	k := NewKernel()
	p := &Proc{k: k, name: "x"}
	k.events = make(eventHeap, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			k.dispatchAt(k.now+Duration(i), p)
		}
		k.events = k.events[:0]
	})
	if allocs != 0 {
		t.Fatalf("Delay scheduling path allocates %.1f times per run, want 0", allocs)
	}
}

// TestSignalSchedulingZeroAlloc pins the Cond.Signal wakeup path (waiter
// dequeue plus dispatch scheduling) at zero allocations.
func TestSignalSchedulingZeroAlloc(t *testing.T) {
	k := NewKernel()
	c := k.NewCond("gate")
	p := &Proc{k: k, name: "x"}
	buf := make([]*Proc, 0, 8)
	k.events = make(eventHeap, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		c.waiters = append(buf[:0], p, p, p, p)
		c.Signal()
		c.Signal()
		c.Broadcast()
		k.events = k.events[:0]
	})
	if allocs != 0 {
		t.Fatalf("Signal/Broadcast scheduling path allocates %.1f times per run, want 0", allocs)
	}
}

// TestKernelRunAmortizedAllocs is the end-to-end gate: a full kernel run
// with 1000 delays must stay within the fixed setup cost (process spawn,
// its coroutine, first heap growth). Before the value-typed heap this run cost
// one event plus one closure allocation per delay (>2000 allocations).
func TestKernelRunAmortizedAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		k := NewKernel()
		k.Spawn("delayer", func(p *Proc) {
			for i := 0; i < 1000; i++ {
				p.Delay(Microsecond)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Fatalf("kernel run with 1000 delays allocates %.0f times, want <= 100 (setup only)", allocs)
	}
}
