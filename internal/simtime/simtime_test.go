package simtime

import (
	"runtime"
	"testing"
	"testing/quick"

	"hierdb/internal/leaktest"
)

func TestDelayAdvancesClock(t *testing.T) {
	k := NewKernel()
	var end Time
	k.Spawn("p", func(p *Proc) {
		p.Delay(5 * Millisecond)
		p.Delay(2 * Millisecond)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 7*Millisecond {
		t.Fatalf("end = %v, want 7ms", end)
	}
}

func TestEventsOrderedByTimeThenSeq(t *testing.T) {
	k := NewKernel()
	var order []int
	k.After(2*Second, func() { order = append(order, 3) })
	k.After(1*Second, func() { order = append(order, 1) })
	k.After(1*Second, func() { order = append(order, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var trace []string
		k.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Delay(10 * Microsecond)
				trace = append(trace, "a")
			}
		})
		k.Spawn("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Delay(15 * Microsecond)
				trace = append(trace, "b")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	t1, t2 := run(), run()
	if len(t1) != 6 {
		t.Fatalf("trace length %d", len(t1))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("nondeterministic interleaving: %v vs %v", t1, t2)
		}
	}
	// a wakes at 10,20,30; b at 15,30,45. At t=30 b's event was scheduled
	// first (at t=15, before a's at t=20), so b precedes a there.
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if t1[i] != want[i] {
			t.Fatalf("trace = %v, want %v", t1, want)
		}
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	k := NewKernel()
	c := k.NewCond("q")
	var woke []string
	for _, name := range []string{"p1", "p2", "p3"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			c.Wait(p)
			woke = append(woke, name)
		})
	}
	k.After(1*Millisecond, func() { c.Signal() })
	k.After(2*Millisecond, func() { c.Signal() })
	k.After(3*Millisecond, func() { c.Signal() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 || woke[0] != "p1" || woke[1] != "p2" || woke[2] != "p3" {
		t.Fatalf("wake order = %v", woke)
	}
}

func TestCondBroadcast(t *testing.T) {
	k := NewKernel()
	c := k.NewCond("all")
	n := 0
	for i := 0; i < 5; i++ {
		k.Spawn("w", func(p *Proc) {
			c.Wait(p)
			n++
		})
	}
	k.After(1*Second, func() {
		if c.Waiting() != 5 {
			t.Errorf("Waiting() = %d, want 5", c.Waiting())
		}
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("woke %d, want 5", n)
	}
}

func TestCondBroadcastPreservesWaitOrder(t *testing.T) {
	k := NewKernel()
	c := k.NewCond("all")
	var woke []string
	names := []string{"w1", "w2", "w3", "w4"}
	for i, name := range names {
		i, name := i, name
		k.Spawn(name, func(p *Proc) {
			// Stagger arrival so the wait order is w1..w4.
			p.Delay(Duration(i) * Microsecond)
			c.Wait(p)
			woke = append(woke, name)
		})
	}
	k.After(1*Millisecond, func() { c.Broadcast() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != len(names) {
		t.Fatalf("woke %d of %d", len(woke), len(names))
	}
	for i, name := range names {
		if woke[i] != name {
			t.Fatalf("broadcast wake order = %v, want %v", woke, names)
		}
	}
}

func TestCondWaitingCountsInterleaved(t *testing.T) {
	k := NewKernel()
	c := k.NewCond("gate")
	// Three waiters park one microsecond apart; signals are interleaved
	// with the arrivals. Waiting() must reflect parked-minus-signalled at
	// every step.
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn("w", func(p *Proc) {
			p.Delay(Duration(10*i) * Microsecond)
			c.Wait(p)
		})
	}
	type obs struct {
		at        Time
		want, got int
	}
	var bad []obs
	check := func(at Time, want int) {
		k.At(at, func() {
			if c.Waiting() != want {
				bad = append(bad, obs{at, want, c.Waiting()})
			}
		})
	}
	check(5*Microsecond, 1)  // w0 parked
	check(15*Microsecond, 2) // w0, w1 parked
	k.At(16*Microsecond, func() { c.Signal() })
	check(17*Microsecond, 1) // w0 signalled out
	check(25*Microsecond, 2) // w2 parked
	k.At(26*Microsecond, func() { c.Signal() })
	k.At(27*Microsecond, func() { c.Signal() })
	check(28*Microsecond, 0) // drained
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, o := range bad {
		t.Errorf("Waiting() at %v = %d, want %d", o.at, o.got, o.want)
	}
}

// TestDeadlockDetected checks the deadlock report and that a deadlocked
// Run leaves no process behind: ten deadlocked kernels must not add ten
// parked goroutines.
func TestDeadlockDetected(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		k := NewKernel()
		c := k.NewCond("never")
		k.Spawn("stuck", func(p *Proc) { c.Wait(p) })
		err := k.Run()
		if err == nil {
			t.Fatal("expected deadlock error")
		}
		if want := "simtime: deadlock at 0s: 1 live process(es) parked: [stuck (cond never)]"; err.Error() != want {
			t.Fatalf("deadlock error = %q, want %q", err, want)
		}
	}
	leaktest.Settle(t, base, 2)
}

func TestProducerConsumerHandshake(t *testing.T) {
	k := NewKernel()
	notEmpty := k.NewCond("notEmpty")
	notFull := k.NewCond("notFull")
	const cap = 2
	var queue []int
	var got []int
	k.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 10; i++ {
			for len(queue) >= cap {
				notFull.Wait(p)
			}
			queue = append(queue, i)
			notEmpty.Signal()
			p.Delay(1 * Microsecond)
		}
	})
	k.Spawn("consumer", func(p *Proc) {
		for len(got) < 10 {
			for len(queue) == 0 {
				notEmpty.Wait(p)
			}
			got = append(got, queue[0])
			queue = queue[1:]
			notFull.Signal()
			p.Delay(3 * Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got = %v", got)
		}
	}
}

func TestSpawnFromWithinProc(t *testing.T) {
	k := NewKernel()
	var childRan bool
	k.Spawn("parent", func(p *Proc) {
		p.Delay(1 * Second)
		k.Spawn("child", func(c *Proc) {
			c.Delay(1 * Second)
			childRan = true
		})
		p.Delay(5 * Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
	if k.Now() != 6*Second {
		t.Fatalf("final time %v, want 6s", k.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative Delay did not panic")
			}
		}()
		p.Delay(-1)
	})
	// The proc body recovers, so Run completes normally.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunTwiceErrors(t *testing.T) {
	k := NewKernel()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err == nil {
		t.Fatal("second Run did not error")
	}
}

func TestClockMonotoneQuick(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		k := NewKernel()
		last := Time(-1)
		ok := true
		for _, d := range delaysRaw {
			d := Duration(d) * Microsecond
			k.After(d, func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	if s := (1500 * Millisecond).String(); s != "1.500s" {
		t.Fatalf("String = %q", s)
	}
	if sec := (2 * Second).Seconds(); sec != 2 {
		t.Fatalf("Seconds = %v", sec)
	}
}
