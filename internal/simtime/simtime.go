// Package simtime implements the discrete-event simulation kernel on which
// the whole reproduction runs.
//
// The paper implemented its execution model on real KSR1 threads and
// simulated operator work, disks and the network (§5.1). This package plays
// the role of the KSR1: each simulated processor-thread is a coroutine
// (iter.Pull) that Run resumes one at a time while it advances a virtual
// clock, so a simulation runs on one OS thread, all simulated shared state
// is race-free by construction and every run is bit-for-bit deterministic.
//
// Processes express the passage of simulated time with Proc.Delay (e.g. CPU
// instructions being executed) and coordination with Cond (e.g. waiting for
// an activation queue to drain). Timed callbacks (After/At) model message
// deliveries and I/O completions.
package simtime

import (
	"errors"
	"fmt"
	"iter"
	"sort"
)

// Time is a point in virtual time, in nanoseconds.
type Time int64

// Duration aliases Time for readability when a length of time is meant.
type Duration = Time

// Convenient virtual-time units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch abs := max64(t, -t); {
	case abs == 0:
		return "0s"
	case abs < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case abs < Millisecond:
		return fmt.Sprintf("%.3gus", float64(t)/float64(Microsecond))
	case abs < Second:
		return fmt.Sprintf("%.3gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

func max64(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// event is a value-typed heap entry carrying a tagged payload: the dominant
// case (Delay, Cond.Signal, Spawn) dispatches proc directly, so scheduling
// allocates nothing; the general case (After/At) runs fn.
type event struct {
	at   Time
	seq  uint64
	proc *Proc  // when non-nil, dispatch this process
	fn   func() // otherwise, run fn in kernel context
}

func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a min-heap of events ordered by (at, seq), stored by value so
// push/pop never touch the allocator beyond amortized slice growth.
type eventHeap []event

//hierdb:hotpath
func (h *eventHeap) push(e event) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

//hierdb:hotpath
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release fn/proc references
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && s[l].before(s[least]) {
			least = l
		}
		if r < n && s[r].before(s[least]) {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	*h = s
	return top
}

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; call NewKernel.
//
// Every process is a coroutine (iter.Pull) and Run is the one driver
// loop: it resumes a process, the process runs until it parks, and the
// parking process drains same-time callbacks inline. When the next
// dispatch is the parking process itself (the dominant Delay case) it
// returns without a switch; otherwise it names the process to resume and
// yields to Run, which resumes it. A simulation therefore occupies one
// OS thread at a time, whatever GOMAXPROCS is.
type Kernel struct {
	now    Time
	seq    uint64
	events eventHeap
	procs  []*Proc
	live   int
	ran    bool
	// handoff is the process a parking process asks Run to resume next;
	// nil when the event heap drained.
	handoff *Proc
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// After schedules fn to run in kernel context after d has elapsed.
// It panics if d is negative.
func (k *Kernel) After(d Duration, fn func()) {
	if d < 0 {
		panic("simtime: negative delay")
	}
	k.at(k.now+d, fn)
}

// At schedules fn to run in kernel context at absolute time t, which must
// not be in the past.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic("simtime: event scheduled in the past")
	}
	k.at(t, fn)
}

func (k *Kernel) at(t Time, fn func()) {
	k.seq++
	k.events.push(event{at: t, seq: k.seq, fn: fn})
}

// dispatchAt schedules a direct dispatch of p at absolute time t. This is
// the allocation-free fast path behind Delay, Spawn, Cond.Signal and
// Cond.Broadcast.
//
//hierdb:hotpath
func (k *Kernel) dispatchAt(t Time, p *Proc) {
	k.seq++
	k.events.push(event{at: t, seq: k.seq, proc: p})
}

// Proc is a simulated sequential process (one per simulated processor-thread
// in the reproduction). All Proc methods must be called from the process's
// own body function.
type Proc struct {
	k    *Kernel
	name string
	body func(p *Proc)
	// next resumes the coroutine; stop unwinds a parked one. yield,
	// inside the coroutine, hands control back to Run.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	done  bool
	// waiting marks a proc parked on a Cond (used for deadlock reporting).
	waiting string
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Spawn creates a process that will start executing body at the current
// virtual time (once Run is processing events). Spawn may be called before
// Run or from within kernel context while running.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, body: body}
	p.next, p.stop = iter.Pull(p.coroutine)
	k.procs = append(k.procs, p)
	k.live++
	k.dispatchAt(k.now, p)
	return p
}

// errStopped unwinds a parked process whose coroutine Run stops.
var errStopped = errors.New("simtime: process stopped")

// coroutine runs the process body as an iter.Seq: every park that
// switches away is a yield. A stopped process unwinds from park with
// errStopped, which ends here; any other panic goes on to Run's caller.
func (p *Proc) coroutine(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		if !p.done {
			return
		}
		if r := recover(); r != nil && r != errStopped {
			panic(r)
		}
	}()
	p.body(p)
}

// advance drains the event heap up to the next dispatch of a live
// process and returns it, running callbacks inline and dropping
// dispatches of finished processes. It returns nil when the heap is
// empty.
//
//hierdb:hotpath
func (k *Kernel) advance() *Proc {
	for len(k.events) > 0 {
		e := k.events.pop()
		if e.at < k.now {
			panic("simtime: time went backwards")
		}
		k.now = e.at
		if e.proc == nil {
			e.fn()
			continue
		}
		if !e.proc.done {
			return e.proc
		}
	}
	return nil
}

// park suspends the calling process until some event dispatches it
// again. It drains events itself; only when another process (or none)
// is next does it yield to Run.
//
//hierdb:hotpath
func (p *Proc) park(why string) {
	p.waiting = why
	k := p.k
	if next := k.advance(); next != p {
		k.handoff = next
		if !p.yield(struct{}{}) {
			panic(errStopped)
		}
	}
	p.waiting = ""
}

// Delay advances virtual time by d for the calling process, modelling d of
// sequential work. It panics on negative d. Delay(0) yields the processor,
// allowing same-time events to run.
//
//hierdb:hotpath
func (p *Proc) Delay(d Duration) {
	if d < 0 {
		panic("simtime: negative delay")
	}
	k := p.k
	k.dispatchAt(k.now+d, p)
	p.park("delay")
}

// Run processes events until none remain. It returns an error if live
// processes are still parked when the event heap drains (a simulated
// deadlock), naming the stuck processes; their coroutines are stopped
// before Run returns. A panic or runtime.Goexit in a process body or a
// callback reaches Run's caller.
func (k *Kernel) Run() error {
	if k.ran {
		return fmt.Errorf("simtime: kernel already ran")
	}
	k.ran = true
	defer k.stopParked()
	for p := k.advance(); p != nil; {
		k.handoff = nil
		if _, ok := p.next(); ok {
			p = k.handoff
			continue
		}
		p.done = true
		k.live--
		p = k.advance()
	}
	if k.live > 0 {
		var stuck []string
		for _, p := range k.procs {
			if !p.done {
				stuck = append(stuck, fmt.Sprintf("%s (%s)", p.name, p.waiting))
			}
		}
		sort.Strings(stuck)
		return fmt.Errorf("simtime: deadlock at %v: %d live process(es) parked: %v", k.now, k.live, stuck)
	}
	return nil
}

// stopParked unwinds every process that has not finished — those a
// deadlock left parked, or all but the one whose panic is leaving Run —
// so no coroutine outlives Run. The heap is cleared first, so a deferred
// park in an unwinding body finds nothing to run.
func (k *Kernel) stopParked() {
	k.events = nil
	for _, p := range k.procs {
		if !p.done {
			p.done = true
			k.live--
			p.stop()
		}
	}
}

// Cond is a virtual-time condition variable. The zero value is not usable;
// create with NewCond. All methods must be called in kernel context (from a
// process body or a timed callback).
type Cond struct {
	k       *Kernel
	name    string
	label   string // precomputed park label; Wait must not allocate
	waiters []*Proc
}

// NewCond returns a condition variable attached to k. The name appears in
// deadlock reports.
func (k *Kernel) NewCond(name string) *Cond {
	return &Cond{k: k, name: name, label: "cond " + name}
}

// Wait parks p until another event calls Signal or Broadcast. As with
// sync.Cond, callers re-check their predicate in a loop.
//
//hierdb:hotpath
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park(c.label)
}

// Signal wakes the longest-waiting process, if any. The wakeup is delivered
// as a zero-delay event, preserving deterministic ordering.
//
//hierdb:hotpath
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters[len(c.waiters)-1] = nil
	c.waiters = c.waiters[:len(c.waiters)-1]
	c.k.dispatchAt(c.k.now, p)
}

// Broadcast wakes every waiting process.
//
//hierdb:hotpath
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = nil
	for _, p := range ws {
		c.k.dispatchAt(c.k.now, p)
	}
}

// Waiting reports how many processes are parked on c.
func (c *Cond) Waiting() int { return len(c.waiters) }
