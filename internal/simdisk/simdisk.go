// Package simdisk models the disks of an SM-node with the parameters of
// §5.1.1 of the paper: one disk per processor, 17 ms latency, 5 ms seek,
// 6 MB/s transfer rate, a 5000-instruction asynchronous-I/O initiation cost
// and an 8-page I/O cache.
//
// The interface is poll-based to match the paper's asynchronous-I/O code
// sketch (§4 Activation Execution): a thread initiates a multi-page read and
// then repeatedly calls TryRead; while a page is not yet available the
// thread processes other activations instead of blocking.
package simdisk

import "hierdb/internal/simtime"

// Params are the disk parameters. Defaults mirror the paper's table.
type Params struct {
	// Seek is the seek time charged once per request (paper: 5 ms).
	Seek simtime.Duration
	// Latency is the rotational latency charged once per request
	// (paper: 17 ms).
	Latency simtime.Duration
	// TransferRate is the sustained transfer rate in bytes per virtual
	// second (paper: 6 MB/s).
	TransferRate int64
	// InitInstr is the CPU cost, in instructions, of initiating an
	// asynchronous I/O (paper: 5000). Charged by the caller.
	InitInstr int64
	// CachePages is the size of the per-request I/O cache (prefetch
	// window) in pages (paper: 8).
	CachePages int
	// PageSize is the page size in bytes (8 KB, implied by the network
	// cost table).
	PageSize int64
}

// DefaultParams returns the paper's disk parameter table.
func DefaultParams() Params {
	return Params{
		Seek:         5 * simtime.Millisecond,
		Latency:      17 * simtime.Millisecond,
		TransferRate: 6 << 20,
		InitInstr:    5000,
		CachePages:   8,
		PageSize:     8192,
	}
}

// PageTransfer returns the time to transfer one page.
func (p Params) PageTransfer() simtime.Duration {
	return simtime.Duration(p.PageSize * int64(simtime.Second) / p.TransferRate)
}

// Stats accumulates per-disk counters.
type Stats struct {
	Requests  int64
	PagesRead int64
	// Busy is the total time the disk arm/channel was occupied.
	Busy simtime.Duration
}

// Disk is a single simulated disk unit. Requests are serialized in FIFO
// order on the disk (busyUntil): a request issued while the disk is busy
// starts when the previous transfers complete.
type Disk struct {
	k         *simtime.Kernel
	params    Params
	busyUntil simtime.Time
	stats     Stats
	// reqSlab is the rest of the chunk StartRead carves requests from,
	// so a read costs no allocation of its own; each chunk is twice the
	// last, reqSlabLen, from 8 up to 256 requests.
	reqSlab    []Request
	reqSlabLen int
}

// New returns a disk attached to k.
func New(k *simtime.Kernel, p Params) *Disk {
	return &Disk{k: k, params: p}
}

// Params returns the disk parameters.
func (d *Disk) Params() Params { return d.params }

// Stats returns a copy of the accumulated counters.
func (d *Disk) Stats() Stats { return d.stats }

// Request is an in-flight asynchronous multi-page read.
type Request struct {
	disk  *Disk
	pages int
	// Page i can be consumed from first + (i+1)·step on, before
	// accounting for the prefetch window.
	first, step simtime.Time
	// consumedAt[i] is when page i was consumed, kept only for the
	// pages a later page's prefetch window looks back to (the first
	// pages-CachePages).
	consumedAt []simtime.Time
	consumed   int
}

// StartRead initiates an asynchronous read of pages pages. The caller must
// separately charge Params().InitInstr of CPU to the issuing processor.
// pages must be positive.
func (d *Disk) StartRead(pages int) *Request {
	if pages <= 0 {
		panic("simdisk: StartRead with non-positive page count")
	}
	now := d.k.Now()
	start := d.busyUntil
	if start < now {
		start = now
	}
	if len(d.reqSlab) == 0 {
		d.reqSlabLen = min(max(2*d.reqSlabLen, 8), 256)
		d.reqSlab = make([]Request, d.reqSlabLen)
	}
	r := &d.reqSlab[0]
	d.reqSlab = d.reqSlab[1:]
	*r = Request{
		disk:  d,
		pages: pages,
		first: start + d.params.Seek + d.params.Latency,
		step:  d.params.PageTransfer(),
	}
	if w := d.params.CachePages; pages > w {
		r.consumedAt = make([]simtime.Time, pages-w)
	}
	d.busyUntil = r.ready(pages - 1)
	d.stats.Requests++
	d.stats.PagesRead += int64(pages)
	d.stats.Busy += d.busyUntil - start
	return r
}

// ready returns the earliest virtual time page i can be consumed,
// before accounting for the prefetch window.
func (r *Request) ready(i int) simtime.Time {
	return r.first + simtime.Duration(i+1)*r.step
}

// availableAt returns the earliest time the next unconsumed page can be
// read, folding in the prefetch-window constraint: the disk cannot be more
// than CachePages ahead of the consumer, so page i only becomes available
// one page-transfer after page i-CachePages was consumed.
func (r *Request) availableAt() simtime.Time {
	i := r.consumed
	t := r.ready(i)
	if w := r.disk.params.CachePages; i >= w {
		stall := r.consumedAt[i-w] + r.step
		if stall > t {
			t = stall
		}
	}
	return t
}

// TryRead consumes the next page if it is available at the current virtual
// time. It returns true when a page was consumed, false when the page is
// not ready yet or the request is complete (check Done to distinguish).
func (r *Request) TryRead() bool {
	if r.Done() {
		return false
	}
	now := r.disk.k.Now()
	if r.availableAt() > now {
		return false
	}
	if r.consumed < len(r.consumedAt) {
		r.consumedAt[r.consumed] = now
	}
	r.consumed++
	return true
}

// NextReadyAt returns the virtual time at which the next page becomes
// available. It panics if the request is already complete.
func (r *Request) NextReadyAt() simtime.Time {
	if r.Done() {
		panic("simdisk: NextReadyAt on completed request")
	}
	return r.availableAt()
}

// Done reports whether every page has been consumed.
func (r *Request) Done() bool { return r.consumed >= r.pages }

// Pages returns the request size in pages.
func (r *Request) Pages() int { return r.pages }

// Consumed returns how many pages have been consumed so far.
func (r *Request) Consumed() int { return r.consumed }
