// Package exec is a real-data, in-memory parallel hash-join executor built
// on the paper's execution model: query work is decomposed into
// self-contained activations (scan morsels and tuple batches) held in
// per-operator queues, and any worker goroutine of a node may execute any
// activation — there is no static association between workers and
// operators. Workers prefer their primary queues, drain downstream
// operators first (the role the paper's flow control plays), and pipeline
// chains execute one-at-a-time in dependency order, mirroring §2.2's
// scheduling.
//
// There is one engine and one way a query runs. A Nodes engine (nodes.go)
// is the paper's hierarchy: n shared-memory nodes, each a pool of workers
// with its own scheduler (pool.go), a shared-memory machine being the
// hierarchy with n = 1. Submit compiles the plan (runtime.go) and hands
// it to a coordinator, which fans it out as one fragment per node, owns
// everything global to the query — pending counts, the chain barrier,
// spill-phase advance, the group-by merge hand-off, abort, retirement and
// stats — and routes every batch an activation emits to the node owning
// its join key. Load balances dynamically inside a node at every
// activation; between nodes only when a whole node starves (globallb.go).
//
// A Static mode reproduces the FP baseline on real data: each worker is
// bound to one operator per chain, sized by estimated cost.
package exec

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync/atomic"
	"time"

	"hierdb/internal/spill"
	"hierdb/internal/store"
	"hierdb/internal/vec"
)

// Row is one tuple. Columns are positional. It is an alias of the spill
// package's row type, so batches move between the executor and spill
// files without conversion.
type Row = spill.Row

// Table is a named relation: either in-memory (Rows) or disk-backed
// (File, a chunked columnar table file opened with store.Open). Exactly
// one of the two is the data source — a file-backed table leaves Rows
// nil, and scans over it stream chunks from disk lazily instead of
// columnizing a resident row slice.
type Table struct {
	Name string
	Cols []string
	Rows []Row

	// File, when non-nil, makes the table disk-backed: scans read its
	// row-group chunks on demand (consulting per-chunk zone maps to skip
	// chunks no predicate can match), and chunks are assigned to node
	// fragments positionally, like the hash partitioning of resident rows.
	File *store.TableFile

	// vcache caches the table's columnized form (see columnize). Tables
	// are treated as immutable once queried; callers that do mutate Rows
	// get a rebuilt cache on the next scan — unless the table went
	// through Nodes.Partition, whose partitions are fixed for the
	// engine's lifetime.
	vcache atomic.Pointer[tableVec]
}

// NumRows returns the table's cardinality.
func (t *Table) NumRows() int {
	if t.File != nil {
		return int(t.File.NumRows())
	}
	return len(t.Rows)
}

// Col returns the index of a named column, or -1.
func (t *Table) Col(name string) int {
	for i, c := range t.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Node is a logical plan node: *Scan or *Join.
type Node interface {
	estimate() float64
}

// Scan reads a table, optionally filtering rows.
//
// Preds are vectorized column predicates evaluated before Filter as
// typed per-column loops over the columnar scan — prefer them over an
// equivalent Filter closure on hot paths. Filter (when non-nil) then
// runs per surviving row; both must pass for a row to flow.
type Scan struct {
	Table  *Table
	Preds  []vec.Pred
	Filter func(Row) bool
	// RowsHint, when positive, pins the scan's estimated output
	// cardinality (rows surviving Preds/Filter) for scheduling and
	// optimization; 0 means unhinted. The optimizer's hint pass fills it
	// on cloned nodes from catalog statistics.
	RowsHint int64
}

func (s *Scan) estimate() float64 {
	if s.RowsHint > 0 {
		return float64(s.RowsHint)
	}
	return float64(s.Table.NumRows())
}

// Join is a hash equi-join on one attribute of each input. Build is
// materialized into a hash table; Probe streams against it.
//
// Keys are columns. A join key (and a GroupBy key) is a column position,
// checked against its input's width when the plan is compiled; the engine
// hashes, routes, prices and indexes keys straight from the column and
// never calls user code to obtain one. A computed key is a column you
// add to the table at registration.
type Join struct {
	Build, Probe Node
	// BuildKey and ProbeKey are the key columns, positions in the output
	// of Build and of Probe.
	BuildKey, ProbeKey int
	// Out lists the join's output columns as positions in the
	// concatenation probe columns ++ build columns, in output order
	// (repeats allowed); empty means the whole concatenation.
	Out []int
	// Selectivity hints the output-to-input ratio for scheduling
	// estimates (default 1).
	Selectivity float64
	// RowsHint, when positive, pins the join's estimated output
	// cardinality, taking precedence over Selectivity; 0 means unhinted.
	RowsHint int64
	// NoReorder pins this join (and everything below it) to the literal
	// builder order: the full optimizer mode leaves plans containing a
	// NoReorder join untouched.
	NoReorder bool
}

func (j *Join) estimate() float64 {
	if j.RowsHint > 0 {
		return float64(j.RowsHint)
	}
	s := j.Selectivity
	if s <= 0 {
		s = 1
	}
	return j.Probe.estimate() * s
}

// Stats reports per-query execution counters. Every in-flight query
// keeps its own Stats, so accounting stays isolated under concurrent
// execution.
type Stats struct {
	// QueryID identifies the query on its engine (assigned at Submit).
	QueryID     int64
	Activations int64
	// AdmissionWait is how long Submit waited in the admission queue
	// before the query was admitted (zero when a slot was free
	// immediately or the engine has no MaxConcurrentQueries bound).
	AdmissionWait time.Duration
	// ResultRows counts rows delivered as the query's result. For
	// group-by queries that is one row per group (the aggregation's
	// output, not the join rows feeding it).
	ResultRows int64
	// PerWorker counts activations processed by each worker; the spread
	// shows load balance. It is the concatenation of every node's workers
	// in node order, so Imbalance() reports the engine-wide spread.
	PerWorker []int64
	// OpRows counts rows produced by each physical operator, indexed by
	// operator id in compile order: a scan's filtered output, a probe's
	// join output (build operators produce no rows). Spill-phase replays
	// of already-counted input are not re-counted, and rows are attributed
	// at production, before redistribution between nodes.
	// Explain's Actualize reads it to pair actual cardinalities with the
	// planner's estimates.
	OpRows []int64

	// Fields populated only when the query ran on an engine with more
	// than one node (nil/zero otherwise).

	// Nodes breaks the counters down per SM-node.
	Nodes []NodeStats
	// StealRounds counts starving episodes (solicitations of offers);
	// Steals counts the rounds that acquired a remote queue.
	StealRounds int64
	Steals      int64
	// StolenActivations counts probe activations shipped between nodes.
	StolenActivations int64
	// StolenBuckets / StolenBucketBytes count hash-table buckets copied
	// into thieves' node-local caches (a bucket already cached is never
	// re-shipped, per the stolen-queue cache of §4).
	StolenBuckets     int64
	StolenBucketBytes int64
	// RowsRedistributed counts rows that crossed nodes during normal
	// pipeline routing (build/probe input redistribution, not steals).
	RowsRedistributed int64

	// Memory-governance fields, populated only when the query ran on an
	// engine with a MemoryPerNode budget and at least one operator spilled.

	// SpilledPartitions counts spill partitions created (per spilled
	// join: the initial fan-out plus any recursive re-partitioning; per
	// governed group-by: one per spilled worker partial).
	SpilledPartitions int64
	// SpilledBytes counts bytes written to spill files.
	SpilledBytes int64
	// SpillPhases counts partition-wise join phases executed (build
	// partitions loaded into an in-memory table and probed).
	SpillPhases int64

	// DiskStats is populated only when the plan scanned file-backed
	// tables.
	DiskStats
}

// DiskStats are the disk-scan counters of a query or of one node's
// share of it.
type DiskStats struct {
	// ChunksScanned counts table-file chunks read and decoded;
	// ChunksSkipped counts chunks pruned by their zone maps before any
	// I/O (a Where predicate provably matched none of the chunk's rows).
	ChunksScanned int64
	ChunksSkipped int64
	// DiskBytesRead counts encoded chunk bytes read from table files.
	DiskBytesRead int64
	// DiskRowsDecoded counts the rows of the scanned chunks, DiskRowsKept
	// those of them the chunk decoder materialized: the rows satisfying
	// the scan's Where predicates (a row Filter runs on them afterwards).
	DiskRowsDecoded int64
	DiskRowsKept    int64
}

// diskCounters accumulates a fragment's DiskStats from its concurrent
// scan activations.
type diskCounters struct {
	scanned, skipped, bytes, decoded, kept atomic.Int64
}

func (c *diskCounters) seal() DiskStats {
	return DiskStats{c.scanned.Load(), c.skipped.Load(), c.bytes.Load(), c.decoded.Load(), c.kept.Load()}
}

func (s *DiskStats) add(o DiskStats) {
	s.ChunksScanned += o.ChunksScanned
	s.ChunksSkipped += o.ChunksSkipped
	s.DiskBytesRead += o.DiskBytesRead
	s.DiskRowsDecoded += o.DiskRowsDecoded
	s.DiskRowsKept += o.DiskRowsKept
}

// NodeStats is one SM-node's share of a query's counters.
type NodeStats struct {
	// Node is the node index on its engine.
	Node int
	// Activations counts activations processed by this node's workers.
	Activations int64
	// ResultRows counts result rows this node queued for the consumer.
	ResultRows int64
	// PerWorker counts activations per worker of this node's pool.
	PerWorker []int64
	// RowsShippedIn/RowsShippedOut count pipeline rows this node
	// received from / routed to other nodes (redistribution traffic).
	RowsShippedIn  int64
	RowsShippedOut int64
	// Steals counts steal rounds this node completed as the thief;
	// StolenActivations the activations it acquired; StolenBuckets the
	// hash-table buckets it copied into its local cache doing so.
	Steals            int64
	StolenActivations int64
	StolenBuckets     int64
	// SpilledPartitions/SpilledBytes/SpillPhases are this node's share of
	// the memory-governance counters (see Stats).
	SpilledPartitions int64
	SpilledBytes      int64
	SpillPhases       int64
	// DiskStats is this node's share of the disk-scan counters.
	DiskStats
}

// Imbalance returns max/mean of PerWorker (1 = perfectly balanced).
func (s *Stats) Imbalance() float64 {
	if len(s.PerWorker) == 0 {
		return 1
	}
	var sum, maxv float64
	for _, v := range s.PerWorker {
		f := float64(v)
		sum += f
		if f > maxv {
			maxv = f
		}
	}
	mean := sum / float64(len(s.PerWorker))
	if mean == 0 {
		return 1
	}
	return maxv / mean
}

// OwnerNode reports which node of a (nodes, stripes-per-node) engine
// owns join key k — the engine's routing rule, exposed
// so tests and benchmarks can construct workloads of known skew.
//
//hierdb:hotpath
func OwnerNode(k any, nodes, stripes int) int {
	return hashKey(k, nodes*stripes) % nodes
}

// hashKey hashes a comparable key to a stripe index.
//
//hierdb:hotpath
func hashKey(k any, stripes int) int {
	return int(keyHash64(k) % uint64(stripes))
}

// keyHash64 hashes a comparable key to 64 bits (the shared base of
// stripe, node-ownership and spill-partition indexing).
//
//hierdb:hotpath
func keyHash64(k any) uint64 {
	var h uint64
	switch v := k.(type) {
	case int:
		h = mix64(uint64(v))
	case int32:
		h = mix64(uint64(v))
	case int64:
		h = mix64(uint64(v))
	case uint64:
		h = mix64(v)
	case string:
		h = fnvString(v)
	case float64:
		h = mix64(math.Float64bits(v + 0)) // -0.0 + 0 is +0.0: the two are == and must route alike
	default:
		f := fnv.New64a()
		//hierdb:ignore hotpath cold fallback for exotic key types; the common scalar kinds are handled above
		fmt.Fprintf(f, "%v", v)
		h = f.Sum64()
	}
	return h
}

//hierdb:hotpath
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
