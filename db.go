package hierdb

// The resident database handle: a named-table catalog plus long-lived
// DP worker pools whose workers serve activations from every in-flight
// query. This is the paper's execution model promoted to an
// engine-as-a-service surface — load balances itself across concurrent
// queries at execution time, not just within one. WithNodes adds the
// paper's second level: several node-local pools, each scanning a
// round-robin share of every table, with starving nodes acquiring remote
// probe queues (global activation stealing, §3.2/§4).

import (
	"fmt"
	"sync"

	"hierdb/internal/catalog"
	"hierdb/internal/exec"
	"hierdb/internal/store"
)

// dbConfig collects Open-time options: the engine's configuration and
// the facade's optimizer mode.
type dbConfig struct {
	eng       exec.EngineConfig
	optimizer OptimizerMode
}

// Option configures a DB at Open time.
type Option func(*dbConfig)

// WithNodes sets the number of SM-nodes of the paper's hierarchical
// architecture: each node gets its own worker pool, a query executes as
// per-node plan fragments with key-routed redistribution between
// operators, and node i scans units i, i+n, i+2n, … of every table (a
// table file's chunks, runs of up to WithMorsel rows of a resident
// table). 0 or 1 (the default) is the same engine with one node:
// one fragment per query, nothing routed, nothing to steal. Negative
// values are rejected, reported by Run/Register-time validation.
// See also WithStealing.
func WithNodes(n int) Option { return func(c *dbConfig) { c.eng.Nodes = n } }

// WithWorkers sets the worker-goroutine count per node (one per
// processor in the paper's model). 0 means the default (4); negative
// values are rejected, reported by Run/Register-time validation.
func WithWorkers(n int) Option { return func(c *dbConfig) { c.eng.Workers = n } }

// WithStealing enables or disables the global activation-stealing layer
// on a multi-node DB (default enabled): a starving node solicits offers
// from its peers and acquires the best remote probe queue together with
// the hash-table buckets it needs, cached node-locally so repeated
// steals are cheap. No effect with a single node.
func WithStealing(enabled bool) Option { return func(c *dbConfig) { c.eng.DisableStealing = !enabled } }

// WithStripes sets the number of hash buckets per node (the degree of
// fragmentation): they price a steal's bucket shipping. They do not
// decide which node owns a join key — its hash mod the node count does
// (exec.OwnerNode). It changes nothing on one node. 0 means 8x workers.
func WithStripes(n int) Option { return func(c *dbConfig) { c.eng.Stripes = n } }

// WithMorsel sets the scan granularity in rows (trigger-activation
// granularity). 0 means 1024.
func WithMorsel(n int) Option { return func(c *dbConfig) { c.eng.Morsel = n } }

// WithBatch sets the pipeline granularity in rows (data-activation
// granularity). 0 means 256.
func WithBatch(n int) Option { return func(c *dbConfig) { c.eng.Batch = n } }

// WithStatic binds each worker to one operator per pipeline chain (the
// FP baseline) instead of the dynamic any-worker-any-operator model.
func WithStatic(static bool) Option { return func(c *dbConfig) { c.eng.Static = static } }

// WithMaxConcurrentQueries bounds the number of in-flight queries on
// the engine. A Run beyond the bound parks in a bounded FIFO admission
// queue (see WithAdmissionQueue) until a slot frees, dequeued
// round-robin across WithTenant labels; it fails promptly with
// ErrClosed if the DB closes while parked, with ErrAdmissionQueueFull
// if the queue itself is at capacity, or with ctx.Err() if the Run
// context fires first. 0 means unlimited.
func WithMaxConcurrentQueries(n int) Option {
	return func(c *dbConfig) { c.eng.MaxConcurrentQueries = n }
}

// WithAdmissionQueue caps how many Runs may park waiting for an
// admission slot; one more is rejected immediately with
// ErrAdmissionQueueFull (load shedding instead of unbounded queueing).
// 0 (the default) means 8 waiters per slot; negative values are
// rejected, reported by Run-time validation. Only meaningful together
// with WithMaxConcurrentQueries.
func WithAdmissionQueue(n int) Option { return func(c *dbConfig) { c.eng.AdmissionQueue = n } }

// WithMemory gives each node a memory budget in bytes: one count per
// node, shared by every query in flight on it, that a query's hash-join
// tables, loaded spill partitions, group-by partials and in-flight file
// chunks are charged to — idle memory is whatever no query holds. A row
// is charged what its columns hold in memory (a typed value its width,
// a string its header and bytes, a boxed value its interface and
// payload), and a join's build row also its 12 bytes of hash index. A
// join whose build side would take the node's total past the budget
// switches to Grace-style partitioned execution: build and probe inputs
// are hash-partitioned to per-query spill files and the partitions
// joined one at a time within the budget (recursing on still-oversized
// partitions), with results identical to the unlimited run; concurrent
// queries on one node may therefore spill where each alone would fit. 0 (the default) means unlimited and keeps
// the engine's ungoverned hot path; negative values are rejected,
// reported by Run-time validation. Governed queries spill rows to disk,
// so their columns must be of spill-encodable types (nil, bool, int,
// int32, int64, uint64, float64, string); see also WithSpillDir and the
// SpilledPartitions/SpilledBytes/SpillPhases counters on EngineStats.
func WithMemory(bytes int64) Option { return func(c *dbConfig) { c.eng.MemoryPerNode = bytes } }

// WithSpillDir sets the directory WithMemory's spill files are created
// under (one temp file per node a query spills on, removed at query
// retirement).
// Empty (the default) means the system temp directory.
func WithSpillDir(dir string) Option { return func(c *dbConfig) { c.eng.SpillDir = dir } }

// OptimizerMode selects how much cost-based planning Run applies; see
// WithOptimizer.
type OptimizerMode = exec.OptimizeMode

const (
	// OptimizerOff (the default) executes the literal builder plan,
	// byte-identical to a DB opened without WithOptimizer.
	OptimizerOff = exec.OptimizeOff
	// OptimizerHints keeps the builder's join order and shape but fills
	// scheduling estimates (hash-table presizing, static allocation) from
	// ANALYZE statistics and Hint calls. Results are identical to
	// OptimizerOff.
	OptimizerHints = exec.OptimizeHints
	// OptimizerFull additionally lets the DP search (the paper's
	// optimizer stage) reorder joins and choose build sides, minimizing
	// estimated intermediate rows. Plans it does not reorder — a Project
	// step, a NoReorder hint, a table whose rows are not as wide as its
	// declared columns — keep their literal order with the hints pass
	// applied; Explain reports why.
	// Results are always identical to OptimizerOff (a reordered plan that
	// would permute output columns gets a restoring projection).
	OptimizerFull = exec.OptimizeFull
)

// WithOptimizer sets the DB's optimizer mode (default OptimizerOff).
// Out-of-range modes are rejected, reported by Run-time validation.
// Statistics come from Analyze (or Register's WithStats option);
// unanalyzed tables plan with default selectivities.
func WithOptimizer(m OptimizerMode) Option { return func(c *dbConfig) { c.optimizer = m } }

// DB is a resident database handle. Open one, register tables, build
// queries with Scan/Join/GroupBy, execute them concurrently with Run —
// all queries share the handle's DP worker pools, whose fair
// cross-query scheduling keeps one heavy join from starving the others.
// With WithNodes(n > 1) the handle is a hierarchical engine: n
// node-local pools, each scanning a round-robin share of every table,
// queries fanned out as node-local fragments, and a global stealing layer that rebalances
// probe work between nodes. Close releases the workers, aborting any
// in-flight queries.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	files  []*store.TableFile             // open table files (FromFile sources), closed with the DB
	stats  map[string]*catalog.TableStats // Analyze results by table name
	closed bool

	eng  *exec.Nodes
	mode OptimizerMode
	err  error // deferred Open-time validation error, surfaced by Run
}

// Open creates a resident DB. Invalid options do not panic: the error is
// deferred and returned by the first Run (per the engine's
// validate-don't-panic contract), so Open itself stays fluent.
func Open(opts ...Option) *DB {
	var cfg dbConfig
	for _, o := range opts {
		o(&cfg)
	}
	db := &DB{
		tables: make(map[string]*Table),
		mode:   cfg.optimizer,
	}
	if cfg.optimizer < OptimizerOff || cfg.optimizer > OptimizerFull {
		db.err = fmt.Errorf("hierdb: invalid optimizer mode %d", cfg.optimizer)
		return db
	}
	eng, err := exec.NewNodesConfig(cfg.eng)
	if err != nil {
		db.err = err
		return db
	}
	db.eng = eng
	return db
}

// TableSource names where Register's table comes from: FromTable for a
// resident in-memory relation, FromFile for a chunked columnar table
// file on disk.
type TableSource struct {
	table *Table
	path  string
}

// FromTable sources Register from a resident in-memory relation. The
// table's rows must not be mutated after registration: Register
// columnizes the rows, and queries scan that columnization — a later
// change to the rows may or may not be visible to them. A column whose
// values share one scalar type is held once, typed; a result row's value
// from it points into the columnization, so a retained row keeps it
// alive.
func FromTable(t *Table) TableSource { return TableSource{table: t} }

// FromFile sources Register from a chunked columnar table file on disk
// (written by cmd/hdbtable or internal/store). Queries over a
// file-backed table stream its row-group chunks from disk lazily — the
// table is never resident as a whole — with Where predicates consulting
// each chunk's zone maps to skip chunks that provably match no row
// before any I/O, and evaluated inside the chunk decoder so that only
// the rows they keep are materialized (see the ChunksScanned /
// ChunksSkipped / DiskBytesRead / DiskRowsDecoded / DiskRowsKept
// counters on EngineStats). Under WithMemory, each chunk's surviving
// rows are charged against the node budget while in flight, so joins
// over files much larger than the budget spill exactly like their
// in-memory counterparts. A chunk that has become unreadable fails the
// query with ErrTableFile. On a multi-node DB, node i scans chunks i,
// i+n, i+2n, … — the rule FromTable's rows follow. A result row's typed
// value points into the decoded chunk it was read from, so a retained
// row keeps that chunk's columns alive.
// The file handle stays open until Close.
func FromFile(path string) TableSource { return TableSource{path: path} }

// RegisterOption configures one Register call.
type RegisterOption func(*registerConfig)

type registerConfig struct{ analyze bool }

// WithStats runs Analyze right after registration, so the cost-based
// planner has this table's statistics from the first query on.
func WithStats() RegisterOption { return func(c *registerConfig) { c.analyze = true } }

// Register adds a named table to the catalog from either source kind —
// the one registration entry point. For FromTable sources an empty
// t.Name is set to name; a non-empty t.Name must equal name.
func (db *DB) Register(name string, src TableSource, opts ...RegisterOption) error {
	var cfg registerConfig
	for _, o := range opts {
		o(&cfg)
	}
	if name == "" {
		return fmt.Errorf("hierdb: table without a name")
	}
	var err error
	switch {
	case src.table != nil:
		t := src.table
		if t.Name == "" {
			t.Name = name
		} else if t.Name != name {
			return fmt.Errorf("hierdb: Register name %q conflicts with table name %q", name, t.Name)
		}
		err = db.registerMemTable(t)
	case src.path != "":
		err = db.registerFileTable(name, src.path)
	default:
		return fmt.Errorf("hierdb: Register with a nil table or an empty path (use FromTable or FromFile)")
	}
	if err != nil {
		return err
	}
	if cfg.analyze {
		if _, aerr := db.Analyze(name); aerr != nil {
			return aerr
		}
	}
	return nil
}

func (db *DB) registerMemTable(t *Table) error {
	if db.err != nil {
		return db.err
	}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return fmt.Errorf("hierdb: database closed")
	}
	if _, dup := db.tables[t.Name]; dup {
		db.mu.Unlock()
		return fmt.Errorf("hierdb: table %q already registered", t.Name)
	}
	db.tables[t.Name] = t
	db.mu.Unlock()
	// Columnize the table now — outside db.mu, so a large registration
	// does not stall concurrent queries — and the first query does not
	// pay for it.
	t.Columnar()
	return nil
}

func (db *DB) registerFileTable(name, path string) error {
	if db.err != nil {
		return db.err
	}
	f, err := store.Open(path)
	if err != nil {
		return err
	}
	t := &Table{Name: name, Cols: append([]string(nil), f.Cols()...), File: f}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		f.Close()
		return fmt.Errorf("hierdb: database closed")
	}
	if _, dup := db.tables[name]; dup {
		db.mu.Unlock()
		f.Close()
		return fmt.Errorf("hierdb: table %q already registered", name)
	}
	db.tables[name] = t
	db.files = append(db.files, f)
	db.mu.Unlock()
	return nil
}

// Analyze scans a registered table once and stores its statistics in
// the catalog for the cost-based planner: cardinality, average row
// bytes, and per-column distinct and null counts (linear-counting
// estimates). File-backed tables are analyzed chunk at a time from the
// store file, never materialized as a whole. Re-running Analyze after a
// table file changes replaces the stored statistics. The statistics are
// returned; they only influence planning when the DB was opened
// WithOptimizer(OptimizerHints) or WithOptimizer(OptimizerFull).
func (db *DB) Analyze(table string) (*TableStats, error) {
	if db.err != nil {
		return nil, db.err
	}
	db.mu.RLock()
	t, ok := db.tables[table]
	closed := db.closed
	db.mu.RUnlock()
	if closed {
		return nil, fmt.Errorf("hierdb: database closed")
	}
	if !ok {
		return nil, fmt.Errorf("hierdb: table %q not registered", table)
	}
	st, err := exec.Analyze(t)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	if db.stats == nil {
		db.stats = make(map[string]*catalog.TableStats)
	}
	db.stats[table] = st
	db.mu.Unlock()
	return st, nil
}

// statsFor adapts the DB's Analyze cache to the planner's StatsFunc.
func (db *DB) statsFor(t *exec.Table) *catalog.TableStats {
	db.mu.RLock()
	st := db.stats[t.Name]
	db.mu.RUnlock()
	return st
}

// Table returns a registered table by name.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	return t, ok
}

// Workers returns the worker count per node.
func (db *DB) Workers() int {
	if db.eng == nil {
		return 0
	}
	return db.eng.Config().Workers
}

// Nodes returns the number of SM-nodes (1 unless opened WithNodes).
func (db *DB) Nodes() int {
	if db.eng == nil {
		return 0
	}
	return db.eng.Config().Nodes
}

// Close releases every node's worker pool, aborting in-flight queries
// (their Rows report the abort). Idempotent.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	files := db.files
	db.files = nil
	db.mu.Unlock()
	if db.eng != nil {
		// Engine close first: it blocks until every worker goroutine has
		// exited, so no ReadChunk can race the file closes below.
		db.eng.Close()
	}
	var err error
	for _, f := range files {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
