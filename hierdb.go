// Package hierdb reproduces "Dynamic Load Balancing in Hierarchical
// Parallel Database Systems" (Bouganim, Florescu, Valduriez; INRIA
// RR-2815 / VLDB 1996) as a Go library.
//
// It exposes two layers:
//
//   - A simulation of the paper's execution models on a configurable
//     hierarchical machine (SM-nodes of processors and disks connected by
//     a network), faithful to §5.1's methodology: the execution model runs
//     for real, operators/disks/network are simulated in virtual time.
//     Use GenerateWorkload + ExecuteDP/ExecuteFP/ExecuteSP, or the
//     per-figure drivers (Fig6..Fig10, Transfer) to regenerate the paper's
//     evaluation.
//
//   - A real-data, in-memory parallel hash-join engine whose scheduler is
//     the paper's DP model on goroutines: self-contained activations in
//     one queue per operator per node, any worker may run any operator,
//     pipeline chains one at a time. Open a resident DB, register
//     tables, and run fluently built queries (Scan/Join/GroupBy) that
//     stream through Rows — all concurrent queries share the handle's
//     worker pools, which balance load across them at execution time.
//     WithNodes makes the handle hierarchical — several node-local pools,
//     node i scanning units i, i+n, i+2n, … of every table (round-robin
//     declustering), with the paper's global activation stealing
//     (starving nodes acquire remote probe queues and cache the
//     hash-table buckets they ship) balancing load between nodes.
//     WithMemory adds the paper's memory constraint: each node governs a
//     byte budget, and hash joins whose build side exceeds it switch to
//     Grace-style partitioned execution over spill files, with results
//     identical to the unlimited run. WithStatic gives the FP baseline
//     for comparison.
package hierdb

import (
	"runtime"

	"hierdb/internal/baseline"
	"hierdb/internal/catalog"
	"hierdb/internal/cluster"
	"hierdb/internal/core"
	"hierdb/internal/exec"
	"hierdb/internal/experiments"
	"hierdb/internal/metrics"
	"hierdb/internal/plan"
	"hierdb/internal/store"
	"hierdb/internal/vec"
)

// ---------------------------------------------------------------------
// Simulation layer
// ---------------------------------------------------------------------

// Config describes the hierarchical machine (SM-nodes x processors, with
// the paper's disk and network parameter tables).
type Config = cluster.Config

// DefaultConfig returns the paper's machine parameters for the given
// topology, e.g. DefaultConfig(4, 8) for the "4x8" configuration.
func DefaultConfig(nodes, procsPerNode int) Config {
	return cluster.DefaultConfig(nodes, procsPerNode)
}

// Plan is a parallel execution plan (operator tree + scheduling + homes).
type Plan = plan.Tree

// Run is the measurement record of one simulated execution.
type Run = metrics.Run

// SimOptions tunes the DP/FP execution models (granularities, degree of
// fragmentation, flow control, skew, global load balancing, ablations).
type SimOptions = core.Options

// Scale selects experiment magnitude. Its Parallelism field bounds the
// worker pool the figure drivers fan their independent simulation runs
// across (0 = one worker per available processor); figure output is
// bit-for-bit identical at any setting.
type Scale = experiments.Scale

// Workload is a generated plan set.
type Workload = experiments.Workload

// Figure is a regenerated table or figure.
type Figure = experiments.Figure

// Progress receives progress lines from long experiment drivers. Lines
// are serialized (the callback is never invoked concurrently) and carry
// an aggregated [completed/total] prefix.
type Progress = experiments.Progress

// PaperScale returns the full §5 experiment configuration (20 queries x 2
// bushy trees over 12 relations, 30-60 virtual-minute sequential gate).
func PaperScale() Scale { return experiments.PaperScale() }

// BenchScale returns a reduced configuration that keeps every experiment's
// shape while running in seconds.
func BenchScale() Scale { return experiments.BenchScale() }

// PlanSchedule selects the optimizer scheduling heuristics of §2.2
// (hash-tables-ready and one-chain-at-a-time).
type PlanSchedule = plan.Schedule

// DefaultSchedule matches the paper's experiments: chains one-at-a-time.
func DefaultSchedule() PlanSchedule { return plan.DefaultSchedule() }

// FullParallelSchedule disables both heuristics, executing all pipeline
// chains concurrently — the [Wilshut95]-style strategy §3.2 discusses as a
// way to give load balancing more concurrent operators.
func FullParallelSchedule() PlanSchedule { return PlanSchedule{} }

// RunMatrix executes jobs 0..n-1 on a bounded worker pool — the driver
// behind the figure regenerators, exposed for callers fanning out their
// own independent simulation runs. do(i) must write its result only to
// storage addressed by i; jobs may complete in any order, and a panicking
// job is re-raised deterministically (lowest index wins) after the pool
// drains. workers <= 0 means one worker per available processor.
func RunMatrix(workers, n int, do func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	experiments.RunMatrix(workers, n, do)
}

// GenerateWorkload builds the §5.1.2 plan set for a topology of the given
// number of SM-nodes, deterministically in (scale.Seed, nodes).
func GenerateWorkload(s Scale, nodes int) *Workload {
	return experiments.BuildWorkload(s, nodes)
}

// GenerateWorkloadSchedule is GenerateWorkload with explicit scheduling
// heuristics. Note the FP baseline requires the one-chain-at-a-time
// schedule; use alternate schedules with ExecuteDP only.
func GenerateWorkloadSchedule(s Scale, nodes int, sched PlanSchedule) *Workload {
	return experiments.BuildWorkloadSchedule(s, nodes, sched)
}

// ChainPlan builds the §5.3 micro-benchmark: one pipeline chain of ops
// operators on the given number of nodes (cardDiv scales the relations
// down; use 1 for paper scale).
func ChainPlan(ops, nodes int, cardDiv int64) *Plan {
	return experiments.ChainPlan(ops, nodes, cardDiv)
}

// ExecuteDP runs a plan under the paper's dynamic-processing model.
// mutate, if non-nil, adjusts the default options (skew, ablations, ...).
func ExecuteDP(tree *Plan, cfg Config, mutate func(*SimOptions)) (*Run, error) {
	return baseline.RunDP(tree, cfg, mutate)
}

// ExecuteFP runs a plan under the fixed-processing baseline with the given
// cost-model error rate (0 = exact estimates) and distortion seed.
func ExecuteFP(tree *Plan, cfg Config, errRate float64, distortSeed uint64, mutate func(*SimOptions)) (*Run, error) {
	return baseline.RunFP(tree, cfg, errRate, distortSeed, mutate)
}

// ExecuteSP runs a plan under synchronous pipelining (single SM-node
// only, as in the paper).
func ExecuteSP(tree *Plan, cfg Config) (*Run, error) {
	return baseline.RunSP(tree, cfg, baseline.DefaultSPOptions())
}

// Fig6 regenerates Figure 6 (relative performance of SP, DP, FP).
func Fig6(s Scale, p Progress) *Figure { return experiments.Fig6(s, p) }

// Fig7 regenerates Figure 7 (impact of cost-model errors on FP).
func Fig7(s Scale, p Progress) *Figure { return experiments.Fig7(s, p) }

// Fig8 regenerates Figure 8 (speedup of SP, FP, DP).
func Fig8(s Scale, p Progress) *Figure { return experiments.Fig8(s, p) }

// Fig9 regenerates Figure 9 (impact of redistribution skew on DP).
func Fig9(s Scale, p Progress) *Figure { return experiments.Fig9(s, p) }

// Fig10 regenerates Figure 10 (FP vs DP on hierarchical configurations).
func Fig10(s Scale, p Progress) *Figure { return experiments.Fig10(s, p) }

// Transfer regenerates the §5.3 in-text load-balancing data-volume
// comparison (paper: FP ~9 MB vs DP ~2.5 MB).
func Transfer(s Scale, p Progress) *Figure { return experiments.Transfer(s, p) }

// ParamTables renders the §5.1.1 network and disk parameter tables.
func ParamTables() string { return experiments.ParamTables() }

// Shapes compares DP across join-tree shapes (extension, motivated by
// §2.2's discussion of left-deep/right-deep/zigzag/bushy trees).
func Shapes(s Scale, p Progress) *Figure { return experiments.Shapes(s, p) }

// PlacementSkew measures DP under tuple-placement skew ([Walton91];
// extension).
func PlacementSkew(s Scale, p Progress) *Figure { return experiments.PlacementSkew(s, p) }

// ConcurrentChains compares one-chain-at-a-time with the §3.2
// full-parallel schedule under DP (extension).
func ConcurrentChains(s Scale, p Progress) *Figure { return experiments.ConcurrentChains(s, p) }

// ---------------------------------------------------------------------
// Real-data engine
// ---------------------------------------------------------------------

// Row is one tuple of the real-data engine.
type Row = exec.Row

// Table is an in-memory relation.
type Table = exec.Table

// Pred is a single-column scan predicate (column index, comparison
// operator, constant). Unlike a row Filter closure, predicates are
// evaluated inside the columnar scan kernel as tight per-column loops
// that only shrink the selection vector — no row materialization. A
// null column value satisfies only IsNull; a constant outside the
// column's type family matches no rows.
type Pred = vec.Pred

// CmpOp is a predicate comparison operator.
type CmpOp = vec.CmpOp

// Predicate comparison operators. IsNull/NotNull ignore the constant;
// bools support Eq/Ne only.
const (
	Eq      = vec.Eq
	Ne      = vec.Ne
	Lt      = vec.Lt
	Le      = vec.Le
	Gt      = vec.Gt
	Ge      = vec.Ge
	IsNull  = vec.IsNull
	NotNull = vec.NotNull
)

// Key names a join or group-by key. Keys are columns: the engine hashes,
// routes and indexes a key straight from its column and never calls user
// code to obtain one. A computed key is a column you add to the table's
// rows before registering it.
type Key struct{ col int }

// KeyCol returns the key that is column i of the step's input. A column
// the input does not have fails Run (and Explain) with a descriptive
// error before anything executes.
func KeyCol(i int) Key { return Key{i} }

// EngineStats reports per-execution counters, including per-worker load,
// memory-governance spill counters, per-operator row production
// (OpRows, what Explain's Actualize reads), and, on a multi-node DB,
// per-node breakdowns and steal counters.
//
// ResultRows counts the rows delivered to the caller. On a plain query
// that is the root join's output; on a GroupBy query it counts the
// aggregation's OUTPUT rows — one per group — not the rows folded into
// it (the fold's input volume is the root join's OpRows entry).
type EngineStats = exec.Stats

// TableStats is one table's Analyze result: cardinality, average row
// bytes, and per-column distinct/null estimates. See DB.Analyze.
type TableStats = catalog.TableStats

// ColStats is one column's share of a TableStats.
type ColStats = catalog.ColStats

// NodeStats is one SM-node's share of a multi-node query's counters
// (see EngineStats.Nodes).
type NodeStats = exec.NodeStats

// Errors a query can end with, for errors.Is on a failed Run or Rows.Err.
var (
	// ErrClosed is returned by Run when the DB closes — including a Run
	// parked in the admission queue, which Close fails promptly.
	ErrClosed = exec.ErrClosed
	// ErrAdmissionQueueFull rejects a Run immediately when every
	// admission slot is taken and the wait queue is at capacity; see
	// WithAdmissionQueue.
	ErrAdmissionQueueFull = exec.ErrAdmissionQueueFull
	// ErrQueryPanic ends a query one of whose activations panicked — in a
	// Filter or aggregate Arg closure (the only user code a query runs,
	// always inside an activation), or in the engine itself. The error text carries the panic value and stack; the DB
	// stays usable and other queries are unaffected.
	ErrQueryPanic = exec.ErrQueryPanic
)

// ErrTableFile is matched (errors.Is) by the error that ends a query
// whose scan could not read or decode a chunk of a registered table
// file — one truncated, replaced or corrupted after Register validated
// it. The error itself is a *store.ChunkError naming the file and the
// chunk; the DB stays usable.
var ErrTableFile = store.ErrTableFile

// GroupBy describes a grouped aggregation over a plan's output.
type GroupBy = exec.GroupBy

// Aggregation is one aggregate function application.
type Aggregation = exec.Aggregation

// Aggregate functions for GroupBy.
const (
	Count = exec.Count
	Sum   = exec.Sum
	Min   = exec.Min
	Max   = exec.Max
)
