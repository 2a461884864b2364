package main

// Seeded table generation. Every table has the same cardinalities and
// selectivities under every seed — only the values move — so counts
// (result rows, chunks pruned, spill partitions) repeat exactly across
// seeds and a timing difference between two seeds is the host, not the
// data.

import (
	"fmt"
	"math/rand/v2"

	"hierdb"
	"hierdb/internal/exec"
)

// Row counts at scale 1, the ISSUE's default sizes.
const (
	factRows   = 200_000
	d1Rows     = 2_000
	d2Rows     = 500
	vRange     = 1_000 // fact.v is a permutation of [0,vRange) inside every aligned block of vRange ids
	groupFact  = 120_000
	groupKeys  = 200
	groupCount = 64
	spillProbe = 40_000
	spillBuild = 10_000
	acctRows   = 4_096
	regionRows = 64
)

// Engine geometry of group_multinode, fixed so OwnerNode-based key
// selection and the opened DB agree.
const (
	groupNodes   = 2
	groupStripes = 32
)

// scaled shrinks a default row count for -quick, never below min.
func scaled(n int, scale float64, min int) int {
	s := int(float64(n) * scale)
	if s < min {
		return min
	}
	return s
}

// rng returns the generator of one (seed, table) pair, so adding a
// table never shifts another table's values.
func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// Fact columns of join_stream / scan_disk.
const (
	factID = iota
	factK1
	factK2
	factV
	factPayload
)

// genFact builds the join_stream/scan_disk fact table: sequential id
// (zone-prunable), two uniform foreign keys, v with an exact share
// below any threshold in every aligned vRange-id block, and a string
// payload.
func genFact(seed uint64, n, nd1, nd2 int) *hierdb.Table {
	r := rng(seed, 1)
	t := &hierdb.Table{Name: "fact", Cols: []string{"id", "k1", "k2", "v", "payload"}, Rows: make([]hierdb.Row, n)}
	perm := make([]int, vRange)
	for i := 0; i < n; i++ {
		if i%vRange == 0 {
			for j := range perm {
				perm[j] = j
			}
			r.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		}
		t.Rows[i] = hierdb.Row{i, r.IntN(nd1), r.IntN(nd2), perm[i%vRange], fmt.Sprintf("p-%08x", r.Uint32())}
	}
	return t
}

// genDim builds a dimension table with unique keys 0..n-1 in shuffled
// order and a string attribute.
func genDim(seed, stream uint64, name string, n int) *hierdb.Table {
	r := rng(seed, stream)
	t := &hierdb.Table{Name: name, Cols: []string{"k", "name"}, Rows: make([]hierdb.Row, n)}
	for i, k := range r.Perm(n) {
		t.Rows[i] = hierdb.Row{k, fmt.Sprintf("%s-%06x", name, r.Uint32()&0xffffff)}
	}
	return t
}

// genSkewed builds group_multinode's pair: nkeys join keys that
// exec.OwnerNode places all on node 0 of a (groupNodes, groupStripes)
// engine — the paper's total redistribution skew — a dim mapping each
// key to one of ngroups groups, and a fact drawing keys uniformly.
func genSkewed(seed uint64, nfact, nkeys, ngroups int) (fact, dim *hierdb.Table) {
	r := rng(seed, 4)
	keys := make([]int, 0, nkeys)
	for k := int(r.Uint32() >> 4); len(keys) < nkeys; k++ {
		if exec.OwnerNode(k, groupNodes, groupStripes) == 0 {
			keys = append(keys, k)
		}
	}
	dim = &hierdb.Table{Name: "dim", Cols: []string{"k", "g", "name"}, Rows: make([]hierdb.Row, nkeys)}
	for i, k := range keys {
		dim.Rows[i] = hierdb.Row{k, i % ngroups, fmt.Sprintf("dim-%04d", i)}
	}
	fact = &hierdb.Table{Name: "fact", Cols: []string{"k", "v", "tag"}, Rows: make([]hierdb.Row, nfact)}
	for i := range fact.Rows {
		fact.Rows[i] = hierdb.Row{keys[r.IntN(nkeys)], r.IntN(1000), fmt.Sprintf("t%05x", r.Uint32()&0xfffff)}
	}
	return fact, dim
}

// genSpill builds join_spill's pair: every build key matched by
// nprobe/nbuild probe rows, in shuffled order.
func genSpill(seed uint64, nprobe, nbuild int) (probe, build *hierdb.Table) {
	r := rng(seed, 5)
	build = &hierdb.Table{Name: "build", Cols: []string{"k", "s"}, Rows: make([]hierdb.Row, nbuild)}
	for i, k := range r.Perm(nbuild) {
		build.Rows[i] = hierdb.Row{k, fmt.Sprintf("build-%08x", r.Uint32())}
	}
	probe = &hierdb.Table{Name: "probe", Cols: []string{"k", "v"}, Rows: make([]hierdb.Row, nprobe)}
	for i, p := range r.Perm(nprobe) {
		probe.Rows[i] = hierdb.Row{p % nbuild, r.IntN(1000)}
	}
	return probe, build
}

// genAccounts builds point_concurrent's pair and the lookup ids each
// client will ask for, in order.
func genAccounts(seed uint64, nacct, nregion, clients, lookups int) (acct, region *hierdb.Table, ids [][]int) {
	r := rng(seed, 6)
	acct = &hierdb.Table{Name: "acct", Cols: []string{"id", "region", "balance", "owner"}, Rows: make([]hierdb.Row, nacct)}
	for i, id := range r.Perm(nacct) {
		acct.Rows[i] = hierdb.Row{id, r.IntN(nregion), r.IntN(1_000_000), fmt.Sprintf("owner-%06x", r.Uint32()&0xffffff)}
	}
	region = &hierdb.Table{Name: "region", Cols: []string{"r", "name"}, Rows: make([]hierdb.Row, nregion)}
	for i := range region.Rows {
		region.Rows[i] = hierdb.Row{i, fmt.Sprintf("region-%02d", i)}
	}
	ids = make([][]int, clients)
	for c := range ids {
		ids[c] = make([]int, lookups)
		for i := range ids[c] {
			ids[c][i] = r.IntN(nacct)
		}
	}
	return acct, region, ids
}
