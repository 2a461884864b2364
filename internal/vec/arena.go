// Chunked arenas for the hot path: selection vectors and materialized
// row storage are carved from per-worker arenas so steady-state
// streaming performs O(1) allocations per batch, not per row. Chunks
// are never reused — a carved slice stays valid (and a materialized row
// safely retainable) for the life of the process.
// Chunks are sized to the query: the first holds at least a floor of
// elements (arenaFirst for selection vectors; a row slab's first chunk
// is the slab alone, so a one-row result costs its row) and each later
// one four times the last, up to arenaChunk, so a point query zeroes a
// few KiB while a streaming one still amortizes to O(1) allocations per
// batch. No chunk tail is left unused by a stream of carvings: a chunk
// holds whole carvings of the size that opens it, and a carving of a
// quarter chunk or more — a full batch's row slab — is an allocation of
// its own, rounded only to its size class.
package vec

const (
	arenaFirst = 256
	arenaChunk = 16 * 1024
)

// chunkArena hands out slices of T from chunks of growing size.
type chunkArena[T any] struct {
	chunk []T
	next  int // size of the next chunk (0 = the caller's floor)
}

// carve returns a zeroed slice of n elements. A carve the chunk cannot
// hold opens a new one of at least floor elements, a multiple of n. The
// capacity is capped at n so appends by the caller cannot bleed into
// later carvings.
//
//hierdb:hotpath
func (a *chunkArena[T]) carve(n, floor int) []T {
	if n >= arenaChunk/4 {
		return make([]T, n)
	}
	if n > cap(a.chunk)-len(a.chunk) {
		size := max(a.next, floor, n)
		size -= size % n
		a.next = min(4*size, arenaChunk)
		a.chunk = make([]T, 0, size)
	}
	s := a.chunk[len(a.chunk) : len(a.chunk)+n : len(a.chunk)+n]
	a.chunk = a.chunk[:len(a.chunk)+n]
	return s
}

// Arena bundles the element types the executor carves.
type Arena struct {
	i32  chunkArena[int32]
	anys chunkArena[any]
}

// I32 carves n int32s.
//
//hierdb:hotpath
func (a *Arena) I32(n int) []int32 { return a.i32.carve(n, arenaFirst) }

// Anys carves n interface words: row slabs (AppendRows).
//
//hierdb:hotpath
func (a *Arena) Anys(n int) []any { return a.anys.carve(n, 1) }
