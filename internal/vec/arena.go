// Chunked arenas for the hot path: selection vectors and materialized
// row storage are carved from per-worker arenas so steady-state
// streaming performs O(1) allocations per batch, not per row. Chunks
// are never reused — a carved slice stays valid (and a materialized row
// safely retainable) for the life of the process.
// Chunks are sized to the query: the first holds arenaFirst elements and
// each later one four times the last, up to arenaChunk, so a point query
// zeroes a few KiB while a streaming one still amortizes to O(1)
// allocations per batch.
package vec

const (
	arenaFirst = 256
	arenaChunk = 16 * 1024
)

// chunkArena hands out slices of T from chunks of growing size.
type chunkArena[T any] struct {
	chunk []T
	next  int // size of the next chunk (0 = arenaFirst)
}

// carve returns a zeroed slice of n elements. The capacity is capped
// at n so appends by the caller cannot bleed into later carvings.
//
//hierdb:hotpath
func (a *chunkArena[T]) carve(n int) []T {
	if n > cap(a.chunk)-len(a.chunk) {
		size := max(a.next, arenaFirst)
		a.next = min(4*size, arenaChunk)
		a.chunk = make([]T, 0, max(size, n))
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
func (a *Arena) I32(n int) []int32 { return a.i32.carve(n) }

// Anys carves n interface words.
//
//hierdb:hotpath
func (a *Arena) Anys(n int) []any { return a.anys.carve(n) }
