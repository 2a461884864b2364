//go:build race

package spill

// raceEnabled reports a -race build, whose sync.Pool drops a random
// quarter of what is put back: an allocation count over recycled
// buffers means nothing there.
const raceEnabled = true
