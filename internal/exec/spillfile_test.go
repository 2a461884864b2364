package exec

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
)

// openFDs counts the process's open descriptors (the listing's own
// descriptor included, so differences between two counts are exact).
func openFDs(t *testing.T) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Error(err)
	}
	return len(ents)
}

// TestSpillOneDescriptorPerFragment runs TestSpillWriteBufferBound's
// deeply repartitioning join (hundreds of partitions) and samples the
// process's descriptors and the spill root while it runs: a spilling
// fragment holds one descriptor whatever its partition count, the root
// only ever holds hierdb-spill-* regular files, and retirement empties it.
func TestSpillOneDescriptorPerFragment(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("samples /proc/self/fd")
	}
	plan := govPlan(8_000, 8_000)
	want, _, err := runOnce(context.Background(), plan, nil, EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 2} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			checkQueryHygiene(t)
			root := t.TempDir()
			ns := newNodesT(t, EngineConfig{Nodes: nodes, MemoryPerNode: 4 << 10, SpillDir: root, Batch: 32})
			base := openFDs(t)
			h, err := ns.Submit(context.Background(), plan, nil, "")
			if err != nil {
				t.Fatal(err)
			}
			type peaks struct {
				fds, files int
				stray      os.DirEntry // the first entry that is not a hierdb-spill-* regular file
			}
			peakC := make(chan peaks)
			go func() {
				var p peaks
				for {
					select {
					case <-h.Done():
						peakC <- p
						return
					default:
					}
					p.fds = max(p.fds, openFDs(t)-base)
					ents, err := os.ReadDir(root)
					if err != nil {
						t.Error(err)
					}
					for _, e := range ents {
						if p.stray == nil && (!e.Type().IsRegular() || !strings.HasPrefix(e.Name(), "hierdb-spill-")) {
							p.stray = e
						}
					}
					p.files = max(p.files, len(ents))
				}
			}()
			got := collectHandle(t, h)
			p := <-peakC
			sameRows(t, got, want)
			if st := h.Stats(); st.SpilledPartitions < 3*spillFanout {
				t.Fatalf("fixture must repartition recursively: %+v", st)
			}
			if p.files == 0 {
				t.Error("no sample saw the spill file: the fixture no longer spills, or spills elsewhere")
			}
			if p.fds > nodes || p.files > nodes {
				t.Errorf("sampled %d extra descriptors and %d spill files, want at most one each per node (%d)", p.fds, p.files, nodes)
			}
			if p.stray != nil {
				t.Errorf("spill root held %s (%v), want only hierdb-spill-* regular files", p.stray.Name(), p.stray.Type())
			}
			if ents, _ := os.ReadDir(root); len(ents) != 0 {
				t.Errorf("spill root not empty after retirement: %v", names(ents))
			}
		})
	}
}

// TestSpillCreateFailure pins the unhappy path at the one place spilling
// touches the filesystem namespace, creating the fragment's spill file:
// with SpillDir missing, or a regular file, a governed join and a
// governed group-by that must spill fail with an error that names the
// spill and wraps the OS cause — leaking no goroutine, memory charge or file —
// and the engine still serves a query that fits its budget.
func TestSpillCreateFailure(t *testing.T) {
	dirs := map[string]struct {
		mk    func(t *testing.T) string
		cause error
	}{
		"missing": {func(t *testing.T) string { return filepath.Join(t.TempDir(), "missing") }, fs.ErrNotExist},
		"file": {func(t *testing.T) string {
			path := filepath.Join(t.TempDir(), "file")
			if err := os.WriteFile(path, nil, 0o600); err != nil {
				t.Fatal(err)
			}
			return path
		}, syscall.ENOTDIR},
	}
	queries := map[string]func() (Node, *GroupBy){
		"join": func() (Node, *GroupBy) { return govPlan(20_000, 20_000), nil },
		// A four-row build fits; 20 000 groups (on the probe's payload) do not.
		"groupby": func() (Node, *GroupBy) {
			return aggPlan(20_000, 4), &GroupBy{Key: 1, Aggs: []Aggregation{{Func: Count}}}
		},
	}
	for dname, dir := range dirs {
		for qname, mk := range queries {
			for _, nodes := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/nodes=%d", dname, qname, nodes), func(t *testing.T) {
					checkQueryHygiene(t)
					spillDir := dir.mk(t)
					ns := newNodesT(t, EngineConfig{Nodes: nodes, Workers: 2, MemoryPerNode: 256 << 10, SpillDir: spillDir})
					root, gb := mk()
					h, err := ns.Submit(context.Background(), root, gb, "")
					if err != nil {
						t.Fatal(err)
					}
					drain(h)
					err = h.Err()
					if err == nil || !strings.Contains(err.Error(), "spill") || !errors.Is(err, dir.cause) {
						t.Fatalf("query ended with %v, want a spill error wrapping %v", err, dir.cause)
					}
					ents, err := os.ReadDir(filepath.Dir(spillDir))
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range ents {
						if e.Name() != filepath.Base(spillDir) {
							t.Fatalf("the failed spill left %s behind", e.Name())
						}
					}
					verifyMemSettled(t, ns)
					verifyIdle(t, ns)
				})
			}
		}
	}
}
