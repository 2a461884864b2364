package simtime

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"
)

// teardownChildEnv selects the child half of TestBodyExitReachesRunCaller.
const teardownChildEnv = "SIMTIME_TEARDOWN_CHILD"

// TestBodyExitReachesRunCaller checks that a panic and a runtime.Goexit
// (what t.Fatal calls) inside a process body leave through Run, on the
// goroutine that called it, and that Run stops every other process on
// the way out. The checks run in a child process, so a kernel that lets
// the panic crash the binary, or hangs when a body exits, fails this
// test instead of the whole suite.
func TestBodyExitReachesRunCaller(t *testing.T) {
	if os.Getenv(teardownChildEnv) == "1" {
		teardownChild()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestBodyExitReachesRunCaller$", "-test.count=1")
	cmd.Env = append(os.Environ(), teardownChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child failed: %v\n%s", err, out)
	}
	for _, want := range []string{"panic recovered: boom", "goexit reached caller", "goroutines settled"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("child output lacks %q:\n%s", want, out)
		}
	}
}

// withParked spawns a process that parks forever beside body, so Run has
// another coroutine to stop when body leaves.
func withParked(body func(p *Proc)) *Kernel {
	k := NewKernel()
	c := k.NewCond("never")
	k.Spawn("parked", func(p *Proc) { c.Wait(p) })
	k.Spawn("body", func(p *Proc) {
		p.Delay(Millisecond)
		body(p)
	})
	return k
}

func teardownChild() {
	base := runtime.NumGoroutine()
	var got any
	func() {
		defer func() { got = recover() }()
		_ = withParked(func(*Proc) { panic("boom") }).Run()
	}()
	fmt.Println("panic recovered:", got)

	returned := make(chan bool, 1)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		_ = withParked(func(*Proc) { runtime.Goexit() }).Run()
		ok = true
	}()
	if !<-returned {
		fmt.Println("goexit reached caller")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			fmt.Printf("goroutines leaked: %d now vs %d before\n", runtime.NumGoroutine(), base)
			os.Exit(1)
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Println("goroutines settled")
}
