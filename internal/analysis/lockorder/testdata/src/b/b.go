// Package b holds hierarchy-respecting code the analyzer must accept.
package b

import "sync"

type coord struct {
	mu sync.Mutex //hierdb:lock mq
}

type sched struct {
	mu   sync.Mutex //hierdb:lock pool
	cond *sync.Cond
}

type table struct {
	locks []sync.Mutex //hierdb:lock part
}

// catalog's mutex is outside the hierarchy and never tracked.
type catalog struct {
	mu sync.RWMutex
}

func orderedNesting(c *coord, s *sched, t *table) {
	c.mu.Lock()
	s.mu.Lock()
	t.locks[0].Lock()
	t.locks[0].Unlock()
	s.mu.Unlock()
	c.mu.Unlock()
}

func earlyReturn(s *sched, done bool) int {
	s.mu.Lock()
	if done {
		s.mu.Unlock()
		return 0
	}
	n := 1
	s.mu.Unlock()
	return n
}

func deferUnlock(s *sched) {
	s.mu.Lock()
	defer s.mu.Unlock()
}

func sendAfterUnlock(s *sched, ch chan int) {
	s.mu.Lock()
	v := 1
	s.mu.Unlock()
	ch <- v
}

func sequentialPools(s1, s2 *sched) {
	s1.mu.Lock()
	s1.mu.Unlock()
	s2.mu.Lock()
	s2.mu.Unlock()
}

func lockPool(s *sched) {
	s.mu.Lock()
	s.mu.Unlock()
}

func callDownHierarchy(c *coord, s *sched) {
	c.mu.Lock()
	lockPool(s) // mq → pool: allowed direction
	c.mu.Unlock()
}

func detachedGoroutine(s *sched, ch chan int) {
	s.mu.Lock()
	go func() {
		// Fresh goroutine: holds nothing, may send and lock freely.
		ch <- 1
		s.mu.Lock()
		s.mu.Unlock()
	}()
	s.mu.Unlock()
}

func untracked(cat *catalog, ch chan int) {
	cat.mu.Lock()
	ch <- 1 // catalog lock is not in the hierarchy
	cat.mu.Unlock()
}

func condWait(s *sched) {
	s.mu.Lock()
	for {
		s.cond.Wait()
		break
	}
	s.mu.Unlock()
}
