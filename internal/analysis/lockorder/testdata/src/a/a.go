// Package a exercises every lockorder diagnostic.
package a

import "sync"

type coord struct {
	mu sync.Mutex //hierdb:lock mq
}

type sched struct {
	mu sync.Mutex //hierdb:lock pool
}

type table struct {
	locks []sync.Mutex //hierdb:lock part
}

type mislabeled struct {
	mu sync.Mutex //hierdb:lock nosuch // want `unknown lock level "nosuch"`
}

type notamutex struct {
	n int //hierdb:lock pool // want `//hierdb:lock on a non-mutex field`
}

func inversion(c *coord, s *sched) {
	s.mu.Lock()
	c.mu.Lock() // want `acquires "mq" lock while holding "pool" lock`
	c.mu.Unlock()
	s.mu.Unlock()
}

func reacquire(s1, s2 *sched) {
	s1.mu.Lock()
	s2.mu.Lock() // want `acquires "pool" lock while holding "pool" lock`
	s2.mu.Unlock()
	s1.mu.Unlock()
}

func partThenPool(t *table, s *sched, i int) {
	t.locks[i].Lock()
	s.mu.Lock() // want `acquires "pool" lock while holding "part" lock`
	s.mu.Unlock()
	t.locks[i].Unlock()
}

func sendWhileHeld(s *sched, ch chan int) {
	s.mu.Lock()
	ch <- 1 // want `channel send while holding "pool" lock`
	s.mu.Unlock()
}

func selectSendWhileHeld(s *sched, ch chan int) {
	s.mu.Lock()
	select {
	case ch <- 1: // want `channel send while holding "pool" lock`
	default:
	}
	s.mu.Unlock()
}

func lockPool(s *sched) {
	s.mu.Lock()
	s.mu.Unlock()
}

func viaCall(t *table, s *sched) {
	t.locks[0].Lock()
	lockPool(s) // want `call to lockPool acquires "pool" lock while holding "part" lock`
	t.locks[0].Unlock()
}

func middle(s *sched) {
	lockPool(s)
}

func viaTransitiveCall(t *table, s *sched) {
	t.locks[0].Lock()
	middle(s) // want `call to middle acquires "pool" lock while holding "part" lock`
	t.locks[0].Unlock()
}

func deferHeldSend(s *sched, ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch <- 2 // want `channel send while holding "pool" lock`
}

func mergedBranches(c *coord, s *sched, cond bool) {
	if cond {
		s.mu.Lock()
	} else {
		s.mu.Lock()
	}
	c.mu.Lock() // want `acquires "mq" lock while holding "pool" lock`
	c.mu.Unlock()
	s.mu.Unlock()
}
