package serve

import (
	"context"
	"sync"
	"time"

	"a/internal/obs"
)

type server struct {
	mu      sync.Mutex
	stateMu sync.RWMutex
	wg      sync.WaitGroup
	ch      chan int
	o       obs.Observer
	sink    obs.Sink
	n       int
}

// Clean: lock released before every blocking construct.
func (s *server) good() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.ch <- s.n
	<-s.ch
	s.wg.Wait()
}

// Clean: a select with a default clause never blocks.
func (s *server) goodDefaultedSelect() {
	s.mu.Lock()
	select {
	case s.ch <- 1:
	default:
	}
	s.mu.Unlock()
}

func (s *server) badSend() {
	s.mu.Lock()
	s.ch <- 1 // want `s\.mu\.Lock is held across this channel send`
	s.mu.Unlock()
}

func (s *server) badReceive() {
	s.stateMu.RLock()
	<-s.ch // want `s\.stateMu\.RLock is held across this channel receive`
	s.stateMu.RUnlock()
}

func (s *server) badDeferUnlock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wg.Wait() // want `s\.mu\.Lock is held across this sync\.WaitGroup\.Wait`
}

func (s *server) badSelect() {
	s.mu.Lock()
	select { // want `s\.mu\.Lock is held across this select`
	case <-s.ch:
	case s.ch <- 1:
	}
	s.mu.Unlock()
}

func (s *server) badRange() {
	s.mu.Lock()
	for range s.ch { // want `s\.mu\.Lock is held across this range over channel`
	}
	s.mu.Unlock()
}

func (s *server) badSleep() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `s\.mu\.Lock is held across this time\.Sleep`
	s.mu.Unlock()
}

func (s *server) badSink() {
	s.mu.Lock()
	s.sink.Event(obs.Event{Name: "x"}) // want `s\.mu\.Lock is held across this observer emission \(Sink\.Event\)`
	s.mu.Unlock()
}

func (s *server) badEvent() {
	s.mu.Lock()
	s.o.Event(obs.Event{Name: "x"}) // want `s\.mu\.Lock is held across this observer emission \(Observer\.Event\)`
	s.mu.Unlock()
}

func collect(ctx context.Context) error { return ctx.Err() }

func (s *server) badCtxCall(ctx context.Context) {
	s.mu.Lock()
	_ = collect(ctx) // want `s\.mu\.Lock is held across this context-accepting call collect`
	s.mu.Unlock()
}

// waived holds the mutex across a retrain emission by design.
//
//contender:allow lockblock -- control-plane mutex serializes steps by contract
func (s *server) waived(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = collect(ctx)
	s.sink.Event(obs.Event{Name: "retrain"})
}

// Clean: the closure body is its own schedule, not this lock region.
func (s *server) goodClosure() func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	return func() { s.wg.Wait() }
}

// The closure is still checked on its own.
func (s *server) badClosure() func() {
	return func() {
		s.mu.Lock()
		<-s.ch // want `s\.mu\.Lock is held across this channel receive`
		s.mu.Unlock()
	}
}

// Clean: lexical pairing — the early-return branch unlocks, and the
// send after the final unlock is out of region.
func (s *server) goodEarlyReturn(stop bool) {
	s.mu.Lock()
	if stop {
		s.mu.Unlock()
		return
	}
	s.n++
	s.mu.Unlock()
	s.ch <- s.n
}
