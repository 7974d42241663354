// Package event implements the discrete-event simulation engine underlying
// the wireless-cell simulator: a simulated clock and a priority queue of
// timestamped events with deterministic FIFO tie-breaking, so that two runs
// with the same seed replay the exact same event order.
//
// The pending-event set is a Queue (queue.go): a binary min-heap on
// (time, insertion sequence) over an index-addressed event arena. The heap
// moves int32 slot numbers, not pointers, so steady-state scheduling
// allocates nothing and the garbage collector has no per-event pointers to
// trace. The same Queue backs clock.Wall, so the simulated and the
// wall-clock time lines share one scheduler structure. Pop order is
// ascending (time, insertion sequence), bit-identical to the retired
// container/heap scheduler (TestDifferentialAgainstReferenceHeap pins this).
package event

import (
	"fmt"
	"math"
)

// Handler is the action executed when an event fires. Handlers close over
// whatever state they need (including the simulator or clock that schedules
// them) — the signature carries no arguments so the same handler type serves
// both the virtual event loop and the wall-clock loop in internal/clock.
type Handler func()

// Simulator owns the clock and the pending-event set.
type Simulator struct {
	now     float64
	fired   uint64
	stopped bool
	q       Queue
}

// New returns a Simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulated time.
func (s *Simulator) Now() float64 { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of scheduled-but-unfired events.
func (s *Simulator) Pending() int { return s.q.Len() }

// At schedules h to run at absolute time t. Scheduling in the past panics —
// it would silently corrupt causality. Returns a Token for cancellation.
//
//qos:hotpath
func (s *Simulator) At(t float64, h Handler) Token {
	if t < s.now || math.IsNaN(t) {
		panic(fmt.Sprintf("event: scheduling at t=%g before now=%g", t, s.now))
	}
	if h == nil {
		panic("event: nil handler")
	}
	return s.q.Push(t, h)
}

// After schedules h to run delay time units from now. Negative delay panics.
//
//qos:hotpath
func (s *Simulator) After(delay float64, h Handler) Token {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("event: negative delay %g", delay))
	}
	return s.At(s.now+delay, h)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op and returns false.
func (s *Simulator) Cancel(tok Token) bool { return s.q.Cancel(tok) }

// Stop makes the current Run/RunUntil call return after the in-flight
// handler finishes. Pending events remain queued.
func (s *Simulator) Stop() { s.stopped = true }

// step pops and fires the earliest event. Returns false if none remain.
//
//qos:hotpath
func (s *Simulator) step() bool {
	if s.q.Len() == 0 {
		return false
	}
	t, h := s.q.Pop()
	s.now = t
	s.fired++
	h()
	return true
}

// Run executes events until the queue drains or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.step() {
	}
}

// RunUntil executes events with time <= horizon, then advances the clock to
// exactly horizon. Events scheduled beyond the horizon stay queued. A
// horizon before now, or NaN, panics.
func (s *Simulator) RunUntil(horizon float64) {
	if horizon < s.now || math.IsNaN(horizon) {
		panic(fmt.Sprintf("event: horizon %g before now %g", horizon, s.now))
	}
	s.stopped = false
	for !s.stopped {
		if t, ok := s.q.Peek(); !ok || t > horizon {
			break
		}
		s.step()
	}
	if !s.stopped && s.now < horizon {
		s.now = horizon
	}
}
