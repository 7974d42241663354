package core

// This file is the serving driver's surface: requests submitted from
// outside (cmd/qosd over HTTP, tests on a virtual clock) instead of drawn
// by the arrival generator. A submitted request enters the same routing as
// a generated one — push waiter or pull queue — and is served by the same
// transmissions; what it adds is a caller waiting on it. Its state lives in
// the request arena (arena.go) and its handle rides on the push waiter or
// pull request, so delivery and expiry find the caller in O(1).

import (
	"hybridqos/internal/clients"
	"hybridqos/internal/pullqueue"
	"hybridqos/internal/trace"
)

// Outcome is the terminal state of a submitted request.
type Outcome int

const (
	// OutcomeServed: the item's transmission completed before the deadline.
	OutcomeServed Outcome = iota
	// OutcomeExpired: the deadline passed first. The callback fires exactly
	// at the deadline, never after — a deadline that ties with a completion
	// resolves to expiry, because the expiry timer was booked first and
	// same-instant handlers fire in booking order on every clock. A request
	// the engine drops (bandwidth blocking, or a lossy delivery whose
	// retries ran out) also resolves here, at its deadline: nothing on a
	// broadcast channel tells the client sooner.
	OutcomeExpired
)

// Result reports a submitted request's terminal state to its callback.
type Result struct {
	Outcome Outcome
	// Delay is completion − submission in broadcast units (served only).
	Delay float64
	// Push reports whether a broadcast (vs an on-demand pull) served it.
	Push bool
}

// Submit enters one request at the current clock time for item (a catalog
// rank in [1, D]) on behalf of class. done receives the terminal outcome:
// exactly one call, on the clock's goroutine, no later than deadline (an
// absolute clock time). Submitted requests skip uplink contention and the
// Shed controller — admission is the driver's job — and otherwise take the
// path generated arrivals take. Call Start first; Submit after Stop panics.
//
//qos:hotpath
func (s *Server) Submit(item int, class clients.Class, deadline float64, done func(Result)) {
	if s.stopped {
		panic("core: Submit on a stopped server")
	}
	now := s.clk.Now()
	span := s.arrive(now, item, class)
	slot := s.reqs.alloc()
	s.reqs.item[slot] = int32(item)
	s.reqs.class[slot] = class
	s.reqs.arrival[slot] = now
	s.reqs.span[slot] = span
	s.reqs.done[slot] = done
	h := s.reqs.handle(slot)
	// The expiry timer is booked before any transmission that could serve
	// the request, so a completion landing exactly on the deadline loses
	// the tie and the caller hears "expired" — never a late success.
	//lint:allow hotalloc per-request expiry closure: each live request owns one pending timer
	s.reqs.expiry[slot] = s.clk.At(deadline, func() { s.expire(h) })
	if item <= s.cutoff {
		s.spanStart(now, item, class, span, trace.VerdictPush)
		s.addPushWaiter(item, pushWaiter{class: class, arrival: now, joined: now, client: -1, span: span, req: h})
		return
	}
	s.spanStart(now, item, class, span, trace.VerdictPull)
	s.enqueuePull(pullqueue.Request{
		Item:     item,
		Class:    class,
		Priority: s.cfg.Classes.Weight(class),
		Arrival:  now,
		Client:   -1,
		Tag:      span,
		Handle:   h,
	})
}

// Refuse records a request the driver turned away instead of submitting:
// it counts as an arrival and, when head-sampled, leaves a zero-length span
// carrying the verdict the request would have been routed by and the
// refusal outcome (a trace.End* taxonomy value). Refusals take their
// sampling draw like submissions do, so which requests are sampled does not
// depend on which were admitted.
//
//qos:hotpath
func (s *Server) Refuse(item int, class clients.Class, outcome string) {
	now := s.clk.Now()
	span := s.arrive(now, item, class)
	if span == 0 || !s.emitOn {
		return
	}
	verdict := trace.VerdictPull
	if item <= s.cutoff {
		verdict = trace.VerdictPush
	}
	s.spanStart(now, item, class, span, verdict)
	s.emit(&trace.Event{T: now, Kind: trace.KindSpanEnd, Item: item, Class: class, Req: span, Reason: outcome, Arrival: now})
}

// Stop ends a serving run: transmissions in flight complete as no-ops and
// the channel books nothing more. A driver calls it once every submitted
// request has resolved (qosd's graceful drain).
func (s *Server) Stop() { s.stopped = true }

// expire resolves a submitted request whose deadline arrived before its
// item. The timer is cancelled on delivery, so a stale handle here is pure
// defence in depth.
//
//qos:hotpath
func (s *Server) expire(h int64) {
	slot, ok := s.reqs.lookup(h)
	if !ok {
		return
	}
	now := s.clk.Now()
	item, class, arrival := int(s.reqs.item[slot]), s.reqs.class[slot], s.reqs.arrival[slot]
	if arrival >= s.warmupEnd {
		s.metrics.PerClass[class].Expired++
	}
	if s.emitOn {
		s.emit(&trace.Event{T: now, Kind: trace.KindExpire, Item: item, Class: class, Arrival: arrival})
		if span := s.reqs.span[slot]; span != 0 {
			s.emit(&trace.Event{T: now, Kind: trace.KindSpanEnd, Item: item, Class: class, Req: span, Reason: trace.EndExpired, Arrival: arrival})
		}
	}
	s.finish(slot, Result{Outcome: OutcomeExpired})
}

// finish retires a resolved request and hands its caller the result. The
// slot is released before the callback runs, so a callback that submits a
// follow-up request reuses it at once.
//
//qos:hotpath
func (s *Server) finish(slot int32, res Result) {
	done := s.reqs.done[slot]
	s.reqs.release(slot)
	done(res)
}
