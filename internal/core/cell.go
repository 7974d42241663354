package core

// This file is the cell lifecycle: the re-entrant face of the engine that
// lets a multi-cell cluster (internal/cluster) drive N Servers side by side.
// A cell is simply a Server stepped in segments — Start arms it, AdvanceTo
// runs the event loop to a barrier time, Finish closes the books — plus the
// cross-cell mobility surface: ExtractRoamers pulls pending requests out of
// the cell, SpanHandoffs records their departure on the span stream, Inject
// re-attaches a roamer that arrived over the backhaul (QueueInject and
// ScheduleInjects book a whole barrier's arrivals as one event), and
// RefuseHandoff records a roamer the cell turned away. Run (engine.go) is
// Start + AdvanceTo(horizon) + Finish, so single-cell output is bit-identical
// however the engine is driven: nothing executes at a barrier except the
// clock advancing.

import (
	"fmt"

	"hybridqos/internal/clients"
	"hybridqos/internal/pullqueue"
	"hybridqos/internal/trace"
)

// Roamer is one pending request extracted from a cell by the client-mobility
// model: the client left mid-request, carrying its service class, original
// arrival time (the deadline budget keeps running in transit) and retry
// attempts already spent.
type Roamer struct {
	// Item is the requested catalog rank in the origin cell's numbering.
	Item int
	// Class is the client's service class.
	Class clients.Class
	// Arrival is the request's original arrival time.
	Arrival float64
	// Attempts counts re-requests already made after corrupted deliveries.
	Attempts int
	// Push reports whether the client was waiting on a broadcast (item rank
	// within the origin cell's push cutoff) rather than a queued pull.
	Push bool
	// Span is the request's span ID when it was head-sampled for span
	// provenance in its origin cell (0 otherwise). It travels with the
	// roamer so the destination cell's span events keep the same ID and
	// cross-cell parent links survive stream merging.
	Span int64
}

// InjectOutcome is the fate of a roamer delivered to a cell.
type InjectOutcome int

// Inject outcomes.
const (
	// InjectAccepted: the request re-attached (push waiter or pull queue).
	InjectAccepted InjectOutcome = iota
	// InjectExpired: the request's deadline passed while in transit.
	InjectExpired
	// InjectShed: the destination's admission controller refused it.
	InjectShed
)

// Start arms the server: initial gauge observations, the telemetry
// snapshot chain, the first arrival (simulation only), and every channel:
// the ones that push start their cycle, pull-only ones idle until the
// first enqueue. It is the first third of Run, split out so a cluster can
// interleave AdvanceTo calls with cross-cell exchanges and a serving
// driver can Submit. Call it exactly once, before any AdvanceTo or Submit.
func (s *Server) Start() {
	s.observeQueue()
	s.observeBandwidth()
	if s.tele != nil && s.tele.SnapshotEvery() > 0 {
		s.scheduleSnapshot(1)
	}
	if s.arrivals != nil {
		s.scheduleNextArrival()
	}
	for i := range s.chans {
		if ch := &s.chans[i]; ch.push != nil {
			s.startPush(ch)
		} else {
			s.idle = append(s.idle, ch)
		}
	}
}

// AdvanceTo runs the event loop up to simulated time t, clamped to the
// horizon (simulation only: a serving driver runs its own clock). It is
// re-entrant: a cluster calls it once per handoff epoch with
// increasing barrier times, and because no simulation code executes at the
// barrier itself, the event trajectory is identical to one uninterrupted
// AdvanceTo(horizon).
func (s *Server) AdvanceTo(t float64) {
	if t > s.cfg.Horizon {
		t = s.cfg.Horizon
	}
	s.vclk.RunUntil(t)
}

// Finish closes the run at the horizon — time-weighted queue means, final
// bandwidth statistics — and returns the metrics. Call it exactly once,
// after the final AdvanceTo reached the horizon.
func (s *Server) Finish() *Metrics {
	s.metrics.QueueItems.MeanAt(s.cfg.Horizon)
	s.metrics.QueueRequests.MeanAt(s.cfg.Horizon)
	if s.alloc != nil {
		for c := 0; c < s.alloc.NumClasses(); c++ {
			s.metrics.Bandwidth = append(s.metrics.Bandwidth, s.alloc.Stats(clients.Class(c)))
		}
	}
	return s.metrics
}

// Now returns the cell's current simulated time.
func (s *Server) Now() float64 { return s.clk.Now() }

// Peek returns the run's live metrics for mid-run observers (cluster
// saturation sampling and barrier snapshots). The returned value is the
// engine's own accumulator: treat it as read-only, and call Finish — not
// Peek — for final results (Finish closes the time-weighted trackers).
func (s *Server) Peek() *Metrics { return s.metrics }

// Horizon returns the cell's configured horizon.
func (s *Server) Horizon() float64 { return s.cfg.Horizon }

// PendingLoad returns the cell's current backlog: queued pull requests,
// booked retries and registered push waiters — the load signal used by
// least-loaded routing and cluster saturation detection.
func (s *Server) PendingLoad() int {
	n := s.selector.Requests() + s.pendingRetries
	for _, ws := range s.pushWaiters {
		n += len(ws)
	}
	return n
}

// ExtractRoamers removes pending requests chosen by roam from the cell and
// returns them in a deterministic order: queued pull requests first (item
// rank ascending, arrival order within an item), then push waiters (rank
// ascending, arrival order within a rank). roam is called once per pending
// request, in exactly that order, so the caller can drive it from its own
// per-cell random stream without perturbing the cell's streams. Requests not
// chosen are re-enqueued unchanged. Requests whose transmission is already
// in flight are not pending and cannot roam — they are about to be served
// (or lost) where they are.
//
// The returned slice is the Server's own buffer, valid until the next call.
// ExtractRoamers touches only this cell, so a cluster runs it inside the
// parallel phase; the roam-out span events are left to SpanHandoffs, which
// the cluster calls at the barrier so the merged trace does not depend on
// the parallel schedule.
func (s *Server) ExtractRoamers(roam func() bool) []Roamer {
	out := s.roamOut[:0]
	entries := s.selector.Drain()
	for _, e := range entries {
		for _, r := range e.Requests {
			if roam() {
				out = append(out, Roamer{Item: r.Item, Class: r.Class, Arrival: r.Arrival, Attempts: r.Attempts, Span: r.Tag})
				s.metrics.PerClass[r.Class].HandoffsOut++
			} else {
				s.selector.Add(r, e.Length)
			}
		}
	}
	// Recycling is deferred until every entry's requests are re-added: Add
	// may reuse a freelist entry, and the drained entries' request slices
	// must stay intact while still being read.
	for _, e := range entries {
		s.selector.Recycle(e)
	}
	for rank := 1; rank < len(s.pushWaiters); rank++ {
		ws := s.pushWaiters[rank]
		if len(ws) == 0 {
			continue
		}
		keep := ws[:0]
		for _, w := range ws {
			if roam() {
				out = append(out, Roamer{Item: rank, Class: w.class, Arrival: w.arrival, Push: true, Span: w.span})
				s.metrics.PerClass[w.class].HandoffsOut++
			} else {
				keep = append(keep, w)
			}
		}
		s.pushWaiters[rank] = keep
	}
	if len(out) > 0 {
		s.observeQueue()
	}
	s.roamOut = out
	return out
}

// SpanHandoffs emits the roam-out span event of every sampled roamer in rs,
// in order, at the current time. rs is the slice ExtractRoamers returned.
func (s *Server) SpanHandoffs(rs []Roamer) {
	if !s.emitOn {
		return
	}
	for i := range rs {
		s.spanHandoff(rs[i].Item, rs[i].Class, rs[i].Span)
	}
}

// Inject delivers a roamer to this cell at the current simulated time.
// Unlike handleArrival the request arrives over the inter-cell backhaul, so
// it skips uplink contention — but it still passes admission control, and
// its deadline budget (measured from the original arrival) kept running
// while in transit. Accepted roamers re-attach as a push waiter when the
// item is within this cell's push cutoff, otherwise they join the pull
// queue.
func (s *Server) Inject(item int, class clients.Class, arrival float64, attempts int, span int64) InjectOutcome {
	now := s.clk.Now()
	if s.cfg.RequestTTL > 0 && now > arrival+s.cfg.RequestTTL {
		if arrival >= s.warmupEnd {
			s.metrics.PerClass[class].Expired++
		}
		s.refuseHandoff(item, class, "expired", arrival, span)
		return InjectExpired
	}
	if item <= s.cutoff {
		s.acceptHandoff(item, class)
		s.spanAttach(item, class, span, trace.VerdictPush)
		s.addPushWaiter(item, pushWaiter{class: class, arrival: arrival, joined: now, client: -1, span: span})
		return InjectAccepted
	}
	if s.shedder != nil {
		load := s.selector.Requests() + s.pendingRetries
		if !s.shedder.Admit(load, int(class)) {
			if arrival >= s.warmupEnd {
				s.metrics.PerClass[class].Shed++
			}
			s.refuseHandoff(item, class, "shed", arrival, span)
			return InjectShed
		}
	}
	s.acceptHandoff(item, class)
	s.spanAttach(item, class, span, trace.VerdictPull)
	s.enqueuePull(pullqueue.Request{
		Item:     item,
		Class:    class,
		Priority: s.cfg.Classes.Weight(class),
		Arrival:  arrival,
		Client:   -1,
		Attempts: attempts,
		Tag:      span,
	})
	return InjectAccepted
}

// QueueInject adds a roamer bound for this cell to its open injection
// batch, which the next ScheduleInjects books.
func (s *Server) QueueInject(r Roamer) {
	if cap(s.inbox) == 0 {
		if n := len(s.inboundFree); n > 0 {
			s.inbox = s.inboundFree[n-1]
			s.inboundFree = s.inboundFree[:n-1]
		}
	}
	s.inbox = append(s.inbox, r)
}

// ScheduleInjects books the open batch — the roamers queued since the last
// call, in queue order — as one event at simulated time at, where they
// re-attach together after their transit delay. It does nothing when no
// roamer is queued. Batches must be booked in non-decreasing at order
// (they fire first in, first out); a batch may still be pending when the
// next one is booked. A batch's buffer is recycled once it has fired, so
// steady-state handoff allocates nothing.
func (s *Server) ScheduleInjects(at float64) {
	if len(s.inbox) == 0 {
		return
	}
	if len(s.inbound) > 0 && at < s.inboundAt {
		panic(fmt.Sprintf("core: inject batch at %g booked after one at %g", at, s.inboundAt))
	}
	s.inbound = append(s.inbound, s.inbox)
	s.inbox = nil
	s.inboundAt = at
	s.clk.At(at, s.injectH)
}

// injectBatch is the event ScheduleInjects books: it injects the oldest
// pending batch in order and recycles its buffer.
//
//qos:hotpath
func (s *Server) injectBatch() {
	batch := s.inbound[0]
	n := copy(s.inbound, s.inbound[1:])
	s.inbound[n] = nil
	s.inbound = s.inbound[:n]
	for i := range batch {
		r := &batch[i]
		s.Inject(r.Item, r.Class, r.Arrival, r.Attempts, r.Span)
	}
	//lint:allow hotalloc amortized: the freelist holds at most as many buffers as batches were ever pending at once
	s.inboundFree = append(s.inboundFree, batch[:0])
}

// RefuseHandoff records a roamer this cell turned away without processing:
// reason "no-item" when the item is absent from the cell's catalog, or
// "horizon" when the transit would end past the simulation horizon. (The
// refusals Inject decides itself — "expired", "shed" — book themselves.)
// arrival and span carry the roamer's original arrival and span ID for the
// refusal's span terminal (0s when the roamer is unsampled).
func (s *Server) RefuseHandoff(item int, class clients.Class, reason string, arrival float64, span int64) {
	s.refuseHandoff(item, class, reason, arrival, span)
}

// acceptHandoff books an accepted inbound roamer.
func (s *Server) acceptHandoff(item int, class clients.Class) {
	s.metrics.PerClass[class].HandoffsIn++
	if s.emitOn {
		s.emit(&trace.Event{T: s.clk.Now(), Kind: trace.KindHandoff, Item: item, Class: class})
	}
}

// refuseHandoff books a refused inbound roamer. A sampled roamer's span
// terminates here with the refusal taxonomy ("refused-" + reason).
func (s *Server) refuseHandoff(item int, class clients.Class, reason string, arrival float64, span int64) {
	s.metrics.PerClass[class].HandoffRefusals++
	if s.emitOn {
		s.emit(&trace.Event{T: s.clk.Now(), Kind: trace.KindHandoffRefused, Item: item, Class: class, Reason: reason})
	}
	if span != 0 && s.emitOn {
		s.emit(&trace.Event{
			T: s.clk.Now(), Kind: trace.KindSpanEnd, Item: item, Class: class,
			Req: span, Reason: "refused-" + reason, Arrival: arrival,
		})
	}
}

// spanHandoff emits the roam-out provenance event for a sampled request
// (no-op for span 0): the request's wait segment ends here and its transit
// segment begins; the destination cell's span-attach (or refusal terminal)
// closes it.
func (s *Server) spanHandoff(item int, class clients.Class, span int64) {
	if span == 0 || !s.emitOn {
		return
	}
	s.emit(&trace.Event{T: s.clk.Now(), Kind: trace.KindSpanHandoff, Item: item, Class: class, Req: span})
}

// spanAttach emits the roam-in provenance event for a sampled request
// (no-op for span 0). verdict records how the request re-attached: a push
// waiter or a pull enqueue (whose span-enqueue follows).
func (s *Server) spanAttach(item int, class clients.Class, span int64, verdict string) {
	if span == 0 || !s.emitOn {
		return
	}
	s.emit(&trace.Event{T: s.clk.Now(), Kind: trace.KindSpanAttach, Item: item, Class: class, Req: span, Reason: verdict})
}
