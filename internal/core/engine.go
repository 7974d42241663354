// Package core implements the paper's contribution: the hybrid
// push/pull scheduling server with priority-based service classification
// (section 3, Figure 1).
//
// The package is split into an *engine* (this file: the discrete-event
// machinery, request routing, metrics) and pluggable *policies* resolved by
// name through internal/policy: a push scheduler orders the broadcast cycle
// of items 1..K, and a pull policy scores the on-demand queue for items
// K+1..D. With the default policies the server reproduces the paper: items
// 1..K are broadcast in a flat round-robin; after every push transmission,
// if the pull queue is non-empty the server extracts the entry with the
// maximum importance factor γ_i = α·S_i + (1−α)·Q_i, reserves bandwidth
// from the pool of the entry's governing (highest-priority requesting)
// class, and either transmits it — satisfying every pending request for the
// item at once — or, when the Poisson bandwidth demand exceeds the class's
// available bandwidth, drops the item and all its pending requests
// (blocking).
//
// The downlink is a parameter: the paper's single shared channel, or a
// push/pull split of a fixed total capacity into push-only and pull-only
// channels (the Lee–Lo multi-channel extension the paper cites; see
// Config.PushChannels).
//
// One Server runs that algorithm for every driver: the simulator's arrival
// generator on a private virtual clock (this file), cluster handoffs
// (Inject, cell.go) and externally submitted requests on a caller's clock
// (Submit, serve.go). Under the virtual clock the run is a deterministic
// discrete-event simulation: a single seed reproduces the full event
// trajectory, whatever the policies.
package core

import (
	"hybridqos/internal/bandwidth"
	"hybridqos/internal/cache"
	"hybridqos/internal/clients"
	"hybridqos/internal/clock"
	"hybridqos/internal/faults"
	"hybridqos/internal/pullqueue"
	"hybridqos/internal/rng"
	"hybridqos/internal/sched"
	"hybridqos/internal/telemetry"
	"hybridqos/internal/trace"
	"hybridqos/internal/uplink"
	"hybridqos/internal/workload"
)

// pushWaiter is a client waiting for a push item's next broadcast.
type pushWaiter struct {
	class   clients.Class
	arrival float64
	// joined is when the waiter registered at THIS cell: the arrival for
	// local requests, the re-attach time for injected roamers (whose
	// arrival keeps the origin-cell value for deadline accounting). Span
	// service segments start no earlier than joined.
	joined float64
	client int   // −1 when client identity is not tracked
	span   int64 // span ID when the request is sampled, 0 otherwise
	req    int64 // arena handle of a submitted request, 0 when generated
}

// Server is the paper's hybrid push/pull server: a push cycle, one pull
// queue and a downlink of one or more channels (see channel). All time
// access goes through the clock.Clock interface. A simulation Server owns a
// private Virtual clock and generates its own arrivals (Run, or the cell
// lifecycle in cell.go); a serving Server (Config.Clock set) has no arrival
// generator and runs on the caller's clock, fed by Submit.
type Server struct {
	cfg      Config
	cutoff   int            // effective K: 0 under the "none" push policy
	clk      clock.Clock    // the engine's only time source
	vclk     *clock.Virtual // the private simulation clock; nil when serving
	arrRng   *rng.Source
	itemRng  *rng.Source
	classRng *rng.Source

	selector  sched.Selector
	alloc     *bandwidth.Allocator
	arrivals  workload.ArrivalProcess
	items     workload.ItemSampler
	tracer    trace.Tracer
	tele      *telemetry.Collector
	up        uplink.Channel
	uplinkRng *rng.Source
	caches    *cache.Population
	clientRng *rng.Source
	txCounts  []int64 // per-rank transmission counts (PIX frequency)
	txTotal   int64
	// pushWaiters is indexed by push rank (1..cutoff); slot 0 is unused.
	// Slices are reset to length 0 on drain, so waiter capacity is reused
	// across broadcast cycles instead of reallocated per arrival burst.
	pushWaiters [][]pushWaiter

	loss           faults.LossModel
	lossRng        *rng.Source
	retryRng       *rng.Source
	shedder        *faults.Shedder
	pendingRetries int // re-requests booked but not yet delivered

	// emitOn gates trace-event construction on the hot path: false when the
	// tracer is the no-op sink and telemetry is off, where emit would build
	// a large Event struct per call only to discard it. Guarded sites are
	// behavior-identical because emit has no side effects in that state.
	// tracing skips the no-op sink when only telemetry listens.
	emitOn  bool
	tracing bool

	// Span provenance (nil spanRng = disabled; the zero cost of spans-off
	// is a single nil check on the hot path).
	spanRng    *rng.Source
	spanRates  []float64 // per-class sampling probability, defaults filled
	spanIDBase int64     // cell namespace offset for minted span IDs
	spanNext   int64     // last minted span sequence number

	// The downlink: chans lists the channels, push channels first, and rate
	// is their common transmission rate (1 for the paper's single channel).
	// idle is the stack of pull-only channels waiting for a queued entry,
	// pre-sized for all of them so parking one never allocates.
	chans []channel
	rate  float64
	idle  []*channel

	// The arrival chain re-books itself, so it is single-outstanding: one
	// reused handler, with the booked event's batch size parked in
	// nextBatch, replaces a fresh capturing closure per event (the channels
	// do the same for their transmissions). This is what the //qos:hotpath
	// annotations hold the scheduling sites to.
	arrivalH  func()
	nextBatch int

	// Cross-cell handoff buffers (cell.go): roamOut is ExtractRoamers'
	// result, reused per call; inbox is the open batch QueueInject fills;
	// inbound holds the batches booked by ScheduleInjects, oldest first,
	// with inboundAt the latest batch's time; inboundFree recycles the
	// buffers of batches that have fired; injectH is the one handler every
	// batch event shares.
	roamOut     []Roamer
	inbox       []Roamer
	inbound     [][]Roamer
	inboundAt   float64
	inboundFree [][]Roamer
	injectH     func()

	// reqs holds the submitted requests awaiting their outcome (serve.go).
	reqs    reqArena
	stopped bool // Stop was called: the channel books nothing more

	warmupEnd float64
	metrics   *Metrics
}

// channel is one downlink transmitter and its role. The paper's single
// channel is shared: it broadcasts the push cycle and serves the pull
// queue between broadcasts (with an empty push set it only pulls). In a
// push/pull split every channel has one role: a push-only channel cycles
// its partition of the push set, a pull-only channel serves the best
// queued entry whenever it is free and idles while the queue is empty. A
// channel transmits one item at a time, so its in-flight state rides in
// the fields below and its two completion handlers are built once in New.
type channel struct {
	push     sched.PushScheduler // nil: the channel never pushes
	pull     bool                // the channel serves the pull queue
	pushItem int                 // item of the in-flight push transmission
	entry    *pullqueue.Entry    // entry of the in-flight pull transmission
	grant    *bandwidth.Grant    // its bandwidth grant, nil without an allocator
	pushH    func()
	pullH    func()
}

// New builds a Server from the configuration.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	s := &Server{
		cfg:       cfg,
		cutoff:    cfg.Cutoff,
		clk:       cfg.Clock,
		arrRng:    root.Split("arrivals"),
		itemRng:   root.Split("items"),
		classRng:  root.Split("classes"),
		warmupEnd: cfg.Horizon * cfg.WarmupFraction,
	}

	pull, err := cfg.buildPullPolicy()
	if err != nil {
		return nil, err
	}
	sel, err := sched.NewSelector(pull)
	if err != nil {
		return nil, err
	}
	s.selector = sel

	if err := s.buildChannels(); err != nil {
		return nil, err
	}

	if cfg.Bandwidth != nil {
		a, err := bandwidth.New(*cfg.Bandwidth, root.Split("bandwidth"))
		if err != nil {
			return nil, err
		}
		s.alloc = a
	}

	if cfg.Clock == nil {
		s.vclk = clock.NewVirtual()
		s.clk = s.vclk
		s.arrivals = cfg.Arrivals
		if s.arrivals == nil {
			p, err := workload.NewPoisson(cfg.Lambda)
			if err != nil {
				return nil, err
			}
			s.arrivals = p
		}
		s.items = cfg.Items
		if s.items == nil {
			s.items = workload.StaticPopularity{Catalog: cfg.Catalog}
		}
	}
	s.tracer = cfg.Tracer
	if s.tracer == nil {
		s.tracer = trace.Nop{}
	}
	s.tele = cfg.Telemetry
	_, nop := s.tracer.(trace.Nop)
	s.tracing = !nop
	s.emitOn = s.tracing || s.tele != nil
	s.up = cfg.Uplink
	if s.up == nil {
		s.up = uplink.Unlimited{}
	}
	s.uplinkRng = root.Split("uplink")
	if cfg.ClientCache != nil {
		pop, err := cache.NewPopulation(cfg.ClientCache.NumClients, cfg.ClientCache.Capacity, cfg.ClientCache.Policy)
		if err != nil {
			return nil, err
		}
		s.caches = pop
		s.clientRng = root.Split("clients")
		s.txCounts = make([]int64, cfg.Catalog.D()+1)
	}
	// Fault-layer streams are split last so enabling the layer never
	// perturbs the streams above — a run with Loss nil (or a 0-probability
	// model) is bit-identical to one without the fault layer at all.
	s.loss = cfg.Loss
	s.lossRng = root.Split("faults-loss")
	s.retryRng = root.Split("faults-retry")
	if cfg.Shed != nil {
		sh, err := faults.NewShedder(*cfg.Shed, cfg.Classes.NumClasses())
		if err != nil {
			return nil, err
		}
		s.shedder = sh
	}
	// The span sampling stream is split after every other stream for the
	// same reason the fault streams come after the workload streams:
	// enabling span provenance must never perturb the draws above, so a
	// spans-off run is bit-identical to a build without the span layer and
	// a spans-on run is trajectory-identical (extra events, same draws).
	if cfg.Spans != nil {
		spanRoot := root
		if cfg.Clock != nil {
			// A serving Server samples from the first split of a fresh
			// root at the seed — the stream a qosd spans seed names — so
			// its sampled set does not depend on which other streams the
			// engine splits (qosd's TestDaemonSpanSampling pins it).
			spanRoot = rng.New(cfg.Seed)
		}
		s.spanRng = spanRoot.Split("spans")
		s.spanIDBase = cfg.Spans.IDBase
		s.spanRates = make([]float64, cfg.Classes.NumClasses())
		for c := range s.spanRates {
			if c < len(cfg.Spans.Rates) {
				s.spanRates[c] = cfg.Spans.Rates[c]
			} else {
				s.spanRates[c] = 1
			}
		}
	}

	// The waiter table is indexed by push rank; ranks run 1..cutoff, using
	// the effective cutoff (a "none" push scheduler zeroes it above).
	s.pushWaiters = make([][]pushWaiter, s.cutoff+1)

	// Build the reused handlers once; see the field comments for why each
	// kind is single-outstanding and therefore safe to share state through
	// the Server and channel fields.
	s.arrivalH = func() {
		n := s.nextBatch
		for i := 0; i < n; i++ {
			s.handleArrival()
		}
		s.scheduleNextArrival()
	}
	for i := range s.chans {
		ch := &s.chans[i]
		ch.pushH = func() {
			if !s.stopped {
				s.completePush(ch, ch.pushItem)
			}
		}
		ch.pullH = func() {
			entry, grant := ch.entry, ch.grant
			ch.entry, ch.grant = nil, nil
			if !s.stopped {
				s.completePull(ch, entry, grant)
			}
		}
	}
	s.injectH = s.injectBatch

	s.metrics = &Metrics{Horizon: cfg.Horizon, Cutoff: cfg.Cutoff}
	for c := 0; c < cfg.Classes.NumClasses(); c++ {
		cm := &ClassMetrics{
			Class:  clients.Class(c),
			Weight: cfg.Classes.Weight(clients.Class(c)),
		}
		if cfg.DelayHistBound > 0 {
			cm.DelayHist.SetBound(cfg.DelayHistBound)
		}
		s.metrics.PerClass = append(s.metrics.PerClass, cm)
	}
	return s, nil
}

// buildChannels lays out the downlink. With no split configured it is the
// paper's one shared channel at rate 1, pushing from the configured push
// scheduler when the push set is non-empty. A split of P push and M pull
// channels runs each at rate 1/(P+M); push channel p cycles ranks p+1,
// p+1+P, … in flat round-robin (Validate admits no other push policy).
func (s *Server) buildChannels() error {
	cfg := s.cfg
	if cfg.PushChannels+cfg.PullChannels == 0 {
		s.rate = 1
		s.chans = []channel{{pull: true}}
		if cfg.Cutoff > 0 {
			ps, err := cfg.buildPushScheduler()
			if err != nil {
				return err
			}
			if _, none := ps.(sched.NoPush); none {
				// Pure-pull degenerate: the push set is treated as empty and
				// every request is routed through the pull queue.
				s.cutoff = 0
			} else {
				s.chans[0].push = ps
			}
		}
	} else {
		s.rate = 1 / float64(cfg.PushChannels+cfg.PullChannels)
		s.chans = make([]channel, cfg.PushChannels+cfg.PullChannels)
		for p := 0; p < cfg.PushChannels; p++ {
			var ranks []int
			for r := p + 1; r <= cfg.Cutoff; r += cfg.PushChannels {
				ranks = append(ranks, r)
			}
			part, err := sched.NewFlatRoundRobinPartition(ranks)
			if err != nil {
				return err
			}
			s.chans[p].push = part
		}
		for m := cfg.PushChannels; m < len(s.chans); m++ {
			s.chans[m].pull = true
		}
	}
	idle := 0
	for i := range s.chans {
		if s.chans[i].push == nil {
			idle++
		}
	}
	s.idle = make([]*channel, 0, idle)
	return nil
}

// emit routes one trace event to both consumers: the configured tracer and
// — via trace.Apply, the single definition of the event→metric mapping —
// the telemetry collector. Keeping both behind one call site is what makes
// the replay audit exact: the collector sees events in precisely the order
// the trace records them.
//
//qos:hotpath
func (s *Server) emit(e *trace.Event) {
	if s.tracing {
		s.tracer.Event(*e)
	}
	trace.Apply(s.tele, e)
}

// observeBandwidth samples every class's bandwidth occupancy
// (capacity − available) into the telemetry gauges.
func (s *Server) observeBandwidth() {
	if s.tele == nil || s.alloc == nil {
		return
	}
	for c := 0; c < s.alloc.NumClasses(); c++ {
		cl := clients.Class(c)
		s.tele.ObserveBandwidth(c, s.alloc.Capacity(cl)-s.alloc.Available(cl))
	}
}

// observePendingRetries samples the outstanding-retry count into telemetry.
func (s *Server) observePendingRetries() {
	if s.tele != nil {
		s.tele.ObservePendingRetries(s.pendingRetries)
	}
}

// scheduleSnapshot books the k-th periodic telemetry snapshot (1-based) at
// simulated time k·every. Snapshots are chained rather than pre-booked so
// the event heap stays small. The callback only reads simulation state —
// no RNG draws, no queue mutations — so a telemetry-enabled run follows a
// trajectory bit-identical to the same run without it.
func (s *Server) scheduleSnapshot(k int64) {
	t := float64(k) * s.tele.SnapshotEvery()
	if t > s.cfg.Horizon {
		return
	}
	s.clk.At(t, func() {
		s.emit(&trace.Event{T: t, Kind: trace.KindSnapshot, Class: -1, Snap: s.tele.TakeSnapshot(t)})
		s.scheduleSnapshot(k + 1)
	})
}

// Run executes the simulation to its horizon and returns the metrics.
// Run may be called once per Server. It is exactly Start + AdvanceTo(horizon)
// + Finish — the cell lifecycle (cell.go) with no intermediate stops — so a
// single-cell run is bit-identical whichever way it is driven.
func (s *Server) Run() *Metrics {
	s.Start()
	s.AdvanceTo(s.cfg.Horizon)
	return s.Finish()
}

// observeQueue snapshots queue sizes into the time-weighted trackers and the
// telemetry gauges.
//
//qos:hotpath
func (s *Server) observeQueue() {
	now := s.clk.Now()
	items, requests := s.selector.Items(), s.selector.Requests()
	s.metrics.QueueItems.Observe(now, float64(items))
	s.metrics.QueueRequests.Observe(now, float64(requests))
	if s.tele != nil {
		s.tele.ObserveQueue(items, requests)
	}
}

// scheduleNextArrival draws the next arrival event from the configured
// process and books the reused arrival handler; events beyond the horizon
// are simply never scheduled (RunUntil would cut them anyway). The chain is
// single-outstanding — the handler re-books only after consuming nextBatch —
// so parking the batch size in the field is race-free.
//
//qos:hotpath
func (s *Server) scheduleNextArrival() {
	gap, batch := s.arrivals.Next(s.arrRng)
	t := s.clk.Now() + gap
	if t > s.cfg.Horizon {
		return
	}
	s.nextBatch = batch
	s.clk.At(t, s.arrivalH)
}

// sampleSpan makes the head-based span sampling decision for one arriving
// request and mints its globally unique span ID, or returns 0 (unsampled or
// spans disabled). The draw comes from the dedicated span stream, so the
// decision never perturbs workload or fault draws.
//
//qos:hotpath
func (s *Server) sampleSpan(class clients.Class) int64 {
	if s.spanRng == nil {
		return 0
	}
	rate := s.spanRates[class]
	if rate <= 0 {
		return 0
	}
	if rate < 1 && s.spanRng.Float64() >= rate {
		return 0
	}
	s.spanNext++
	return s.spanIDBase + s.spanNext
}

// arrive books one request reaching the server — generated, submitted or
// refused by a serving driver — and makes its span sampling decision.
//
//qos:hotpath
func (s *Server) arrive(now float64, item int, class clients.Class) int64 {
	if now >= s.warmupEnd {
		s.metrics.PerClass[class].Arrivals++
	}
	if s.emitOn {
		s.emit(&trace.Event{T: now, Kind: trace.KindArrival, Item: item, Class: class})
	}
	return s.sampleSpan(class)
}

// spanStart emits the span-start provenance event of a sampled request
// (no-op for span 0) with its routing verdict.
//
//qos:hotpath
func (s *Server) spanStart(now float64, item int, class clients.Class, span int64, verdict string) {
	if span != 0 && s.emitOn {
		s.emit(&trace.Event{T: now, Kind: trace.KindSpanStart, Item: item, Class: class, Req: span, Reason: verdict})
	}
}

// addPushWaiter registers a request for the next broadcast of push item
// rank.
//
//qos:hotpath
func (s *Server) addPushWaiter(rank int, w pushWaiter) {
	//lint:allow hotalloc amortized: waiter slices reset to length 0 on drain and reuse capacity across cycles
	s.pushWaiters[rank] = append(s.pushWaiters[rank], w)
}

// handleArrival draws the request's item and class and routes it.
//
//qos:hotpath
func (s *Server) handleArrival() {
	now := s.clk.Now()
	rank := s.items.SampleItem(s.itemRng, now)
	class := s.cfg.Classes.SampleClass(s.classRng)
	span := s.arrive(now, rank, class)
	clientID := -1
	if s.caches != nil {
		clientID = s.clientRng.Intn(s.caches.Size())
		if s.caches.Client(clientID).Lookup(rank, now) {
			// Served from the client's own cache: zero access time.
			if now >= s.warmupEnd {
				cm := s.metrics.PerClass[class]
				cm.CacheHits++
				cm.Served++
				cm.Delay.Add(0)
				cm.DelayHist.Add(0)
			}
			if s.emitOn {
				s.emit(&trace.Event{T: now, Kind: trace.KindServed, Class: class, Arrival: now})
			}
			s.spanStart(now, rank, class, span, trace.VerdictCache)
			if span != 0 && s.emitOn {
				s.emit(&trace.Event{T: now, Kind: trace.KindSpanEnd, Item: rank, Class: class, Req: span, Reason: trace.EndServed, Arrival: now, Start: now})
			}
			return
		}
	}
	if rank <= s.cutoff {
		// Push item: the server ignores the request (flat broadcast will
		// deliver it); the simulator tracks the waiter to measure delay.
		s.spanStart(now, rank, class, span, trace.VerdictPush)
		s.addPushWaiter(rank, pushWaiter{class: class, arrival: now, joined: now, client: clientID, span: span})
		return
	}
	s.spanStart(now, rank, class, span, trace.VerdictPull)
	if !s.up.TryRequest(now, s.uplinkRng) {
		if now >= s.warmupEnd {
			s.metrics.PerClass[class].UplinkLost++
		}
		if span != 0 && s.emitOn {
			s.emit(&trace.Event{T: now, Kind: trace.KindSpanEnd, Item: rank, Class: class, Req: span, Reason: trace.EndUplinkLost, Arrival: now})
		}
		return
	}
	req := pullqueue.Request{
		Item:     rank,
		Class:    class,
		Priority: s.cfg.Classes.Weight(class),
		Arrival:  now,
		Client:   clientID,
		Tag:      span,
	}
	if s.shedPull(req, now) {
		return
	}
	s.enqueuePull(req)
}

// enqueuePull adds an admitted pull request to the selector and kicks an
// idle pull-only channel, if there is one.
//
//qos:hotpath
func (s *Server) enqueuePull(req pullqueue.Request) {
	s.selector.Add(req, s.cfg.Catalog.Length(req.Item))
	if req.Tag != 0 && s.emitOn {
		// Enqueue provenance: the entry's post-add selection score, the
		// quantity the next extraction decision will rank it by.
		now := s.clk.Now()
		if e := s.selector.Entry(req.Item); e != nil {
			s.emit(&trace.Event{
				T: now, Kind: trace.KindSpanEnqueue, Item: req.Item, Class: req.Class,
				Req: req.Tag, Score: s.selector.Score(e, now), Requests: e.NumRequests(),
			})
		}
	}
	s.observeQueue()
	if n := len(s.idle); n > 0 {
		ch := s.idle[n-1]
		s.idle = s.idle[:n-1]
		s.attemptPull(ch)
	}
}

// shedPull consults the overload admission controller and reports whether
// the request was refused. The controller samples pending load (queued pull
// requests plus outstanding retries) at every admission decision, so the
// shed level moves at most one class per arriving request.
//
//qos:hotpath
func (s *Server) shedPull(req pullqueue.Request, now float64) bool {
	if s.shedder == nil {
		return false
	}
	load := s.selector.Requests() + s.pendingRetries
	if s.shedder.Admit(load, int(req.Class)) {
		return false
	}
	if req.Arrival >= s.warmupEnd {
		s.metrics.PerClass[req.Class].Shed++
	}
	if s.emitOn {
		s.emit(&trace.Event{T: now, Kind: trace.KindShed, Item: req.Item, Class: req.Class})
	}
	if req.Tag != 0 && s.emitOn {
		s.emit(&trace.Event{
			T: now, Kind: trace.KindSpanEnd, Item: req.Item, Class: req.Class,
			Req: req.Tag, Reason: trace.EndShed, Arrival: req.Arrival,
		})
	}
	return true
}

// retryAfterLoss books the next re-request for a request whose pull delivery
// (or uplink re-request) just failed at now. It returns false when the retry
// budget is exhausted — the caller records the terminal outcome. A retry
// that would fire after the request's TTL deadline is recorded as Expired
// here (the client gives up listening at its deadline).
//
//qos:hotpath
func (s *Server) retryAfterLoss(r pullqueue.Request, now float64) bool {
	if !s.cfg.Retry.Enabled() || r.Attempts >= s.cfg.Retry.MaxAttempts {
		return false
	}
	retryAt := now + s.cfg.Retry.Backoff(r.Attempts, s.retryRng)
	if s.cfg.RequestTTL > 0 && retryAt > r.Arrival+s.cfg.RequestTTL {
		if r.Arrival >= s.warmupEnd {
			s.metrics.PerClass[r.Class].Expired++
		}
		if r.Tag != 0 && s.emitOn {
			// The client gives up at its deadline rather than booking a
			// retry that would land past it.
			s.emit(&trace.Event{
				T: now, Kind: trace.KindSpanEnd, Item: r.Item, Class: r.Class,
				Req: r.Tag, Reason: trace.EndExpired, Arrival: r.Arrival,
			})
		}
		return true
	}
	r.Attempts++
	if r.Arrival >= s.warmupEnd {
		s.metrics.PerClass[r.Class].Retries++
	}
	if s.emitOn {
		s.emit(&trace.Event{
			T: now, Kind: trace.KindRetry, Item: r.Item, Class: r.Class, Attempt: r.Attempts,
		})
	}
	s.pendingRetries++
	s.observePendingRetries()
	// Unlike the arrival/push/pull handlers, retries are multi-outstanding
	// (every lost request books its own), so each needs its own closure.
	//lint:allow hotalloc per-retry closure: retries are loss-path only and bounded by MaxAttempts
	s.clk.At(retryAt, func() {
		s.pendingRetries--
		s.observePendingRetries()
		s.handleRetry(r)
	})
	return true
}

// handleRetry delivers a client's re-request to the server. Like any fresh
// request it must win the uplink and pass admission control; an uplink loss
// spends the attempt and backs off again until the budget runs out.
//
//qos:hotpath
func (s *Server) handleRetry(r pullqueue.Request) {
	now := s.clk.Now()
	if r.Tag != 0 && s.emitOn {
		// The backoff segment ends here; what follows (uplink, admission,
		// enqueue) decides the next segment, exactly like a fresh arrival.
		s.emit(&trace.Event{
			T: now, Kind: trace.KindSpanRetry, Item: r.Item, Class: r.Class,
			Req: r.Tag, Attempt: r.Attempts,
		})
	}
	if !s.up.TryRequest(now, s.uplinkRng) {
		if !s.retryAfterLoss(r, now) {
			if r.Arrival >= s.warmupEnd {
				s.metrics.PerClass[r.Class].UplinkLost++
			}
			if r.Tag != 0 && s.emitOn {
				s.emit(&trace.Event{
					T: now, Kind: trace.KindSpanEnd, Item: r.Item, Class: r.Class,
					Req: r.Tag, Reason: trace.EndUplinkLost, Arrival: r.Arrival,
				})
			}
		}
		return
	}
	if s.shedPull(r, now) {
		return
	}
	s.enqueuePull(r)
}

// startPush begins the channel's next broadcast from its push scheduler. A
// channel has at most one transmission in flight, so the item rides in
// ch.pushItem and the channel's handler is reused.
//
//qos:hotpath
func (s *Server) startPush(ch *channel) {
	if s.stopped {
		return
	}
	item := ch.push.Next()
	length := s.cfg.Catalog.Length(item)
	if s.emitOn {
		s.emit(&trace.Event{T: s.clk.Now(), Kind: trace.KindPushStart, Item: item, Class: -1})
	}
	ch.pushItem = item
	s.clk.After(length/s.rate, ch.pushH)
}

// completePush satisfies every waiter of the broadcast item, then gives a
// shared channel's next slot to the pull system; a push-only channel
// broadcasts its next item.
//
//qos:hotpath
func (s *Server) completePush(ch *channel, item int) {
	now := s.clk.Now()
	s.metrics.PushBroadcasts++
	if s.loss != nil && s.loss.Corrupted(now, s.lossRng) {
		// Nobody decoded the broadcast: waiters stay registered and catch
		// the item's next push cycle; no cache fills, no PIX update.
		s.metrics.CorruptedPushes++
		if s.emitOn {
			s.emit(&trace.Event{
				T: now, Kind: trace.KindCorrupt, Item: item, Class: -1,
				Push: true, Requests: len(s.pushWaiters[item]),
			})
		}
	} else {
		s.noteTransmission(item)
		if s.emitOn {
			s.emit(&trace.Event{
				T: now, Kind: trace.KindPushComplete, Item: item, Class: -1,
				Requests: len(s.pushWaiters[item]),
			})
		}
		start := now - s.cfg.Catalog.Length(item)/s.rate
		for _, w := range s.pushWaiters[item] {
			ws := start
			if w.joined > ws {
				// The waiter tuned in mid-broadcast (or a roamer re-attached
				// mid-broadcast): its service segment starts at its own
				// registration, not at the transmission start.
				ws = w.joined
			}
			s.recordServed(w.class, w.arrival, now, true, item, w.span, ws, w.req)
			s.fillCache(w.client, item, now)
		}
		s.pushWaiters[item] = s.pushWaiters[item][:0]
	}
	if ch.pull {
		s.attemptPull(ch)
	} else {
		s.startPush(ch)
	}
}

// attemptPull serves the best pull entry on the channel if one exists and
// bandwidth allows. Otherwise a channel that pushes returns to its push
// cycle and a pull-only channel idles until the next enqueue. An entry
// whose every request is a submitted one that already resolved is recycled
// untransmitted: its callers were answered at their deadlines, so
// broadcasting the item would serve no one.
//
//qos:hotpath
func (s *Server) attemptPull(ch *channel) {
	if s.stopped {
		return
	}
	for {
		entry := s.selector.ExtractBest(s.clk.Now())
		if entry == nil {
			if ch.push != nil {
				s.startPush(ch)
			} else {
				n := len(s.idle)
				s.idle = s.idle[:n+1]
				s.idle[n] = ch
			}
			return
		}
		if s.allResolved(entry) {
			s.selector.Recycle(entry)
			continue
		}
		s.observeQueue()

		var grant *bandwidth.Grant
		if s.alloc != nil {
			g, blocked := s.alloc.Reserve(entry.HighestClass(), entry.Length)
			if blocked {
				// Paper: the item and all its pending requests are lost.
				s.metrics.BlockedTransmissions++
				if s.emitOn {
					s.emit(&trace.Event{
						T: s.clk.Now(), Kind: trace.KindBlocked, Item: entry.Item,
						Class: entry.HighestClass(), Requests: len(entry.Requests),
					})
				}
				for _, r := range entry.Requests {
					if r.Arrival >= s.warmupEnd {
						s.metrics.PerClass[r.Class].Dropped++
					}
					if r.Tag != 0 && s.emitOn {
						s.emit(&trace.Event{
							T: s.clk.Now(), Kind: trace.KindSpanEnd, Item: entry.Item, Class: r.Class,
							Req: r.Tag, Reason: trace.EndBlocked, Arrival: r.Arrival,
						})
					}
				}
				s.selector.Recycle(entry)
				if s.cfg.RetryOnBlock || ch.push == nil {
					// Try the next entry: on a channel that does not push
					// the slot has no other use.
					continue
				}
				s.startPush(ch)
				return
			}
			grant = g
			s.observeBandwidth()
		}

		s.emitDecision(entry)
		if s.emitOn {
			s.emit(&trace.Event{
				T: s.clk.Now(), Kind: trace.KindPullStart, Item: entry.Item,
				Class: entry.HighestClass(), Requests: len(entry.Requests),
			})
		}
		ch.entry, ch.grant = entry, grant
		s.clk.After(entry.Length/s.rate, ch.pullH)
		return
	}
}

// allResolved reports whether every request in the entry is a submitted
// request that already reached its outcome. Generated requests (handle 0)
// never resolve early, so a simulation never recycles an entry here.
//
//qos:hotpath
func (s *Server) allResolved(entry *pullqueue.Entry) bool {
	for i := range entry.Requests {
		h := entry.Requests[i].Handle
		if h == 0 {
			return false
		}
		if _, live := s.reqs.lookup(h); live {
			return false
		}
	}
	return true
}

// emitDecision records scheduler decision provenance for a pull extraction
// that is about to transmit: the winning entry's selection score and the
// runner-up it beat (the queue's best remaining entry). Emitted only when
// the winning entry carries at least one sampled request, so span-off runs
// and unsampled traffic pay a nil check and nothing else.
//
//qos:hotpath
func (s *Server) emitDecision(entry *pullqueue.Entry) {
	if s.spanRng == nil || !s.emitOn {
		return
	}
	sampled := false
	for i := range entry.Requests {
		if entry.Requests[i].Tag != 0 {
			sampled = true
			break
		}
	}
	if !sampled {
		return
	}
	now := s.clk.Now()
	ev := trace.Event{
		T: now, Kind: trace.KindDecision, Item: entry.Item,
		Class: entry.HighestClass(), Requests: len(entry.Requests),
		Score: s.selector.Score(entry, now),
	}
	if ru := s.selector.Peek(now); ru != nil {
		ev.RunnerUp = ru.Item
		ev.RunnerUpScore = s.selector.Score(ru, now)
	}
	s.emit(&ev)
}

// completePull satisfies all of the entry's pending requests, then hands
// the channel back to its push cycle or, on a pull-only channel, to the
// next queued entry.
//
//qos:hotpath
func (s *Server) completePull(ch *channel, entry *pullqueue.Entry, grant *bandwidth.Grant) {
	now := s.clk.Now()
	start := now - entry.Length/s.rate
	s.metrics.PullTransmissions++
	if s.loss != nil && s.loss.Corrupted(now, s.lossRng) {
		// The delivery was corrupted: each pending request either books a
		// client re-request (bounded backoff) or fails terminally.
		s.metrics.CorruptedPulls++
		if s.emitOn {
			s.emit(&trace.Event{
				T: now, Kind: trace.KindCorrupt, Item: entry.Item,
				Class: entry.HighestClass(), Requests: len(entry.Requests),
			})
		}
		// retryAfterLoss schedules against value copies of the requests, so
		// the entry (and its request slice) is free to reuse immediately.
		for _, r := range entry.Requests {
			if r.Tag != 0 && s.emitOn {
				// The failed service segment: transmission start to the
				// corruption being detected at completion.
				s.emit(&trace.Event{
					T: now, Kind: trace.KindSpanLoss, Item: entry.Item, Class: r.Class,
					Req: r.Tag, Start: start, Attempt: r.Attempts + 1,
				})
			}
			if !s.retryAfterLoss(r, now) {
				if r.Arrival >= s.warmupEnd {
					s.metrics.PerClass[r.Class].Failed++
				}
				if r.Tag != 0 && s.emitOn {
					s.emit(&trace.Event{
						T: now, Kind: trace.KindSpanEnd, Item: entry.Item, Class: r.Class,
						Req: r.Tag, Reason: trace.EndFailed, Arrival: r.Arrival,
					})
				}
			}
		}
	} else {
		s.noteTransmission(entry.Item)
		if s.emitOn {
			s.emit(&trace.Event{
				T: now, Kind: trace.KindPullComplete, Item: entry.Item,
				Class: entry.HighestClass(), Requests: len(entry.Requests),
			})
		}
		for _, r := range entry.Requests {
			s.recordServed(r.Class, r.Arrival, now, false, entry.Item, r.Tag, start, r.Handle)
			s.fillCache(r.Client, entry.Item, now)
		}
	}
	s.selector.Recycle(entry)
	if grant != nil {
		s.alloc.Release(grant)
		s.observeBandwidth()
	}
	if ch.push != nil {
		s.startPush(ch)
	} else {
		s.attemptPull(ch)
	}
}

// noteTransmission updates the empirical broadcast-frequency counters that
// feed PIX scores (only maintained when caching is enabled).
//
//qos:hotpath
func (s *Server) noteTransmission(item int) {
	if s.txCounts == nil {
		return
	}
	s.txCounts[item]++
	s.txTotal++
}

// fillCache stores a just-received item in the requesting client's cache.
// The PIX score is the item's access probability over its MEASURED
// broadcast frequency (add-one smoothed), exactly as the broadcast-disk
// policy prescribes: items that are popular but appear on the channel
// rarely are the most valuable to cache.
//
//qos:hotpath
func (s *Server) fillCache(clientID, item int, now float64) {
	if s.caches == nil || clientID < 0 {
		return
	}
	x := float64(s.txCounts[item]+1) / float64(s.txTotal+int64(s.cfg.Catalog.D()))
	s.caches.Client(clientID).Insert(item, s.cfg.Catalog.Prob(item)/x, now)
}

// CacheHitRate returns the population-wide client cache hit rate, 0 when
// caching is disabled.
func (s *Server) CacheHitRate() float64 {
	if s.caches == nil {
		return 0
	}
	return s.caches.HitRate()
}

// recordServed logs one satisfied request (post-warmup arrivals only).
// Under RequestTTL, a request whose deadline passed before the transmission
// completed is counted as Expired instead. span and start carry span
// provenance for sampled requests (0s otherwise): the span ID and the
// request's service-segment start time — transmission start, or the
// request's own arrival when it joined a broadcast already in flight. h is
// a submitted request's arena handle (0 when generated): a live one has
// its expiry cancelled and its caller answered; a stale one already
// resolved at its deadline and is skipped.
//
//qos:hotpath
func (s *Server) recordServed(class clients.Class, arrival, completion float64, push bool, item int, span int64, start float64, h int64) {
	slot := int32(-1)
	if h != 0 {
		live, ok := s.reqs.lookup(h)
		if !ok {
			return
		}
		slot = live
		s.clk.Cancel(s.reqs.expiry[slot])
	}
	d := completion - arrival
	expired := s.cfg.RequestTTL > 0 && d > s.cfg.RequestTTL
	if span != 0 && s.emitOn {
		if expired {
			s.emit(&trace.Event{
				T: completion, Kind: trace.KindSpanEnd, Item: item, Class: class,
				Req: span, Reason: trace.EndExpired, Arrival: arrival, Start: start,
			})
		} else {
			s.emit(&trace.Event{
				T: completion, Kind: trace.KindSpanEnd, Item: item, Class: class,
				Req: span, Reason: trace.EndServed, Arrival: arrival, Start: start, Push: push,
			})
		}
	}
	if arrival >= s.warmupEnd {
		cm := s.metrics.PerClass[class]
		if expired {
			cm.Expired++
		} else {
			cm.Served++
			cm.Delay.Add(d)
			cm.DelayHist.Add(d)
			if s.emitOn {
				s.emit(&trace.Event{
					T: completion, Kind: trace.KindServed, Class: class,
					Arrival: arrival, Push: push,
				})
			}
			if push {
				cm.PushDelay.Add(d)
			} else {
				cm.PullDelay.Add(d)
			}
		}
	}
	if slot >= 0 {
		if expired {
			s.finish(slot, Result{Outcome: OutcomeExpired})
		} else {
			s.finish(slot, Result{Outcome: OutcomeServed, Delay: d, Push: push})
		}
	}
}

// Run is a convenience: build a Server from cfg and run it.
func Run(cfg Config) (*Metrics, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}
