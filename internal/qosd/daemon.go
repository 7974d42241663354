// Package qosd is the serving daemon behind cmd/qosd: the paper's hybrid
// push/pull scheduler (a core.Server, fed through its Submit driver)
// mounted on a clock, fronted by API-key → service-class authentication
// and class-aware admission control, exposed over HTTP.
//
// The daemon is clock-agnostic: cmd/qosd runs it on a Wall clock with
// Wall.Submit bridging HTTP handler goroutines onto the engine loop, while
// the chaos tests run the identical handler stack on a Virtual clock and
// replay overload scenarios deterministically.
package qosd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"hybridqos/internal/admission"
	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/clock"
	"hybridqos/internal/core"
	"hybridqos/internal/span"
	"hybridqos/internal/telemetry"
	"hybridqos/internal/trace"
)

// daemon states, tracked atomically so /readyz answers from any goroutine
// without touching the clock loop.
const (
	stateStarting int32 = iota
	stateReady
	stateDraining
	stateDrained
)

// delayHistBound caps the engine's per-class delay histograms, so a
// long-running daemon keeps a fixed-size reservoir of delay samples rather
// than one per served request.
const delayHistBound = 1024

// defaultSpanBuffer is the /debug/spans ring capacity when the config
// leaves it 0.
const defaultSpanBuffer = 64

// Response is the JSON body answering /request.
type Response struct {
	// Outcome is "served", "expired", or the refusal verdict
	// ("shed_overload", "rate_limited", "quota_exceeded", "draining").
	Outcome string `json:"outcome"`
	// Class is the request's resolved service class.
	Class int `json:"class"`
	// DelayUnits is the access delay in broadcast units (served only).
	DelayUnits float64 `json:"delay_units,omitempty"`
	// Push reports whether a broadcast served it.
	Push bool `json:"push,omitempty"`
}

// Daemon wires the serving engine to HTTP.
type Daemon struct {
	cat   *catalog.Catalog
	clk   clock.Clock
	exec  func(func())
	srv   *core.Server
	ctl   *admission.Controller
	tele  *telemetry.Collector
	spans *spanRing // nil when span recording is off

	keys         map[string]int
	defaultClass int
	state        atomic.Int32

	// Clock-goroutine state.
	pending   int // admitted requests not yet answered
	draining  bool
	onDrained func()
}

// New builds a Daemon on the given clock. exec must run its argument on
// the clock's handler goroutine (Wall.Submit for serving; for single-
// threaded virtual-clock tests, calling the function directly is correct
// because the caller already owns the clock goroutine).
func New(cfg Config, clk clock.Clock, exec func(func())) (*Daemon, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if clk == nil || exec == nil {
		return nil, fmt.Errorf("qosd: nil clock or exec")
	}
	cat, err := catalog.Generate(catalog.Config{
		D: cfg.Catalog.D, Theta: cfg.Catalog.Theta,
		MinLen: cfg.Catalog.MinLen, MaxLen: cfg.Catalog.MaxLen, Seed: cfg.Catalog.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("qosd: %w", err)
	}
	cls, err := clients.New(clients.Config{Weights: cfg.ClassWeights})
	if err != nil {
		return nil, fmt.Errorf("qosd: %w", err)
	}
	ctl, err := admission.New(cfg.admissionConfig())
	if err != nil {
		return nil, err
	}
	tele, err := telemetry.New(telemetry.Options{})
	if err != nil {
		return nil, fmt.Errorf("qosd: %w", err)
	}
	d := &Daemon{
		cat:          cat,
		clk:          clk,
		exec:         exec,
		ctl:          ctl,
		tele:         tele,
		defaultClass: cfg.defaultClass(),
	}
	ccfg := core.Config{
		Catalog:        cat,
		Classes:        cls,
		Cutoff:         cfg.Cutoff,
		Alpha:          cfg.Alpha,
		PullPolicyName: cfg.PullPolicy,
		PushPolicyName: cfg.PushPolicy,
		PushDisks:      cfg.PushDisks,
		Clock:          clk,
		Telemetry:      tele,
		DelayHistBound: delayHistBound,
	}
	if sc := cfg.Spans; sc != nil && sc.Rate > 0 {
		rates := make([]float64, len(cfg.ClassWeights))
		for c := range rates {
			rates[c] = sc.Rate
		}
		ccfg.Spans = &core.SpanConfig{Rates: rates}
		ccfg.Seed = sc.Seed
		buffer := sc.Buffer
		if buffer == 0 {
			buffer = defaultSpanBuffer
		}
		d.spans = &spanRing{buf: make([]*span.Span, 0, buffer)}
		ccfg.Tracer = span.NewRecorder(d.spans.add)
	}
	if d.srv, err = core.New(ccfg); err != nil {
		return nil, err
	}
	d.keys = make(map[string]int, len(cfg.Keys))
	for _, k := range sortedKeys(cfg.Keys) {
		d.keys[k] = cfg.Keys[k]
	}
	return d, nil
}

// Start launches the engine's broadcast loop on the clock goroutine and
// marks the daemon ready.
func (d *Daemon) Start() {
	d.exec(func() {
		d.srv.Start()
		d.state.Store(stateReady)
	})
}

// Drain stops admission, lets every admitted request resolve by its
// deadline, then calls onDrained once (from the clock goroutine). New
// /request calls are answered 503 immediately.
func (d *Daemon) Drain(onDrained func()) {
	d.exec(func() {
		if d.draining {
			return
		}
		d.draining = true
		d.onDrained = onDrained
		d.state.Store(stateDraining)
		d.tele.ObserveDraining(true)
		if d.pending == 0 {
			d.finishDrain()
		}
	})
}

// finishDrain stops the engine — a transmission still in flight completes
// as a no-op — and reports drain completion.
func (d *Daemon) finishDrain() {
	d.srv.Stop()
	d.state.Store(stateDrained)
	if d.onDrained != nil {
		d.onDrained()
	}
}

// Telemetry exposes the daemon's collector (tests, embedding).
func (d *Daemon) Telemetry() *telemetry.Collector { return d.tele }

// Spans returns the most recent completed spans, oldest first (nil with
// span recording off). Call it on the clock goroutine.
func (d *Daemon) Spans() []*span.Span {
	if d.spans == nil {
		return nil
	}
	return d.spans.list()
}

// classOf resolves an API key to a service class; ok=false means reject.
func (d *Daemon) classOf(key string) (int, bool) {
	if c, found := d.keys[key]; found {
		return c, true
	}
	if d.defaultClass >= 0 {
		return d.defaultClass, true
	}
	return -1, false
}

// Serve runs one parsed, authenticated request through admission and the
// engine and reports the HTTP status and body via respond — synchronously
// for refusals, from a later clock event for admitted requests. Serve must
// be called on the clock goroutine; ServeHTTP bridges via exec. This is the
// entry point the virtual-clock chaos tests drive.
func (d *Daemon) Serve(req Request, class int, respond func(status int, resp Response)) {
	if d.draining {
		d.tele.Rejected(class)
		d.srv.Refuse(req.Item, clients.Class(class), trace.EndDraining)
		respond(http.StatusServiceUnavailable, Response{Outcome: "draining", Class: class})
		return
	}
	if req.Item > d.cat.D() {
		respond(http.StatusBadRequest, Response{Outcome: "bad_item", Class: class})
		return
	}
	now := d.clk.Now()
	verdict := d.ctl.Admit(now, class, d.pending)
	d.tele.ObserveShedLevel(d.ctl.ShedLevel())
	if verdict != admission.Admitted {
		outcome := trace.EndRejected
		switch verdict {
		case admission.ShedOverload:
			d.tele.Shed(class)
			outcome = trace.EndShed
		case admission.RateLimited:
			d.tele.RateLimited(class)
		case admission.QuotaExceeded:
			d.tele.QuotaExceeded(class)
		}
		d.srv.Refuse(req.Item, clients.Class(class), outcome)
		respond(http.StatusTooManyRequests, Response{Outcome: verdict.String(), Class: class})
		return
	}
	budget := d.ctl.Deadline(class)
	if req.DeadlineIn > 0 && req.DeadlineIn < budget {
		budget = req.DeadlineIn
	}
	d.pending++
	d.srv.Submit(req.Item, clients.Class(class), now+budget, func(res core.Result) {
		d.ctl.Release(class)
		d.pending--
		if res.Outcome == core.OutcomeServed {
			respond(http.StatusOK, Response{
				Outcome:    "served",
				Class:      class,
				DelayUnits: res.Delay,
				Push:       res.Push,
			})
		} else {
			respond(http.StatusGatewayTimeout, Response{Outcome: "expired", Class: class})
		}
		if d.draining && d.pending == 0 {
			d.finishDrain()
		}
	})
}

// spanRing keeps the most recent completed spans for /debug/spans.
type spanRing struct {
	buf  []*span.Span
	head int // oldest span once the ring is full
}

// add records a completed span, evicting the oldest.
func (r *spanRing) add(sp *span.Span) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, sp)
		return
	}
	r.buf[r.head] = sp
	r.head = (r.head + 1) % len(r.buf)
}

// list returns the buffered spans, oldest first.
func (r *spanRing) list() []*span.Span {
	out := make([]*span.Span, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}

// Handler returns the daemon's HTTP mux:
//
//	POST /request  — {"item": N[, "deadline_in": U]} with X-API-Key; waits
//	                 for the item (200 served / 504 expired) or refuses
//	                 (401 unknown key, 429 admission, 503 draining).
//	GET  /metrics  — live Prometheus exposition of the telemetry registry.
//	GET  /debug/spans — recent completed sampled request spans as JSON
//	                 (empty array unless the config enables spans).
//	GET  /healthz  — 200 while the process lives.
//	GET  /readyz   — 200 once started and not draining, else 503.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/request", d.handleRequest)
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/debug/spans", d.handleSpans)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if d.state.Load() == stateReady {
			fmt.Fprintln(w, "ready")
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
	})
	return mux
}

// answer is one buffered HTTP reply from the clock goroutine.
type answer struct {
	status int
	resp   Response
}

// handleRequest is the HTTP face of Serve. It blocks the handler goroutine
// until the engine resolves the request — for an admitted request that can
// be the full deadline budget.
func (d *Daemon) handleRequest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// Short-circuit outside the serving window without touching the clock
	// loop: before Start it is not yet consuming, after drain completion it
	// may already be stopped.
	if s := d.state.Load(); s == stateStarting || s == stateDrained {
		http.Error(w, "not serving", http.StatusServiceUnavailable)
		return
	}
	class, ok := d.classOf(r.Header.Get("X-API-Key"))
	if !ok {
		// The collector belongs to the clock goroutine, like the engine.
		d.exec(func() { d.tele.Rejected(telemetry.ClassNone) })
		http.Error(w, "unknown API key", http.StatusUnauthorized)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16))
	if err != nil {
		http.Error(w, "reading body", http.StatusBadRequest)
		return
	}
	req, err := ParseRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Buffered: the clock goroutine must never block on a slow client.
	// The handler goroutine owns the write; if the client is gone the
	// response is simply discarded by net/http.
	ch := make(chan answer, 1)
	d.exec(func() {
		d.Serve(req, class, func(status int, resp Response) {
			ch <- answer{status, resp}
		})
	})
	a := <-ch
	writeJSON(w, a.status, a.resp)
}

// handleMetrics snapshots the registry on the clock goroutine and serves
// the Prometheus rendering.
func (d *Daemon) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if d.state.Load() == stateDrained {
		// The clock loop may already be stopped; nothing left to report.
		http.Error(w, "drained", http.StatusServiceUnavailable)
		return
	}
	type rendered struct {
		body []byte
		err  error
	}
	ch := make(chan rendered, 1)
	d.exec(func() {
		var buf bytes.Buffer
		err := telemetry.WriteProm(&buf, d.tele.TakeSnapshot(d.clk.Now()))
		ch <- rendered{buf.Bytes(), err}
	})
	out := <-ch
	if out.err != nil {
		http.Error(w, out.err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(out.body)
}

// handleSpans snapshots the completed-span ring on the clock goroutine and
// serves it as a JSON array, oldest span first.
func (d *Daemon) handleSpans(w http.ResponseWriter, _ *http.Request) {
	if d.state.Load() == stateDrained {
		// The clock loop may already be stopped; nothing left to ask.
		http.Error(w, "drained", http.StatusServiceUnavailable)
		return
	}
	ch := make(chan []*span.Span, 1)
	d.exec(func() { ch <- d.Spans() })
	spans := <-ch
	if spans == nil {
		spans = []*span.Span{}
	}
	writeJSON(w, http.StatusOK, spans)
}

// writeJSON writes one JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // the client may be gone; nothing to do
}
