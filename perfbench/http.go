package main

// serve-http: qosd in-process, wired as cmd/qosd wires it (clock.NewWall,
// wall.Submit as exec, httpserve.Start), driven over loopback by one
// process through two keep-alive connections, each a closed loop:
//
//   - flood sends class-C requests whose token bucket is empty, so every
//     answer is a 429 rate_limited refusal;
//   - gold sends seeded class-A items and waits for each to be served.
//
// The configuration is cmd/qosd/example-config.json with unit_ms 1 and
// class C's token bucket emptied (rate 1e-6 per unit, burst 1; the one
// token is spent before the window opens).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clock"
	"hybridqos/internal/httpserve"
	"hybridqos/internal/qosd"
	"hybridqos/internal/rng"
)

const (
	floodKey = "demo-bronze"
	goldKey  = "demo-gold"
)

func httpConfig() (qosd.Config, *catalog.Catalog, error) {
	cfg, cat, err := virtualConfig()
	if err != nil {
		return cfg, nil, err
	}
	cfg.UnitMillis = 1
	classes := append([]qosd.ClassAdmission(nil), cfg.Admission.Classes...)
	classes[2].Rate, classes[2].Burst = 1e-6, 1
	cfg.Admission.Classes = classes
	return cfg, cat, cfg.Validate()
}

// httpStack is one running daemon and its two client connections.
type httpStack struct {
	wall  *clock.Wall
	d     *qosd.Daemon
	srv   *httpserve.Server
	flood *conn
	gold  *conn
}

// httpProbe is the traced run's instrumentation, passed in through the
// daemon's injection points. Fields written by the clock loop are read
// only after the loop has stopped.
type httpProbe struct {
	bridge, serve []float64 // µs: Submit → closure start; time inside Serve
	busy          time.Duration

	mu      sync.Mutex
	handler []float64 // µs inside the /request handler
}

// exec wraps wall.Submit, timing the bridge wait and the closure.
func (p *httpProbe) exec(wall *clock.Wall) func(func()) {
	return func(f func()) {
		t0 := time.Now()
		wall.Submit(func() {
			t1 := time.Now()
			f()
			d := time.Since(t1)
			p.bridge = append(p.bridge, float64(t1.Sub(t0).Nanoseconds())/1e3)
			p.serve = append(p.serve, float64(d.Nanoseconds())/1e3)
			p.busy += d
		})
	}
}

// busyClock wraps the wall clock, adding each timer handler's run time to
// the loop's busy time.
type busyClock struct {
	*clock.Wall
	p *httpProbe
}

func (c busyClock) At(t float64, h func()) clock.Token {
	return c.Wall.At(t, func() {
		t0 := time.Now()
		h()
		c.p.busy += time.Since(t0)
	})
}

func (c busyClock) After(d float64, h func()) clock.Token {
	return c.At(c.Now()+d, h)
}

func (p *httpProbe) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := float64(time.Since(t0).Nanoseconds()) / 1e3
		p.mu.Lock()
		p.handler = append(p.handler, d)
		p.mu.Unlock()
	})
}

// startHTTP brings the stack up and opens both connections. With a probe
// the loop, server and clients run under pprof role labels.
func startHTTP(cfg qosd.Config, probe *httpProbe) (*httpStack, error) {
	wall, err := clock.NewWall(time.Duration(cfg.UnitMillis * float64(time.Millisecond)))
	if err != nil {
		return nil, err
	}
	var clk clock.Clock = wall
	exec := wall.Submit
	if probe != nil {
		clk, exec = busyClock{wall, probe}, probe.exec(wall)
	}
	d, err := qosd.New(cfg, clk, exec)
	if err != nil {
		return nil, err
	}
	s := &httpStack{wall: wall, d: d}
	if probe != nil {
		withRole("loop", func() { go wall.Run() })
	} else {
		go wall.Run()
	}
	d.Start()
	// Start runs on the clock loop; wait for it before taking requests.
	// Submitted handlers run in submission order.
	started := make(chan struct{})
	wall.Submit(func() { close(started) })
	<-started
	h := d.Handler()
	if probe != nil {
		h = probe.wrap(h)
		withRole("server", func() { s.srv, err = httpserve.Start("127.0.0.1:0", h) })
	} else {
		s.srv, err = httpserve.Start("127.0.0.1:0", h)
	}
	if err != nil {
		wall.Stop()
		<-wall.Done()
		return nil, err
	}
	base := "http://" + s.srv.Addr.String()
	s.flood, s.gold = newConn(base, floodKey), newConn(base, goldKey)
	// Dialling starts each connection's transport goroutines, which take
	// the dialling goroutine's labels.
	dial := func() {
		for _, c := range []*conn{s.flood, s.gold} {
			if err == nil {
				err = c.get("/readyz")
			}
		}
	}
	if probe != nil {
		withRole("client", dial)
	} else {
		dial()
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop shuts down as cmd/qosd does: drain, close the server, stop the loop.
func (s *httpStack) stop() error {
	s.flood.close()
	s.gold.close()
	drained := make(chan struct{})
	s.d.Drain(func() { close(drained) })
	<-drained
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.wall.Stop()
	<-s.wall.Done()
	return err
}

// conn is one keep-alive client connection.
type conn struct {
	client *http.Client
	base   string
	key    string
}

func newConn(base, key string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{client: &http.Client{Transport: tr}, base: base, key: key}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

func (c *conn) get(path string) error {
	res, err := c.client.Get(c.base + path)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if _, err := io.Copy(io.Discard, res.Body); err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, res.StatusCode)
	}
	return nil
}

// post sends one /request and decodes the answer.
func (c *conn) post(body string) (int, qosd.Response, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/request", strings.NewReader(body))
	if err != nil {
		return 0, qosd.Response{}, err
	}
	req.Header.Set("X-API-Key", c.key)
	res, err := c.client.Do(req)
	if err != nil {
		return 0, qosd.Response{}, err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		return res.StatusCode, qosd.Response{}, err
	}
	var r qosd.Response
	if err := json.Unmarshal(data, &r); err != nil {
		return res.StatusCode, r, fmt.Errorf("status %d body %q: %w", res.StatusCode, data, err)
	}
	return res.StatusCode, r, nil
}

// sample keeps a uniform random sample of at most sampleCap values, so a
// run's memory, and so max_rss_mb, does not grow with its request count.
type sample struct {
	xs   []float64
	seen int
	r    *rng.Source
}

const sampleCap = 1 << 15

func newSample(seed uint64) *sample {
	return &sample{xs: make([]float64, 0, sampleCap), r: rng.New(seed)}
}

func (s *sample) add(x float64) {
	s.seen++
	if len(s.xs) < sampleCap {
		s.xs = append(s.xs, x)
	} else if j := s.r.Intn(s.seen); j < sampleCap {
		s.xs[j] = x
	}
}

// httpRun is one window's client-side results.
type httpRun struct {
	elapsed      time.Duration // the flood loop's running time
	refused      int64
	floodUS      *sample   // flood round trips, µs
	goldMS       []float64 // gold wall latency, ms
	goldOverhead []float64 // gold wall latency minus delay_units × unit, µs
	chk          checker
}

// window runs both closed loops for the window and checks every answer.
func (s *httpStack) window(cat *catalog.Catalog, seed uint64, window time.Duration, unitMS float64, label bool) *httpRun {
	flood, gold := httpRun{floodUS: newSample(mix(seed, 3))}, httpRun{}
	var wg sync.WaitGroup
	start := time.Now()
	loop := func(run *httpRun, stream int, f func(item int, run *httpRun)) {
		defer wg.Done()
		r := rng.New(mix(seed, stream))
		for time.Since(start) < window {
			f(cat.SampleRank(r), run)
		}
		run.elapsed = time.Since(start)
	}
	floodOne := func(item int, run *httpRun) {
		t0 := time.Now()
		status, resp, err := s.flood.post(fmt.Sprintf(`{"item":%d}`, item))
		run.floodUS.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
		if err == nil && (status != http.StatusTooManyRequests || resp.Outcome != "rate_limited" || resp.Class != 2) {
			err = fmt.Errorf("serve-http: flood answer status %d outcome %q class %d", status, resp.Outcome, resp.Class)
		}
		if err == nil {
			run.refused++
		}
		run.chk.op(err)
	}
	goldOne := func(item int, run *httpRun) {
		t0 := time.Now()
		status, resp, err := s.gold.post(fmt.Sprintf(`{"item":%d}`, item))
		lat := time.Since(t0)
		if err == nil && (status != http.StatusOK || resp.Outcome != "served" || resp.Class != 0) {
			err = fmt.Errorf("serve-http: gold answer status %d outcome %q class %d", status, resp.Outcome, resp.Class)
		}
		if err == nil {
			run.goldMS = append(run.goldMS, float64(lat.Nanoseconds())/1e6)
			run.goldOverhead = append(run.goldOverhead, float64(lat.Nanoseconds())/1e3-resp.DelayUnits*unitMS*1e3)
		}
		run.chk.op(err)
	}
	wg.Add(2)
	start1 := func(f func()) {
		if label {
			withRole("client", func() { go f() })
		} else {
			go f()
		}
	}
	start1(func() { loop(&flood, 1, floodOne) })
	start1(func() { loop(&gold, 2, goldOne) })
	wg.Wait()
	// The flood's own running time: the gold loop may still be waiting on
	// its last request (up to a broadcast cycle) after the flood stopped.
	out := &httpRun{
		elapsed:      flood.elapsed,
		refused:      flood.refused,
		floodUS:      flood.floodUS,
		goldMS:       gold.goldMS,
		goldOverhead: gold.goldOverhead,
	}
	out.chk.merge(&flood.chk)
	out.chk.merge(&gold.chk)
	return out
}

// warm spends class C's one token and serves one gold request, so the
// window sees only steady-state answers. The token's request has a tiny
// deadline, so it expires at once unless its item completes first.
func (s *httpStack) warm() error {
	status, resp, err := s.flood.post(`{"item":1,"deadline_in":0.001}`)
	if err == nil && !(status == http.StatusGatewayTimeout && resp.Outcome == "expired" ||
		status == http.StatusOK && resp.Outcome == "served") {
		err = fmt.Errorf("serve-http: warm-up flood answer status %d outcome %q", status, resp.Outcome)
	}
	if err != nil {
		return err
	}
	status, resp, err = s.gold.post(`{"item":1}`)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("serve-http: warm-up gold answer status %d outcome %q", status, resp.Outcome)
	}
	return err
}

const (
	// httpSegment is how long the closed loops run between two
	// measurements of the reference server, and httpRefWindow how long one
	// measurement takes.
	httpSegment   = time.Second
	httpRefWindow = 200 * time.Millisecond
	// httpRefNominal is the reference server's closed-loop rate on a quiet
	// machine of the kind the benchmark was written on (an Intel Xeon at 2
	// vCPUs).
	httpRefNominal = 24000.0
)

// httpRef is serve-http's machine reference (calib.go): a bare net/http
// server on loopback that answers every request with a fixed 429 body,
// and one keep-alive connection to it. It runs the flood's network stack,
// syscalls and scheduler and none of the program's code, so it tracks the
// machine phases the reference kernel misses on this path.
type httpRef struct {
	srv  *http.Server
	c    *conn
	done chan struct{}
	err  error // the first failed reference request
}

func startRef() (*httpRef, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	body := []byte(`{"outcome":"rate_limited","class":2}` + "\n")
	r := &httpRef{
		srv: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			io.Copy(io.Discard, req.Body)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write(body)
		})},
		c:    newConn("http://"+ln.Addr().String(), floodKey),
		done: make(chan struct{}),
	}
	go func() {
		defer close(r.done)
		r.srv.Serve(ln)
	}()
	return r, nil
}

// slowdown runs the reference closed loop for httpRefWindow and returns
// its nominal rate over the measured one.
func (r *httpRef) slowdown() float64 {
	n := 0
	start := time.Now()
	for time.Since(start) < httpRefWindow {
		status, _, err := r.c.post(`{"item":1}`)
		if err == nil && status != http.StatusTooManyRequests {
			err = fmt.Errorf("serve-http: reference server answered %d", status)
		}
		if err != nil && r.err == nil {
			r.err = err
		}
		n++
	}
	return httpRefNominal * time.Since(start).Seconds() / float64(n)
}

func (r *httpRef) close() {
	r.c.close()
	r.srv.Close()
	<-r.done
}

func httpMeasure(seed uint64, window time.Duration, chk *checker) (endToEnd, error) {
	cfg, cat, err := httpConfig()
	if err != nil {
		return endToEnd{}, err
	}
	ref, err := startRef()
	if err != nil {
		return endToEnd{}, err
	}
	defer ref.close()
	setup, err := timeSetup(func() error {
		s, err := startHTTP(cfg, nil)
		if err != nil {
			return err
		}
		return s.stop()
	}, ref.slowdown)
	if err != nil {
		return endToEnd{}, err
	}
	s, err := startHTTP(cfg, nil)
	if err != nil {
		return endToEnd{}, err
	}
	if err := s.warm(); err != nil {
		s.stop()
		return endToEnd{}, err
	}
	// The window runs in segments, each followed by a measurement of the
	// reference; a segment's refusal rate at nominal machine speed is its
	// rate times the slowdown after it. Any wait that holds back a share
	// of the refusals (the Wall.Submit bridge, the clock loop, collections)
	// lowers every segment's rate; the median over segments leaves out the
	// one or two a rare long stall falls in.
	var rates, slow, goldMS []float64
	var refused int64
	var floodS float64
	start := time.Now()
	for seg := 0; seg == 0 || time.Since(start) < window; seg++ {
		run := s.window(cat, mix(seed, seg), httpSegment, cfg.UnitMillis, false)
		chk.merge(&run.chk)
		sd := ref.slowdown()
		rates = append(rates, sd*float64(run.refused)/run.elapsed.Seconds())
		slow = append(slow, sd)
		goldMS = append(goldMS, run.goldMS...)
		refused += run.refused
		floodS += run.elapsed.Seconds()
	}
	if err := s.stop(); err != nil {
		return endToEnd{}, err
	}
	if ref.err != nil {
		return endToEnd{}, ref.err
	}
	if len(goldMS) == 0 {
		return endToEnd{}, fmt.Errorf("serve-http: no gold request served")
	}
	rate := quantile(rates, 0.5)
	return endToEnd{
		setupS:     setup,
		throughput: rate,
		latencyMS:  goldMS,
		named: []namedValue{
			{"setup_s", setup, "s"},
			{"http_refused_per_s", rate, "1/s"},
			{"wall_http_refused_per_s", float64(refused) / floodS, "1/s"},
			{"machine_slowdown", sum(slow) / float64(len(slow)), "x"},
			{"http_gold_p50_ms", quantile(goldMS, 0.5), "ms"},
			{"http_gold_p99_ms", quantile(goldMS, 0.99), "ms"},
			{"http_gold_served", float64(len(goldMS)), "count"},
		},
	}, nil
}

func httpTraced(seed uint64, window time.Duration, chk *checker) (layers, error) {
	cfg, cat, err := httpConfig()
	if err != nil {
		return nil, err
	}
	out := layers{}
	half := window / 2

	s, err := startHTTP(cfg, nil)
	if err != nil {
		return nil, err
	}
	if err := s.warm(); err != nil {
		s.stop()
		return nil, err
	}
	before := readRT()
	plain := s.window(cat, seed, half, cfg.UnitMillis, false)
	after := readRT()
	if err := s.stop(); err != nil {
		return nil, err
	}
	chk.merge(&plain.chk)
	addRuntime(out, before, after, float64(plain.chk.attempted))

	probe := &httpProbe{}
	var run *httpRun
	led, err := profiled(func() error {
		s, err := startHTTP(cfg, probe)
		if err != nil {
			return err
		}
		if err := s.warm(); err != nil {
			s.stop()
			return err
		}
		probe.mu.Lock()
		probe.handler = nil
		probe.mu.Unlock()
		run = s.window(cat, seed, half, cfg.UnitMillis, true)
		return s.stop()
	})
	if err != nil {
		return nil, err
	}
	chk.merge(&run.chk)
	led.print()
	led.addTo(out)
	out["trace_overhead_pct"] = overheadPct(plain.floodUS.xs, run.floodUS.xs)
	out["http.client_us_p50"] = quantile(run.floodUS.xs, 0.5)
	out["http.client_us_p99"] = quantile(run.floodUS.xs, 0.99)
	out["qosd.handler_us_p50"] = quantile(probe.handler, 0.5)
	out["clock.bridge_wait_us_p50"] = quantile(probe.bridge, 0.5)
	out["clock.bridge_wait_us_p99"] = quantile(probe.bridge, 0.99)
	out["qosd.serve_us_p50"] = quantile(probe.serve, 0.5)
	out["clock.loop_busy_share"] = 100 * probe.busy.Seconds() / run.elapsed.Seconds()
	out["http.gold_overhead_us_p50"] = quantile(run.goldOverhead, 0.5)
	answered := float64(run.floodUS.seen + len(run.goldMS))
	out["admission.rate_limited_share"] = 100 * float64(run.refused) / answered
	return out, nil
}
