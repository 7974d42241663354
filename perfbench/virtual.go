package main

// serve-virtual: the qosd daemon's Serve entry point on a virtual clock
// with inline exec, configured by cmd/qosd/example-config.json (a copy is
// embedded). Each operation is a fresh daemon fed an open-loop Poisson
// stream of virtualRequests requests at virtualRate per broadcast unit,
// with seeded uniform class and Zipf item draws; the offered load is far
// above capacity, so shedding, rate limits, quotas and deadline expiry all
// fire.

import (
	_ "embed"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"time"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clock"
	"hybridqos/internal/qosd"
	"hybridqos/internal/rng"
	"hybridqos/internal/telemetry"
)

//go:embed qosd-example-config.json
var exampleConfig []byte

const (
	virtualRequests = 25000 // per operation
	virtualRate     = 2.0   // offered requests per broadcast unit
	// probeEvery spaces the traced run's per-request timings: reading the
	// clock around every call would cost more than the calls themselves.
	probeEvery = 8
)

// outcomeStatus is the HTTP status each outcome must carry.
var outcomeStatus = map[string]int{
	"served":         http.StatusOK,
	"expired":        http.StatusGatewayTimeout,
	"shed_overload":  http.StatusTooManyRequests,
	"rate_limited":   http.StatusTooManyRequests,
	"quota_exceeded": http.StatusTooManyRequests,
}

var outcomeNames = []string{"served", "expired", "shed_overload", "rate_limited", "quota_exceeded"}

// virtualInputs is one operation's generated request stream.
type virtualInputs struct {
	at    []float64
	item  []int
	class []int
}

func virtualConfig() (qosd.Config, *catalog.Catalog, error) {
	cfg, err := qosd.ParseConfig(exampleConfig)
	if err != nil {
		return qosd.Config{}, nil, err
	}
	c := cfg.Catalog
	cat, err := catalog.Generate(catalog.Config{D: c.D, Theta: c.Theta, MinLen: c.MinLen, MaxLen: c.MaxLen, Seed: c.Seed})
	return cfg, cat, err
}

func virtualStream(cat *catalog.Catalog, classes int, seed uint64, i int) virtualInputs {
	r := rng.New(mix(seed, i))
	in := virtualInputs{
		at:    make([]float64, virtualRequests),
		item:  make([]int, virtualRequests),
		class: make([]int, virtualRequests),
	}
	t := 0.0
	for j := range in.at {
		t += r.Exp(virtualRate)
		in.at[j] = t
		in.class[j] = r.Intn(classes)
		in.item[j] = cat.SampleRank(r)
	}
	return in
}

// outcomes tallies the daemon's answers.
type outcomes struct {
	counts  [][]int64   // [class][outcome index]
	delays  [][]float64 // served access delays by class, in units
	bad     []string
	answers int
}

func newOutcomes(classes int) *outcomes {
	o := &outcomes{counts: make([][]int64, classes), delays: make([][]float64, classes)}
	for c := range o.counts {
		o.counts[c] = make([]int64, len(outcomeNames))
	}
	return o
}

func (o *outcomes) respond(status int, resp qosd.Response) {
	o.answers++
	idx := -1
	for k, name := range outcomeNames {
		if name == resp.Outcome {
			idx = k
		}
	}
	if idx < 0 || outcomeStatus[resp.Outcome] != status || resp.Class < 0 || resp.Class >= len(o.counts) {
		if len(o.bad) < 3 {
			o.bad = append(o.bad, fmt.Sprintf("status %d outcome %q class %d", status, resp.Outcome, resp.Class))
		}
		return
	}
	o.counts[resp.Class][idx]++
	if resp.Outcome == "served" {
		o.delays[resp.Class] = append(o.delays[resp.Class], resp.DelayUnits)
	}
}

func (o *outcomes) total(outcome string) int64 {
	var n int64
	for k, name := range outcomeNames {
		if name == outcome {
			for c := range o.counts {
				n += o.counts[c][k]
			}
		}
	}
	return n
}

// check validates one operation: every request answered exactly once with
// an outcome in the expected set and its matching status, the premium
// class never shed (the shedder's contract), served delays within the
// deadline, and the served share ordered by class.
func (o *outcomes) check(requests int, deadline float64) error {
	if len(o.bad) > 0 {
		return fmt.Errorf("serve-virtual: unexpected answers: %v", o.bad)
	}
	if o.answers != requests {
		return fmt.Errorf("serve-virtual: %d answers for %d requests", o.answers, requests)
	}
	if o.counts[0][2] != 0 {
		return fmt.Errorf("serve-virtual: class 0 shed %d times", o.counts[0][2])
	}
	prev := math.Inf(1)
	for c, ds := range o.delays {
		for _, d := range ds {
			if !(d >= 0 && d <= deadline) {
				return fmt.Errorf("serve-virtual: class %d served after %g units (deadline %g)", c, d, deadline)
			}
		}
		var all int64
		for _, n := range o.counts[c] {
			all += n
		}
		s := float64(o.counts[c][0]) / float64(all)
		if !(s <= prev) {
			return fmt.Errorf("serve-virtual: class %d served share %.3f above class %d's", c, s, c-1)
		}
		prev = s
	}
	return nil
}

// digest hashes the per-class outcome counts and served delay quantiles.
func (o *outcomes) digest() string {
	h := fnv.New64a()
	for c := range o.counts {
		fmt.Fprintf(h, "%v|", o.counts[c])
		for _, q := range []float64{0.5, 0.9, 0.99} {
			fmt.Fprintf(h, "%x ", math.Float64bits(quantile(o.delays[c], q)))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// virtualProbe is the traced run's instrumentation: a counting clock
// wrapper, and for every probeEvery-th request the time inside Serve and
// inside the RunUntil before it, the event queue length and the pull
// queue length.
type virtualProbe struct {
	clk                  *countingClock
	serve, run           time.Duration
	pending, items       float64
	samples              int
	shed, limited, quota int64
	expired              int64
}

// countingClock wraps the daemon's clock and counts what the engine
// schedules and cancels through it.
type countingClock struct {
	clock.Clock
	scheduled, cancelled int64
}

func (c *countingClock) At(t float64, h func()) clock.Token {
	c.scheduled++
	return c.Clock.At(t, h)
}

func (c *countingClock) After(d float64, h func()) clock.Token {
	c.scheduled++
	return c.Clock.After(d, h)
}

func (c *countingClock) Cancel(tok clock.Token) bool {
	ok := c.Clock.Cancel(tok)
	if ok {
		c.cancelled++
	}
	return ok
}

// virtualOp serves one request stream on a fresh daemon and returns the
// tallied outcomes; with a probe it also instruments the run.
func virtualOp(cfg qosd.Config, in virtualInputs, probe *virtualProbe) (*outcomes, error) {
	v := clock.NewVirtual()
	var clk clock.Clock = v
	if probe != nil {
		probe.clk = &countingClock{Clock: v}
		clk = probe.clk
	}
	d, err := qosd.New(cfg, clk, func(f func()) { f() })
	if err != nil {
		return nil, err
	}
	d.Start()
	o := newOutcomes(len(cfg.ClassWeights))
	respond := o.respond
	var gauge *telemetry.Gauge
	if probe != nil {
		gauge = d.Telemetry().Registry().Gauge(telemetry.MetricQueueItems, telemetry.ClassNone)
	}
	for j, t := range in.at {
		req := qosd.Request{Item: in.item[j]}
		if probe == nil || j%probeEvery != 0 {
			v.RunUntil(t)
			d.Serve(req, in.class[j], respond)
			continue
		}
		t0 := time.Now()
		v.RunUntil(t)
		t1 := time.Now()
		probe.pending += float64(v.Pending())
		probe.items += gauge.Value()
		probe.samples++
		d.Serve(req, in.class[j], respond)
		probe.serve += time.Since(t1)
		probe.run += t1.Sub(t0)
	}
	// Resolve every admitted request: deadlines bound how long that takes.
	v.RunUntil(in.at[len(in.at)-1] + cfg.Admission.DefaultDeadline + 1)
	if probe != nil {
		probe.shed += o.total("shed_overload")
		probe.limited += o.total("rate_limited")
		probe.quota += o.total("quota_exceeded")
		probe.expired += o.total("expired")
	}
	return o, nil
}

func virtualDigest(seed uint64) (string, error) {
	cfg, cat, err := virtualConfig()
	if err != nil {
		return "", err
	}
	o, err := virtualOp(cfg, virtualStream(cat, len(cfg.ClassWeights), seed, 0), nil)
	if err != nil {
		return "", err
	}
	return o.digest(), nil
}

// virtualWindow runs operations until the window has elapsed. It returns
// each operation's wall time, the slowdown measured after it (calib.go)
// and the first operation's outcomes. Request streams are
// generated before each timed operation.
func virtualWindow(cfg qosd.Config, cat *catalog.Catalog, seed uint64, window time.Duration, chk *checker) (ops, refs []float64, first *outcomes, err error) {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < window; i++ {
		in := virtualStream(cat, len(cfg.ClassWeights), seed, i)
		t0 := time.Now()
		o, err := virtualOp(cfg, in, nil)
		ops = append(ops, time.Since(t0).Seconds())
		if err != nil {
			return nil, nil, nil, err
		}
		refs = append(refs, refKernel())
		chk.op(o.check(virtualRequests, cfg.Admission.DefaultDeadline))
		if i == 0 {
			first = o
		}
	}
	return ops, refs, first, nil
}

func virtualMeasure(seed uint64, window time.Duration, chk *checker) (endToEnd, error) {
	var cfg qosd.Config
	var cat *catalog.Catalog
	setup, err := timeSetup(func() (err error) {
		cfg, cat, err = virtualConfig()
		if err != nil {
			return err
		}
		d, err := qosd.New(cfg, clock.NewVirtual(), func(f func()) { f() })
		if err != nil {
			return err
		}
		d.Start()
		return nil
	}, refKernel)
	if err != nil {
		return endToEnd{}, err
	}
	ops, refs, first, err := virtualWindow(cfg, cat, seed, window, chk)
	if err != nil {
		return endToEnd{}, err
	}
	checkRepeat(chk, "serve-virtual", seed, first.digest(), func() (string, error) {
		o, err := virtualOp(cfg, virtualStream(cat, len(cfg.ClassWeights), seed, 0), nil)
		if err != nil {
			return "", err
		}
		return o.digest(), nil
	})
	n := float64(virtualRequests)
	refused := first.total("shed_overload") + first.total("rate_limited") + first.total("quota_exceeded")
	return simEndToEnd(setup, ops, refs, n, "serve_req_per_s",
		namedValue{"served_share", float64(first.total("served")) / n, "fraction"},
		namedValue{"expired_share", float64(first.total("expired")) / n, "fraction"},
		namedValue{"refused_share", float64(refused) / n, "fraction"}), nil
}

func virtualTraced(seed uint64, window time.Duration, chk *checker) (layers, error) {
	cfg, cat, err := virtualConfig()
	if err != nil {
		return nil, err
	}
	out := layers{}
	half := window / 2
	before := readRT()
	plain, plainRefs, _, err := virtualWindow(cfg, cat, seed, half, chk)
	if err != nil {
		return nil, err
	}
	addRuntime(out, before, readRT(), float64(len(plain)*virtualRequests))

	probe := &virtualProbe{}
	var traced, tracedRefs []float64
	var scheduled, cancelled int64
	led, err := profiled(func() error {
		start := time.Now()
		for i := 0; i == 0 || time.Since(start) < half; i++ {
			var in virtualInputs
			withRole("harness", func() { in = virtualStream(cat, len(cfg.ClassWeights), seed, i) })
			t0 := time.Now()
			o, err := virtualOp(cfg, in, probe)
			if err != nil {
				return err
			}
			traced = append(traced, time.Since(t0).Seconds())
			tracedRefs = append(tracedRefs, refKernel())
			chk.op(o.check(virtualRequests, cfg.Admission.DefaultDeadline))
			scheduled += probe.clk.scheduled
			cancelled += probe.clk.cancelled
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	led.print()
	led.addTo(out)
	reqs := float64(len(traced) * virtualRequests)
	out["trace_overhead_pct"] = overheadPct(atNominal(plain, plainRefs), atNominal(traced, tracedRefs))
	samples := float64(probe.samples)
	out["qosd.serve_ns_per_req"] = float64(probe.serve.Nanoseconds()) / samples
	out["clock.run_ns_per_req"] = float64(probe.run.Nanoseconds()) / samples
	out["clock.events_per_req"] = float64(scheduled) / reqs
	out["clock.pending_mean"] = probe.pending / samples
	out["pullqueue.items_mean"] = probe.items / samples
	out["admission.shed_share"] = 100 * float64(probe.shed) / reqs
	out["admission.rate_limited_share"] = 100 * float64(probe.limited) / reqs
	out["admission.quota_share"] = 100 * float64(probe.quota) / reqs
	out["core.expired_share"] = 100 * float64(probe.expired) / reqs
	depth := out["clock.pending_mean"]
	fired := float64(scheduled - cancelled)
	out["event.depth"] = depth
	out["event.ns_per_op"] = replayEvent(depth, float64(cancelled)/fired, seed)
	out["pullqueue.ns_per_op"] = replayPullQueue(cat, cfg.Cutoff, out["pullqueue.items_mean"], seed)
	return out, nil
}
