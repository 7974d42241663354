package core

import (
	"math"
	"testing"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/faults"
	"hybridqos/internal/sched"
	"hybridqos/internal/span"
	"hybridqos/internal/telemetry"
	"hybridqos/internal/trace"
)

// splitConfig is the paper cell on a downlink split into one push and one
// pull channel at half rate each.
func splitConfig(t *testing.T) Config {
	t.Helper()
	cat, err := catalog.Generate(catalog.PaperConfig(0.6, 42))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := clients.New(clients.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Catalog:        cat,
		Classes:        cl,
		Lambda:         5,
		Cutoff:         40,
		Alpha:          0.5,
		PushChannels:   1,
		PullChannels:   1,
		Horizon:        8000,
		WarmupFraction: 0.1,
		Seed:           7,
	}
}

func TestValidate(t *testing.T) {
	good := splitConfig(t)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil catalog", func(c *Config) { c.Catalog = nil }},
		{"nil classes", func(c *Config) { c.Classes = nil }},
		{"zero lambda", func(c *Config) { c.Lambda = 0 }},
		{"negative cutoff", func(c *Config) { c.Cutoff = -1 }},
		{"alpha above 1", func(c *Config) { c.Alpha = 2 }},
		{"push set without push channel", func(c *Config) { c.PushChannels = 0 }},
		{"pull set without pull channel", func(c *Config) { c.PullChannels = 0 }},
		{"more push channels than items", func(c *Config) { c.PushChannels = 41 }},
		{"negative push channels", func(c *Config) { c.PushChannels, c.PullChannels = -1, 2 }},
		{"negative pull channels", func(c *Config) { c.PushChannels, c.PullChannels = 0, -1 }},
		{"push channel with cutoff 0", func(c *Config) { c.Cutoff = 0 }},
		{"split with broadcast-disk push", func(c *Config) { c.PushPolicyName = "broadcast-disk" }},
		{"split with push policy none", func(c *Config) { c.PushPolicyName = "none" }},
		{"split with injected push scheduler", func(c *Config) {
			c.PushScheduler = func(*catalog.Catalog, int) (sched.PushScheduler, error) { return sched.NoPush{}, nil }
		}},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"warmup fraction 1", func(c *Config) { c.WarmupFraction = 1 }},
	}
	for _, m := range mutations {
		cfg := splitConfig(t)
		m.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
	roundRobin := splitConfig(t)
	roundRobin.PushPolicyName = "roundrobin"
	if err := roundRobin.Validate(); err != nil {
		t.Errorf("split with the named default push policy rejected: %v", err)
	}
}

func TestDeterministic(t *testing.T) {
	cfg := splitConfig(t)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.PushBroadcasts != b.PushBroadcasts || a.PullTransmissions != b.PullTransmissions {
		t.Fatal("identical runs diverged")
	}
	for c := range a.PerClass {
		if a.PerClass[c].Delay.Mean() != b.PerClass[c].Delay.Mean() {
			t.Fatal("per-class delays diverged")
		}
	}
}

// With one push and one pull channel at half rate each, the system should be
// in the same performance regime as the single-channel alternating server
// (each spends half its capacity per subsystem) — not identical, but the
// same order of magnitude and the same class ordering.
func TestOneOneComparableToSingleChannel(t *testing.T) {
	cfg := splitConfig(t)
	cfg.Alpha = 0.25
	cfg.Horizon = 20000
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared := cfg
	shared.PushChannels, shared.PullChannels = 0, 0
	single, err := Run(shared)
	if err != nil {
		t.Fatal(err)
	}
	ratio := m.OverallMeanDelay() / single.OverallMeanDelay()
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("1+1 channels delay %g vs single-channel %g (ratio %g)",
			m.OverallMeanDelay(), single.OverallMeanDelay(), ratio)
	}
	a, b, c := m.PerClass[0].Delay.Mean(), m.PerClass[1].Delay.Mean(), m.PerClass[2].Delay.Mean()
	if !(a < b && b < c) {
		t.Fatalf("class ordering broken: %g %g %g", a, b, c)
	}
}

func TestAllRequestsServedEventually(t *testing.T) {
	cfg := splitConfig(t)
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c, cm := range m.PerClass {
		if cm.Served == 0 {
			t.Fatalf("class %d served nothing", c)
		}
		if cm.Served > cm.Arrivals {
			t.Fatalf("class %d served %d > arrivals %d", c, cm.Served, cm.Arrivals)
		}
		if float64(cm.Served)/float64(cm.Arrivals) < 0.85 {
			t.Fatalf("class %d served only %d/%d", c, cm.Served, cm.Arrivals)
		}
	}
}

func TestPurePushMultiChannel(t *testing.T) {
	cfg := splitConfig(t)
	cfg.Cutoff = cfg.Catalog.D()
	cfg.PushChannels = 4
	cfg.PullChannels = 0
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.PullTransmissions != 0 {
		t.Fatal("pure push had pull transmissions")
	}
	if m.PushBroadcasts == 0 {
		t.Fatal("no broadcasts")
	}
}

func TestPurePullMultiChannel(t *testing.T) {
	cfg := splitConfig(t)
	cfg.Cutoff = 0
	cfg.PushChannels = 0
	cfg.PullChannels = 3
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.PushBroadcasts != 0 {
		t.Fatal("pure pull had push broadcasts")
	}
	if m.PullTransmissions == 0 {
		t.Fatal("no pull transmissions")
	}
}

func TestMorePushChannelsShortenPushDelay(t *testing.T) {
	// Fixed 4 channels total; compare push-delay with 1 vs 3 push channels.
	// More push channels shorten each partition's cycle (fewer items per
	// channel), so push waiters catch their item sooner even at reduced
	// per-channel rate: cycle = (K/P)·L̄/rate = K·L̄·(P+pull)/P.
	run := func(pushCh, pullCh int) float64 {
		cfg := splitConfig(t)
		cfg.PushChannels = pushCh
		cfg.PullChannels = pullCh
		cfg.Horizon = 20000
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Pool push delays across classes.
		var sum float64
		var n int64
		for _, cm := range m.PerClass {
			if cm.PushDelay.N() > 0 {
				sum += cm.PushDelay.Mean() * float64(cm.PushDelay.N())
				n += cm.PushDelay.N()
			}
		}
		return sum / float64(n)
	}
	onePush := run(1, 3)
	threePush := run(3, 1)
	if threePush >= onePush {
		t.Fatalf("3 push channels (%g) not faster for push items than 1 (%g)", threePush, onePush)
	}
}

func TestMetricsAggregation(t *testing.T) {
	m := &Metrics{PerClass: []*ClassMetrics{{Class: 0, Weight: 3}}}
	if !math.IsNaN(m.OverallMeanDelay()) {
		t.Fatal("empty overall delay not NaN")
	}
	if m.TotalCost() != 0 {
		t.Fatal("empty total cost not 0")
	}
}

func TestCustomPullPolicy(t *testing.T) {
	cfg := splitConfig(t)
	cfg.PullPolicy = sched.RxW{}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.PullTransmissions == 0 {
		t.Fatal("RxW policy served nothing")
	}
}

// TestPropertyRandomSplitsInvariants fuzzes channel splits and checks the
// core invariants hold for any of them.
func TestPropertyRandomSplitsInvariants(t *testing.T) {
	base := splitConfig(t)
	base.Horizon = 800
	for seed := uint64(0); seed < 12; seed++ {
		for _, split := range [][2]int{{1, 1}, {1, 3}, {2, 2}, {3, 1}, {4, 4}} {
			cfg := base
			cfg.Seed = seed
			cfg.PushChannels, cfg.PullChannels = split[0], split[1]
			m, err := Run(cfg)
			if err != nil {
				t.Fatalf("seed %d split %v: %v", seed, split, err)
			}
			for c, cm := range m.PerClass {
				if cm.Served > cm.Arrivals {
					t.Fatalf("seed %d split %v class %d: served %d > arrivals %d",
						seed, split, c, cm.Served, cm.Arrivals)
				}
				if cm.Delay.N() > 0 && cm.Delay.Min() < 0 {
					t.Fatalf("negative delay")
				}
			}
		}
	}
}

// TestSplitReachesFaultsSpansTelemetry runs a 2/2 split with what the
// standalone multi-channel simulator never had: every request sampled for
// spans, telemetry snapshots, and a lossy downlink with client retries.
// The span trees must tile each request's delay (service segments last
// length/rate), the embedded snapshots must replay exactly, and every
// request that came in must be served, lost, or still pending.
func TestSplitReachesFaultsSpansTelemetry(t *testing.T) {
	cfg := splitConfig(t)
	cfg.PushChannels, cfg.PullChannels = 2, 2
	cfg.Horizon = 3000
	cfg.WarmupFraction = 0
	lm, err := faults.NewBernoulli(0.15)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Loss = lm
	cfg.Retry = faults.RetryPolicy{MaxAttempts: 2, Base: 1, Multiplier: 2, Max: 10, Jitter: 0.5}
	cfg.Spans = &SpanConfig{}
	col, err := telemetry.New(telemetry.Options{SnapshotEvery: 250})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = col
	events := &trace.Buffer{}
	cfg.Tracer = events
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := srv.Run()

	spans, err := span.Build(events.Events)
	if err != nil {
		t.Fatal(err)
	}
	if err := span.Verify(spans); err != nil {
		t.Fatal(err)
	}
	var servedPull, lost int
	for _, sp := range spans {
		if sp.Losses > 0 {
			lost++
		}
		if sp.Open || sp.Outcome != trace.EndServed || sp.Push {
			continue
		}
		last := sp.Segments[len(sp.Segments)-1]
		want := cfg.Catalog.Length(sp.Item) * 4 // length / rate, rate 1/4
		if d := last.Duration(); math.Abs(d-want) > 1e-6 {
			t.Fatalf("span %d: pull service segment %g, want length/rate %g", sp.ID, d, want)
		}
		servedPull++
	}
	if servedPull == 0 || lost == 0 {
		t.Fatalf("vacuous run: %d served pull spans, %d spans with losses", servedPull, lost)
	}
	if n, err := trace.VerifySnapshots(events.Events); err != nil || n == 0 {
		t.Fatalf("snapshot audit: %d verified, err %v", n, err)
	}

	// Conservation: in == out + pending, where out counts every terminal
	// outcome and pending is what the horizon cut off — queued or booked
	// for a retry, waiting for a broadcast, or in flight on a pull channel.
	var in, out int64
	for _, cm := range m.PerClass {
		in += cm.Arrivals
		out += cm.Served + cm.Failed + cm.Expired + cm.Dropped + cm.UplinkLost + cm.Shed
	}
	pending := int64(srv.PendingLoad())
	for i := range srv.chans {
		if e := srv.chans[i].entry; e != nil {
			pending += int64(len(e.Requests))
		}
	}
	if in != out+pending {
		t.Fatalf("conservation: %d in, %d out + %d pending", in, out, pending)
	}
}
