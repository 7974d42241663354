package main

// paper-cell: the paper's single cell, one core.Run per operation.
//
// Configuration (the paper's §5): D=100 items, Zipf θ=0.6, lengths 1–5 with
// mean 2, classes with priorities 3:2:1, λ=5, cutoff K=40, γ pull policy
// with α=0.5, flat round-robin push, exact delay histograms. Operation i
// runs at seed mix(seed, i) over a fixed catalog.

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"hybridqos/internal/analytic"
	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/core"
)

const (
	paperHorizon = 20000.0 // broadcast units per operation: 100k requests at λ=5
	paperLambda  = 5.0
	paperCutoff  = 40
	paperAlpha   = 0.5
	// paperCatalogSeed fixes the catalog (item lengths), as cmd/corebench
	// does: the catalog is configuration, and drawing it per workload seed
	// would make the work per request vary from seed to seed.
	paperCatalogSeed = 42
	// paperModelTolerancePct bounds the gap between the simulated overall
	// access time and the refined analytic model (Eq. 19). The gap is a
	// model approximation, measured at 5–9% at this configuration.
	paperModelTolerancePct = 15.0
)

// paperInputs is everything an operation needs besides its seed.
type paperInputs struct {
	cfg   core.Config
	model float64 // refined Eq. 19 overall access time at K
}

// paperSetup builds the catalog, classification and analytic prediction,
// and builds one engine to validate the configuration.
func paperSetup() (paperInputs, error) {
	cat, err := catalog.Generate(catalog.PaperConfig(0.6, paperCatalogSeed))
	if err != nil {
		return paperInputs{}, err
	}
	cl, err := clients.New(clients.PaperConfig())
	if err != nil {
		return paperInputs{}, err
	}
	pred, err := analytic.Model{
		Catalog: cat, Classes: cl, LambdaTotal: paperLambda, Alpha: paperAlpha, Variant: analytic.Refined,
	}.AccessTime(paperCutoff)
	if err != nil {
		return paperInputs{}, err
	}
	cfg := core.Config{
		Catalog:        cat,
		Classes:        cl,
		Lambda:         paperLambda,
		Cutoff:         paperCutoff,
		Alpha:          paperAlpha,
		Horizon:        paperHorizon,
		WarmupFraction: 0.1,
	}
	if _, err := core.New(cfg); err != nil {
		return paperInputs{}, err
	}
	return paperInputs{cfg: cfg, model: pred.Overall}, nil
}

func paperOp(in paperInputs, seed uint64, i int) (*core.Metrics, error) {
	cfg := in.cfg
	cfg.Seed = mix(seed, i)
	return core.Run(cfg)
}

// paperCheck validates one run: every class served, no failure outcome
// (the paper's cell has no loss, deadline or admission), mean access time
// ordered by class, and the model gap within tolerance. It returns the gap.
func paperCheck(in paperInputs, m *core.Metrics) (float64, error) {
	if len(m.PerClass) != 3 {
		return 0, fmt.Errorf("paper-cell: %d classes", len(m.PerClass))
	}
	for i, cm := range m.PerClass {
		if cm.Served == 0 || cm.Served > cm.Arrivals {
			return 0, fmt.Errorf("paper-cell: class %d served %d of %d", i, cm.Served, cm.Arrivals)
		}
		if cm.Failures() != 0 {
			return 0, fmt.Errorf("paper-cell: class %d has %d failures", i, cm.Failures())
		}
		if i > 0 && !(m.PerClass[i-1].MeanDelay() < cm.MeanDelay()) {
			return 0, fmt.Errorf("paper-cell: class %d mean delay %g not above class %d's %g",
				i, cm.MeanDelay(), i-1, m.PerClass[i-1].MeanDelay())
		}
	}
	gap := 100 * math.Abs(m.OverallMeanDelay()-in.model) / in.model
	if !(gap <= paperModelTolerancePct) {
		return gap, fmt.Errorf("paper-cell: simulated access time %g is %.1f%% from the model's %g",
			m.OverallMeanDelay(), gap, in.model)
	}
	return gap, nil
}

// digestMetrics hashes every simulated statistic a speed-only change must
// leave identical: per-class counts, delay moments and quantiles, channel
// counts and the prioritised cost.
func digestMetrics(m *core.Metrics) string {
	h := fnv.New64a()
	bits := math.Float64bits
	for _, cm := range m.PerClass {
		fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %d|", cm.Class, cm.Arrivals, cm.Served, cm.Failures(),
			cm.HandoffsIn, cm.HandoffsOut, cm.HandoffRefusals, cm.Delay.N(), cm.DelayHist.N())
		fmt.Fprintf(h, "%x %x %x %x %x %x|", bits(cm.Delay.Mean()), bits(cm.Delay.Variance()),
			bits(cm.DelayHist.Percentile(50)), bits(cm.DelayHist.Percentile(99)),
			bits(cm.PushDelay.Mean()), bits(cm.PullDelay.Mean()))
	}
	fmt.Fprintf(h, "%d %d %x", m.PushBroadcasts, m.PullTransmissions, bits(m.TotalCost()))
	return fmt.Sprintf("%016x", h.Sum64())
}

func paperDigest(seed uint64) (string, error) {
	in, err := paperSetup()
	if err != nil {
		return "", err
	}
	m, err := paperOp(in, seed, 0)
	if err != nil {
		return "", err
	}
	return digestMetrics(m), nil
}

// paperRun is one window's results: each operation's wall time and the
// slowdown measured after it (calib.go), the first operation's
// metrics, the mean model gap and the mean time-averaged pull queue length.
type paperRun struct {
	durs, refs []float64
	first      *core.Metrics
	gap, items float64
}

// paperWindow runs operations until the window has elapsed.
func paperWindow(in paperInputs, seed uint64, window time.Duration, chk *checker) (paperRun, error) {
	var r paperRun
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < window; i++ {
		t0 := time.Now()
		m, err := paperOp(in, seed, i)
		r.durs = append(r.durs, time.Since(t0).Seconds())
		if err != nil {
			return r, err
		}
		r.refs = append(r.refs, refKernel())
		g, cerr := paperCheck(in, m)
		chk.op(cerr)
		r.gap += g
		r.items += m.QueueItems.Mean()
		if i == 0 {
			r.first = m
		}
	}
	n := float64(len(r.durs))
	r.gap, r.items = r.gap/n, r.items/n
	return r, nil
}

// checkRepeat re-runs operation 0 and requires the same digest, and checks
// the first digest against the committed table.
func checkRepeat(chk *checker, name string, seed uint64, first string, again func() (string, error)) {
	chk.op(checkDigest(name, seed, first))
	d, err := again()
	if err == nil && d != first {
		err = fmt.Errorf("%s: op 0 re-run digest %s differs from %s", name, d, first)
	}
	chk.op(err)
}

func paperMeasure(seed uint64, window time.Duration, chk *checker) (endToEnd, error) {
	var in paperInputs
	setup, err := timeSetup(func() (err error) {
		in, err = paperSetup()
		return err
	}, refKernel)
	if err != nil {
		return endToEnd{}, err
	}
	r, err := paperWindow(in, seed, window, chk)
	if err != nil {
		return endToEnd{}, err
	}
	checkRepeat(chk, "paper-cell", seed, digestMetrics(r.first), func() (string, error) {
		m, err := paperOp(in, seed, 0)
		if err != nil {
			return "", err
		}
		return digestMetrics(m), nil
	})
	return simEndToEnd(setup, r.durs, r.refs, paperLambda*paperHorizon, "sim_req_per_s",
		namedValue{"model_err_pct", r.gap, "%"}), nil
}

func paperTraced(seed uint64, window time.Duration, chk *checker) (layers, error) {
	in, err := paperSetup()
	if err != nil {
		return nil, err
	}
	out := layers{}
	half := window / 2
	before := readRT()
	plain, err := paperWindow(in, seed, half, chk)
	if err != nil {
		return nil, err
	}
	addRuntime(out, before, readRT(), float64(len(plain.durs))*paperLambda*paperHorizon)

	var traced paperRun
	led, err := profiled(func() (err error) {
		traced, err = paperWindow(in, seed, half, chk)
		return err
	})
	if err != nil {
		return nil, err
	}
	led.print()
	led.addTo(out)
	items := traced.items
	out["trace_overhead_pct"] = overheadPct(atNominal(plain.durs, plain.refs), atNominal(traced.durs, traced.refs))
	out["pullqueue.items_mean"] = items
	// The cell's event queue holds exactly the next arrival and the
	// transmission in flight.
	out["event.depth"] = 2
	out["event.ns_per_op"] = replayEvent(2, 0, seed)
	out["pullqueue.ns_per_op"] = replayPullQueue(in.cfg.Catalog, in.cfg.Cutoff, items, seed)
	out["rng.ns_per_draw"] = replayRNG(in.cfg.Catalog, in.cfg.Classes, seed)
	return out, nil
}

// overheadPct is the throughput lost by the traced window against the
// untraced one, in percent, from the median unit time of each. Given unit
// times at nominal speed (calib.go), it leaves out the profiler's sampling
// cost, which slows the reference kernel as much as the program.
func overheadPct(plain, traced []float64) float64 {
	return 100 * (1 - quantile(plain, 0.5)/quantile(traced, 0.5))
}

func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = k * x
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
