package main

// cluster-64: the 64-cell federation cmd/corebench times — catalog overlap
// 0.8, mobility 0.02 with attach delay 2, least-loaded routing, a handoff
// barrier every horizon/20 — with one worker per CPU. Each cell is the
// paper-cell configuration at horizon 2000. Each operation is one
// cluster.New plus a Step loop to the horizon; only the steps are timed.

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"hybridqos/internal/cluster"
	"hybridqos/internal/core"
	"hybridqos/internal/workpool"
)

const (
	clusterCells   = 64
	clusterHorizon = 2000.0
	clusterEpochs  = 20
	// clusterAttachDelay is the roamers' transit time, in units.
	clusterAttachDelay = 2.0
)

// clusterBase is the per-cell template.
func clusterBase() (core.Config, error) {
	in, err := paperSetup()
	in.cfg.Horizon = clusterHorizon
	return in.cfg, err
}

func clusterConfig(base core.Config, seed uint64, i int) cluster.Config {
	base.Seed = mix(seed, i)
	return cluster.Config{
		Cells:          clusterCells,
		Base:           base,
		CatalogOverlap: 0.8,
		Mobility:       cluster.Mobility{Rate: 0.02, AttachDelay: clusterAttachDelay},
		Routing:        "least-loaded",
		HandoffEvery:   clusterHorizon / clusterEpochs,
	}
}

// clusterOp builds and runs one federation, returning the result and the
// wall time of each Step.
func clusterOp(cfg cluster.Config) (*cluster.Result, []float64, error) {
	cl, err := cluster.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	var steps []float64
	for {
		t0 := time.Now()
		done, err := cl.Step()
		steps = append(steps, time.Since(t0).Seconds())
		if err != nil {
			return nil, nil, err
		}
		if done {
			return cl.Result(), steps, nil
		}
	}
}

// clusterCheck validates one federation: every cell served requests and
// every roaming request is accounted for — each one that left a cell was
// accepted or refused by another (in + refused == out).
func clusterCheck(res *cluster.Result) error {
	if len(res.PerCell) != clusterCells {
		return fmt.Errorf("cluster-64: %d cells in result", len(res.PerCell))
	}
	var in, out, refused int64
	for _, c := range res.PerCell {
		var served int64
		for _, cm := range c.Metrics.PerClass {
			in += cm.HandoffsIn
			out += cm.HandoffsOut
			refused += cm.HandoffRefusals
			served += cm.Served
		}
		if served == 0 {
			return fmt.Errorf("cluster-64: cell %d served nothing", c.Cell)
		}
	}
	if in+refused != out || out == 0 {
		return fmt.Errorf("cluster-64: handoffs in %d + refused %d != out %d", in, refused, out)
	}
	return nil
}

func clusterDigest(seed uint64) (string, error) {
	base, err := clusterBase()
	if err != nil {
		return "", err
	}
	res, _, err := clusterOp(clusterConfig(base, seed, 0))
	if err != nil {
		return "", err
	}
	return digestMetrics(res.Aggregate), nil
}

// clusterRun is one window's results: every Step's wall time and the
// slowdown measured after its operation (calib.go), each operation's
// total stepping time, the handoffs accepted and the first result.
type clusterRun struct {
	steps, stepRefs, ops []float64
	handoffs             int64
	first                *cluster.Result
}

// clusterWindow runs federations until the window has elapsed.
func clusterWindow(base core.Config, seed uint64, window time.Duration, chk *checker) (clusterRun, error) {
	var r clusterRun
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < window; i++ {
		res, st, err := clusterOp(clusterConfig(base, seed, i))
		if err != nil {
			return r, err
		}
		ref := refKernel()
		for range st {
			r.stepRefs = append(r.stepRefs, ref)
		}
		r.steps = append(r.steps, st...)
		r.ops = append(r.ops, sum(st))
		r.handoffs += res.Aggregate.TotalHandoffs()
		chk.op(clusterCheck(res))
		if i == 0 {
			r.first = res
		}
	}
	return r, nil
}

// sequentialEqual re-runs operation 0 on one worker and requires a result
// deep-equal to the parallel one; it returns the sequential stepping time.
func sequentialEqual(base core.Config, seed uint64, parallel *cluster.Result) (float64, error) {
	prev := workpool.SetWorkers(1)
	defer workpool.SetWorkers(prev)
	res, st, err := clusterOp(clusterConfig(base, seed, 0))
	if err != nil {
		return 0, err
	}
	if !reflect.DeepEqual(res, parallel) {
		return sum(st), fmt.Errorf("cluster-64: results differ between workers=1 and workers=%d", prev)
	}
	return sum(st), nil
}

func clusterRequests(ops int) float64 {
	return float64(ops) * clusterCells * paperLambda * clusterHorizon
}

func clusterMeasure(seed uint64, window time.Duration, chk *checker) (endToEnd, error) {
	workpool.SetWorkers(runtime.NumCPU())
	var base core.Config
	setup, err := timeSetup(func() (err error) {
		if base, err = clusterBase(); err != nil {
			return err
		}
		_, err = cluster.New(clusterConfig(base, seed, 0))
		return err
	}, refKernel)
	if err != nil {
		return endToEnd{}, err
	}
	r, err := clusterWindow(base, seed, window, chk)
	if err != nil {
		return endToEnd{}, err
	}
	// Compare before digesting: quantiles sort the histograms in place.
	_, err = sequentialEqual(base, seed, r.first)
	chk.op(err)
	chk.op(checkDigest("cluster-64", seed, digestMetrics(r.first.Aggregate)))
	return simEndToEnd(setup, r.steps, r.stepRefs, clusterRequests(1)/clusterEpochs, "sim_req_per_s",
		namedValue{"run_s_p50", quantile(r.ops, 0.5), "s"}), nil
}

func clusterTraced(seed uint64, window time.Duration, chk *checker) (layers, error) {
	workpool.SetWorkers(runtime.NumCPU())
	base, err := clusterBase()
	if err != nil {
		return nil, err
	}
	out := layers{}
	half := window / 2
	before := readRT()
	plain, err := clusterWindow(base, seed, half, chk)
	if err != nil {
		return nil, err
	}
	addRuntime(out, before, readRT(), clusterRequests(len(plain.ops)))

	var traced clusterRun
	led, err := profiled(func() (err error) {
		traced, err = clusterWindow(base, seed, half, chk)
		return err
	})
	if err != nil {
		return nil, err
	}
	led.print()
	led.addTo(out)
	first := traced.first
	out["trace_overhead_pct"] = overheadPct(atNominal(plain.steps, plain.stepRefs), atNominal(traced.steps, traced.stepRefs))
	out["cluster.step_s_p50"] = quantile(traced.steps, 0.5)
	out["cluster.handoffs_per_s"] = float64(traced.handoffs) / sum(traced.ops)

	seq, err := sequentialEqual(base, seed, first)
	chk.op(err)
	// Operation 0's parallel time was measured under the profiler; time it
	// again without, as the sequential run was.
	_, st, err := clusterOp(clusterConfig(base, seed, 0))
	if err != nil {
		return nil, err
	}
	out["workpool.speedup"] = seq / sum(st)

	perEpoch, burst, items := clusterLoad(first)
	out["event.ns_per_op"], out["event.depth"] = replayEventBursts(perEpoch, burst, clusterAttachDelay*clusterEpochs/clusterHorizon, seed)
	out["pullqueue.items_mean"] = items
	out["pullqueue.ns_per_op"] = replayPullQueue(base.Catalog, base.Cutoff, items, seed)
	out["rng.ns_per_draw"] = replayRNG(base.Catalog, base.Classes, seed)
	return out, nil
}

// clusterLoad returns, per cell and epoch, the events a cell fires
// besides attaches (arrivals and transmissions) and the attach events the
// barrier schedules (the roamers routed to it), and the mean pull queue
// length per cell. The cells' event queues are not visible through the
// public API, so the event replay rebuilds their depth from these counts.
func clusterLoad(res *cluster.Result) (perEpoch, burst, items float64) {
	var attaches, base float64
	for _, c := range res.PerCell {
		m := c.Metrics
		for _, cm := range m.PerClass {
			base += float64(cm.Arrivals)
			attaches += float64(cm.HandoffsIn + cm.HandoffRefusals)
		}
		base += float64(m.RawTransmissions())
		items += m.QueueItems.Mean()
	}
	per := float64(len(res.PerCell)) * clusterEpochs
	return base / per, attaches / per, items / float64(len(res.PerCell))
}
