// Command corebench measures the simulator hot path and writes the results
// as machine-readable JSON (BENCH_core.json at the repo root is a committed
// baseline). Three families:
//
//   - engine throughput: requests simulated per wall-clock second for one
//     core.Run at the paper's workload, exact and bounded delay histograms;
//   - allocation profile: steady-state heap allocations per simulated
//     request via testing.AllocsPerRun (the quantity the CI gate bounds);
//   - sweep scaling: wall-clock for a full cutoff sweep with 1 worker vs
//     the machine's worker count (the two sweeps are asserted bit-identical
//     before timing is reported);
//   - cluster scaling: wall-clock for a 64-cell mobile federation with 1
//     worker vs the machine's worker count, asserted bit-identical the same
//     way.
//
// When the machine's worker count is 1, the scaling families record only
// the sequential run (a second workers=1 entry would duplicate its name).
// Every run prints an env line (CPU model, CPU count, GOMAXPROCS, Go
// version) to standard error, so a results file can be tied to its host.
//
// Usage:
//
//	corebench [-o BENCH_core.json] [-quick] [-workers N]
//	corebench -verify BENCH_core.json [-max-allocs-per-request N]
//	corebench -verify fresh.json -baseline BENCH_core.json
//
// -verify parses an existing results file and (optionally) enforces an
// allocations-per-request ceiling; it runs no benchmarks, exits non-zero on
// a parse failure or a ceiling breach, and is what CI uses to gate alloc
// regressions against the committed baseline. With -baseline it additionally
// compares a freshly measured results file against the committed one: the
// engine's allocs/request must not grow past -max-allocs-growth and its
// throughput must not fall below -min-throughput-frac of the baseline
// (generous margins — CI machines are slower and noisier than the machine
// that wrote the baseline). The benchmark workload never enables span
// sampling, so this doubles as the spans-off overhead gate: span plumbing
// on the hot path shows up as an alloc or throughput regression here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/cluster"
	"hybridqos/internal/core"
	"hybridqos/internal/sim"
	"hybridqos/internal/workpool"
)

// Result is one benchmark's measurement.
type Result struct {
	// Name identifies the benchmark (family/variant).
	Name string `json:"name"`
	// Iterations is testing.Benchmark's chosen b.N (1 for one-shot timings).
	Iterations int `json:"iterations"`
	// NsPerOp is nanoseconds per benchmark iteration.
	NsPerOp float64 `json:"ns_per_op"`
	// OpsPerSec is the headline rate: simulated requests per second for the
	// engine family, sweep points per second for the sweep family.
	OpsPerSec float64 `json:"ops_per_sec"`
	// AllocsPerOp is heap allocations per iteration (0 when not measured).
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
	// BytesPerOp is heap bytes allocated per iteration (0 when not measured).
	BytesPerOp int64 `json:"bytes_per_op,omitempty"`
	// AllocsPerRequest is heap allocations per simulated request, measured
	// with testing.AllocsPerRun (only on the allocation-profile results).
	AllocsPerRequest float64 `json:"allocs_per_request,omitempty"`
	// Workers is the worker count used (sweep family only).
	Workers int `json:"workers,omitempty"`
}

// report is the committed JSON document.
type report struct {
	Description string   `json:"description"`
	Results     []Result `json:"results"`
}

func main() {
	var (
		out       = flag.String("o", "BENCH_core.json", "output JSON path (- for stdout)")
		quick     = flag.Bool("quick", false, "reduced horizons for CI smoke runs")
		workers   = flag.Int("workers", 0, "sweep worker override (0 = one per spare CPU)")
		verify    = flag.String("verify", "", "parse an existing results file instead of benchmarking")
		maxAllocs = flag.Float64("max-allocs-per-request", 0, "with -verify: fail if allocs/request exceeds this (0 = no gate)")
		baseline  = flag.String("baseline", "", "with -verify: committed results file to compare against")
		allocGrow = flag.Float64("max-allocs-growth", 1.25, "with -baseline: fail if allocs/request exceeds baseline times this")
		minThru   = flag.Float64("min-throughput-frac", 0.4, "with -baseline: fail if engine throughput falls below this fraction of baseline")
	)
	flag.Parse()

	if *verify != "" {
		verifyFile(*verify, *maxAllocs, *baseline, *allocGrow, *minThru)
		return
	}

	if *workers > 0 {
		sim.SetWorkers(*workers)
	}
	fmt.Fprintf(os.Stderr, "env: cpu=%q nproc=%d gomaxprocs=%d go=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	horizon, sweepHorizon := 10000.0, 2000.0
	if *quick {
		horizon, sweepHorizon = 1500.0, 600.0
	}

	var results []Result
	results = append(results,
		engineBench("engine/throughput", horizon, 0),
		engineBench("engine/throughput-bounded-hist", horizon, 512),
		allocBench(horizon),
	)
	sweeps, err := sweepBenches(sweepHorizon)
	if err != nil {
		fatal("%v", err)
	}
	results = append(results, sweeps...)
	clusters, err := clusterBenches(sweepHorizon)
	if err != nil {
		fatal("%v", err)
	}
	results = append(results, clusters...)

	blob, err := json.MarshalIndent(report{
		Description: "simulator hot-path benchmarks; regenerate with `go run ./cmd/corebench`",
		Results:     results,
	}, "", "  ")
	if err != nil {
		fatal("marshal: %v", err)
	}
	blob = append(blob, '\n')
	if *out == "-" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fatal("writing %s: %v", *out, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d results to %s\n", len(results), *out)
}

// benchConfig is the paper's workload at the benchmark seed — the same shape
// BenchmarkSimulatorThroughput uses, so the committed numbers line up with
// `go test -bench`.
func benchConfig(horizon float64, histBound int) core.Config {
	cat, err := catalog.Generate(catalog.PaperConfig(0.6, 42))
	if err != nil {
		fatal("catalog: %v", err)
	}
	cl, err := clients.New(clients.PaperConfig())
	if err != nil {
		fatal("clients: %v", err)
	}
	return core.Config{
		Catalog:        cat,
		Classes:        cl,
		Lambda:         5,
		Cutoff:         40,
		Alpha:          0.5,
		Horizon:        horizon,
		WarmupFraction: 0.1,
		Seed:           9,
		DelayHistBound: histBound,
	}
}

// engineBench measures one core.Run's throughput and allocation counters.
func engineBench(name string, horizon float64, histBound int) Result {
	cfg := benchConfig(horizon, histBound)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	ns := float64(res.NsPerOp())
	return Result{
		Name:        name,
		Iterations:  res.N,
		NsPerOp:     ns,
		OpsPerSec:   cfg.Horizon * cfg.Lambda / (ns / 1e9),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
}

// allocBench reports steady-state heap allocations per simulated request —
// the ratio the CI regression gate bounds.
func allocBench(horizon float64) Result {
	cfg := benchConfig(horizon, 0)
	requests := cfg.Horizon * cfg.Lambda
	perRun := testing.AllocsPerRun(3, func() {
		if _, err := core.Run(cfg); err != nil {
			fatal("alloc bench: %v", err)
		}
	})
	return Result{
		Name:             "engine/allocs",
		Iterations:       3,
		AllocsPerRequest: perRun / requests,
	}
}

// cpuModel returns the host CPU's model name from /proc/cpuinfo, or
// "unknown" where that file is absent or has no model line.
func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sweepBenches times a full cutoff sweep sequentially and, when the worker
// pool has more than one worker, with the pool, asserting the two produce
// bit-identical summaries before reporting.
func sweepBenches(horizon float64) ([]Result, error) {
	cfg := benchConfig(horizon, 0)
	var cutoffs []int
	for k := 10; k <= 90; k += 10 {
		cutoffs = append(cutoffs, k)
	}
	const reps = 2

	run := func(workers int) ([]sim.SweepPoint, Result, error) {
		prev := sim.SetWorkers(workers)
		defer sim.SetWorkers(prev)
		start := time.Now()
		pts, err := sim.SweepCutoffs(cfg, cutoffs, reps)
		elapsed := time.Since(start)
		if err != nil {
			return nil, Result{}, err
		}
		ns := float64(elapsed.Nanoseconds())
		return pts, Result{
			Iterations: 1,
			NsPerOp:    ns,
			OpsPerSec:  float64(len(cutoffs)) / (ns / 1e9),
			Workers:    workers,
		}, nil
	}

	seqPts, seq, err := run(1)
	if err != nil {
		return nil, fmt.Errorf("sequential sweep: %w", err)
	}
	seq.Name = "sweep/cutoff/workers=1"
	parWorkers := sim.Workers()
	if parWorkers == 1 {
		return []Result{seq}, nil
	}
	parPts, par, err := run(parWorkers)
	if err != nil {
		return nil, fmt.Errorf("parallel sweep: %w", err)
	}
	par.Name = fmt.Sprintf("sweep/cutoff/workers=%d", parWorkers)

	for i := range seqPts {
		a, b := seqPts[i].Summary, parPts[i].Summary
		if a.OverallDelay != b.OverallDelay || a.TotalCost != b.TotalCost {
			return nil, fmt.Errorf("sweep diverged at K=%d: workers=1 delay %v vs workers=%d delay %v",
				seqPts[i].K, a.OverallDelay, parWorkers, b.OverallDelay)
		}
	}
	return []Result{seq, par}, nil
}

// clusterBenches times a 64-cell federation with mobility sequentially and,
// when the worker pool has more than one worker, with the pool, asserting
// the two runs are bit-identical before reporting (the cluster's barrier
// design makes worker count invisible to the results; this is the
// committed proof).
func clusterBenches(horizon float64) ([]Result, error) {
	cfg := cluster.Config{
		Cells:          64,
		Base:           benchConfig(horizon, 0),
		CatalogOverlap: 0.8,
		Mobility:       cluster.Mobility{Rate: 0.02, AttachDelay: 2},
		Routing:        "least-loaded",
		HandoffEvery:   horizon / 20,
	}

	run := func(workers int) (*cluster.Result, Result, error) {
		prev := workpool.SetWorkers(workers)
		defer workpool.SetWorkers(prev)
		cl, err := cluster.New(cfg)
		if err != nil {
			return nil, Result{}, err
		}
		start := time.Now()
		res, err := cl.Run()
		elapsed := time.Since(start)
		if err != nil {
			return nil, Result{}, err
		}
		ns := float64(elapsed.Nanoseconds())
		return res, Result{
			Iterations: 1,
			NsPerOp:    ns,
			OpsPerSec:  float64(cfg.Cells) / (ns / 1e9),
			Workers:    workers,
		}, nil
	}

	seqRes, seq, err := run(1)
	if err != nil {
		return nil, fmt.Errorf("sequential cluster sweep: %w", err)
	}
	seq.Name = "cluster/sweep/workers=1"
	parWorkers := workpool.Workers()
	if parWorkers == 1 {
		return []Result{seq}, nil
	}
	parRes, par, err := run(parWorkers)
	if err != nil {
		return nil, fmt.Errorf("parallel cluster sweep: %w", err)
	}
	par.Name = fmt.Sprintf("cluster/sweep/workers=%d", parWorkers)

	if !reflect.DeepEqual(seqRes, parRes) {
		return nil, fmt.Errorf("cluster sweep diverged between workers=1 and workers=%d", parWorkers)
	}
	return []Result{seq, par}, nil
}

// verifyFile parses a results file, optionally enforces the
// allocations-per-request ceiling, and optionally compares allocs/request
// and engine throughput against a committed baseline file.
func verifyFile(path string, maxAllocs float64, baselinePath string, allocGrow, minThru float64) {
	rep := loadReport(path)
	allocs, thru := keyNumbers(path, rep)
	if maxAllocs > 0 && allocs > maxAllocs {
		fatal("%s: %.2f allocs/request exceeds ceiling %.2f", path, allocs, maxAllocs)
	}
	if baselinePath != "" {
		base := loadReport(baselinePath)
		baseAllocs, baseThru := keyNumbers(baselinePath, base)
		// The growth gate has an absolute floor: with the arena-based hot
		// path the steady-state ratio is a few hundredths of an alloc per
		// request, so at quick horizons one-time setup (arena growth, bucket
		// arrays) dominates and a pure ratio test is noise. Below the floor
		// the absolute -max-allocs-per-request ceiling is the binding gate.
		const growthFloor = 0.25
		if allocGrow > 0 && allocs > baseAllocs*allocGrow && allocs > growthFloor {
			fatal("%s: %.2f allocs/request exceeds baseline %.2f by more than %gx",
				path, allocs, baseAllocs, allocGrow)
		}
		if minThru > 0 && thru < baseThru*minThru {
			fatal("%s: throughput %.0f req/s below %.0f%% of baseline %.0f req/s",
				path, thru, minThru*100, baseThru)
		}
		fmt.Fprintf(os.Stderr, "%s vs %s: allocs %.2f/%.2f, throughput %.0f/%.0f req/s ok\n",
			path, baselinePath, allocs, baseAllocs, thru, baseThru)
	}
	fmt.Fprintf(os.Stderr, "%s: %d results, %.2f allocs/request ok\n", path, len(rep.Results), allocs)
}

// loadReport reads and parses one results file.
func loadReport(path string) report {
	blob, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	var rep report
	if err := json.Unmarshal(blob, &rep); err != nil {
		fatal("parsing %s: %v", path, err)
	}
	if len(rep.Results) == 0 {
		fatal("%s: no results", path)
	}
	return rep
}

// keyNumbers extracts the two gated quantities from a report: steady-state
// allocations per request and the headline engine throughput.
func keyNumbers(path string, rep report) (allocs, thru float64) {
	allocsFound, thruFound := false, false
	for _, r := range rep.Results {
		switch r.Name {
		case "engine/allocs":
			allocs, allocsFound = r.AllocsPerRequest, true
		case "engine/throughput":
			thru, thruFound = r.OpsPerSec, true
		}
	}
	if !allocsFound {
		fatal("%s: missing engine/allocs result", path)
	}
	if !thruFound {
		fatal("%s: missing engine/throughput result", path)
	}
	return allocs, thru
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "corebench: "+format+"\n", args...)
	os.Exit(1)
}
