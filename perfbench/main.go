// Command perfbench is the repository benchmark. It runs one of four named
// workloads against the library's public APIs and prints every metric by
// name with its unit; the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//	perfbench --digests <n>
//
// With --trace 0 the run reports the end-to-end metrics, measured with no
// instrumentation attached. With --trace 1 a separate run reports the
// per-layer ledger: a CPU profile bucketed by module, timing wrappers passed
// in through the program's own injection points, and replays of the event
// and pull queues at the depths the run observed. --workload all runs the
// four workloads one after another, each in its own process. --digests
// prints the committed digest table (digests.json) for seeds 0..n-1.
//
// README.md in this directory explains why each workload exists and which
// per-layer metric should move which end-to-end metric.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one named benchmark input family.
type workload struct {
	name string
	// measure runs the untraced timing window and returns the end-to-end
	// metrics; traced runs the instrumented window and returns the
	// per-layer metrics. Both count their checked operations in chk.
	measure func(seed uint64, window time.Duration, chk *checker) (endToEnd, error)
	traced  func(seed uint64, window time.Duration, chk *checker) (layers, error)
	// digest returns the digest of operation 0 at the seed; nil for
	// workloads whose outputs depend on wall-clock timing.
	digest func(seed uint64) (string, error)
}

var workloads = []workload{
	{name: "paper-cell", measure: paperMeasure, traced: paperTraced, digest: paperDigest},
	{name: "cluster-64", measure: clusterMeasure, traced: clusterTraced, digest: clusterDigest},
	{name: "serve-virtual", measure: virtualMeasure, traced: virtualTraced, digest: virtualDigest},
	{name: "serve-http", measure: httpMeasure, traced: httpTraced},
}

// endToEnd holds one untraced run's results, from which the metrics every
// workload shares (BENCHMARK.json) are derived; named holds the workload's
// own figures under their workload-specific names.
type endToEnd struct {
	setupS     float64 // median of the timed set-ups
	throughput float64 // requests per second
	latencyMS  []float64
	named      []namedValue
}

// simEndToEnd derives the simulator workloads' figures from their unit
// times (units of equal size and expected cost, perUnit requests each) and
// the slowdowns measured next to them (calib.go): throughput at the median
// unit time and latency at each unit time, both at nominal machine speed.
// The unscaled mean rate and the mean slowdown are printed.
func simEndToEnd(setup float64, unitS, slowdown []float64, perUnit float64, rateName string, named ...namedValue) endToEnd {
	nominal := atNominal(unitS, slowdown)
	rate := perUnit / quantile(nominal, 0.5)
	return endToEnd{
		setupS:     setup,
		throughput: rate,
		latencyMS:  scaled(nominal, 1e3),
		named: append([]namedValue{
			{"setup_s", setup, "s"},
			{rateName, rate, "1/s"},
			{"wall_" + rateName, float64(len(unitS)) * perUnit / sum(unitS), "1/s"},
			{"machine_slowdown", sum(slowdown) / float64(len(slowdown)), "x"},
		}, named...),
	}
}

// layers holds one traced run's per-layer metrics by name.
type layers map[string]float64

type namedValue struct {
	name  string
	value float64
	unit  string
}

// endToEndMetrics and layerMetrics are the metric names registered in
// BENCHMARK.json, with their units. Every workload reports every name; a
// per-layer metric of a layer the workload never enters reads 0.
var endToEndMetrics = []namedValue{
	{name: "setup_s", unit: "s"},
	{name: "throughput_per_s", unit: "1/s"},
	{name: "latency_p90_ms", unit: "ms"},
	{name: "max_rss_mb", unit: "MB"},
}

var layerMetrics = func() []namedValue {
	var out []namedValue
	for _, m := range ledgerModules {
		out = append(out, namedValue{name: m + ".cpu_share", unit: "%"})
	}
	for _, m := range []struct{ name, unit string }{
		{"client.cpu_share", "%"},
		{"net.cpu_share", "%"},
		{"rng.ns_per_draw", "ns"},
		{"event.ns_per_op", "ns"},
		{"event.depth", "count"},
		{"pullqueue.ns_per_op", "ns"},
		{"pullqueue.items_mean", "count"},
		{"cluster.step_s_p50", "s"},
		{"cluster.handoffs_per_s", "1/s"},
		{"workpool.speedup", "x"},
		{"qosd.serve_ns_per_req", "ns"},
		{"clock.run_ns_per_req", "ns"},
		{"clock.events_per_req", "count"},
		{"clock.pending_mean", "count"},
		{"admission.shed_share", "%"},
		{"admission.rate_limited_share", "%"},
		{"admission.quota_share", "%"},
		{"core.expired_share", "%"},
		{"http.client_us_p50", "us"},
		{"http.client_us_p99", "us"},
		{"qosd.handler_us_p50", "us"},
		{"clock.bridge_wait_us_p50", "us"},
		{"clock.bridge_wait_us_p99", "us"},
		{"qosd.serve_us_p50", "us"},
		{"clock.loop_busy_share", "%"},
		{"http.gold_overhead_us_p50", "us"},
		{"runtime.gc_cpu_share", "%"},
		{"runtime.allocs_per_req", "count"},
		{"trace_overhead_pct", "%"},
	} {
		out = append(out, namedValue{name: m.name, unit: m.unit})
	}
	return out
}()

// checker counts checked operations and the ones that failed their check.
type checker struct {
	attempted, failed int64
	logged            int
}

// op records one checked operation; a non-nil err marks it failed.
func (c *checker) op(err error) {
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	if c.logged < 10 {
		c.logged++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
	}
}

// merge adds another checker's counts, kept by a goroutine of its own.
func (c *checker) merge(o *checker) {
	c.attempted += o.attempted
	c.failed += o.failed
}

func main() {
	name := flag.String("workload", "", "workload: paper-cell, cluster-64, serve-virtual, serve-http, or all")
	seed := flag.Uint64("seed", 1, "workload seed (1 is the seed of record, 2 the held-out seed)")
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end timing")
	digests := flag.Int("digests", 0, "print the op-0 digest table for seeds 0..n-1 and exit")
	flag.Parse()

	if *digests > 0 {
		if err := printDigests(*digests); err != nil {
			fatal("%v", err)
		}
		return
	}
	if *name == "all" {
		// One process per workload, so each reports its own peak memory.
		for _, w := range workloads {
			cmd := exec.Command(os.Args[0], "--workload", w.name, "--seed", strconv.FormatUint(*seed, 10),
				"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", strconv.Itoa(*traceFlag))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fatal("%s: %v", w.name, err)
			}
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatal("unknown workload %q", *name)
	}
	if !(*seconds > 0) || *traceFlag < 0 || *traceFlag > 1 {
		fatal("--seconds must be positive and --trace 0 or 1")
	}
	window := time.Duration(*seconds * float64(time.Second))

	fmt.Printf("env %s\n", envBlock())
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", w.name, *seed, *seconds, *traceFlag)
	chk := &checker{}
	metrics := map[string]any{}
	if *traceFlag == 0 {
		res, err := w.measure(*seed, window, chk)
		if err != nil {
			fatal("%s: %v", w.name, err)
		}
		values := map[string]float64{
			"setup_s":          res.setupS,
			"throughput_per_s": res.throughput,
			"latency_p90_ms":   quantile(res.latencyMS, 0.9),
			"max_rss_mb":       maxRSSMB(),
		}
		for _, nv := range res.named {
			fmt.Printf("  %-28s %14.6g %s\n", nv.name, nv.value, nv.unit)
		}
		fmt.Printf("  %-28s %14.6g %s\n", "latency_p50_ms", quantile(res.latencyMS, 0.5), "ms")
		fmt.Printf("  %-28s %14.6g %s\n", "latency_p90_ms", quantile(res.latencyMS, 0.9), "ms")
		fmt.Printf("  %-28s %14.6g %s\n", "latency_p99_ms", quantile(res.latencyMS, 0.99), "ms")
		fmt.Printf("  %-28s %14d %s\n", "latency_samples", len(res.latencyMS), "count")
		fmt.Printf("  %-28s %14.6g %s\n", "max_rss_mb", values["max_rss_mb"], "MB")
		fmt.Printf("  %-28s %14.6g %s\n", "ops_failed_share", share(chk.failed, chk.attempted), "fraction")
		for _, m := range endToEndMetrics {
			metrics[m.name] = metricValue{values[m.name], m.unit}
		}
	} else {
		res, err := w.traced(*seed, window, chk)
		if err != nil {
			fatal("%s: %v", w.name, err)
		}
		for _, m := range layerMetrics {
			v := res[m.name]
			fmt.Printf("  %-28s %14.6g %s\n", m.name, v, m.unit)
			metrics[m.name] = metricValue{v, m.unit}
		}
		fmt.Printf("  %-28s %14.6g %s\n", "ops_failed_share", share(chk.failed, chk.attempted), "fraction")
	}
	attempted := chk.attempted
	if attempted == 0 {
		// A run that checked nothing has not shown anything correct.
		attempted, chk.failed = 1, 1
	}
	out, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}{chk.failed == 0, attempted, chk.failed, metrics})
	if err != nil {
		fatal("encoding result: %v", err)
	}
	fmt.Println(string(out))
}

// commit is the source revision, set at build time by run.sh.
var commit = "unknown"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envBlock describes the machine and build a result came from.
func envBlock() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	blob, _ := json.Marshal(map[string]any{ // a map of strings and ints always encodes
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
	})
	return string(blob)
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// printDigests prints the committed digest table: for each deterministic
// workload, the digest of operation 0 at seeds 0..n-1.
func printDigests(n int) error {
	table := map[string]map[string]string{}
	for _, w := range workloads {
		if w.digest == nil {
			continue
		}
		table[w.name] = map[string]string{}
		for s := 0; s < n; s++ {
			d, err := w.digest(uint64(s))
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			table[w.name][strconv.Itoa(s)] = d
		}
	}
	blob, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	return nil
}

//go:embed digests.json
var digestsJSON []byte

// checkDigest compares a workload's operation-0 digest with the committed
// table. Seeds outside the table have no committed digest and pass.
func checkDigest(workloadName string, seed uint64, got string) error {
	var table map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &table); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	want, ok := table[workloadName][strconv.FormatUint(seed, 10)]
	if !ok || want == got {
		return nil
	}
	return fmt.Errorf("%s seed %d: op-0 digest %s, committed %s", workloadName, seed, got, want)
}

// setupSamples is how many set-up samples each run takes. A set-up takes
// from tens of microseconds to about a millisecond, too short to time one
// at a time, so each sample times set-ups back to back for at least
// setupBatch and counts the time per set-up.
const (
	setupSamples = 21
	setupBatch   = 20 * time.Millisecond
)

// timeSetup takes setupSamples samples of f, measuring the machine's
// slowdown after each, and returns the median time per set-up at nominal
// machine speed (calib.go).
func timeSetup(f func() error, slowdown func() float64) (float64, error) {
	var ts, slow []float64
	for i := 0; i < setupSamples; i++ {
		n := 0
		start := time.Now()
		for n == 0 || time.Since(start) < setupBatch {
			if err := f(); err != nil {
				return 0, err
			}
			n++
		}
		ts = append(ts, time.Since(start).Seconds()/float64(n))
		slow = append(slow, slowdown())
	}
	return quantile(atNominal(ts, slow), 0.5), nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when xs is empty). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// mix derives the seed of operation i from the workload seed (splitmix64).
func mix(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
