package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"hybridqos/internal/faults"
	"hybridqos/internal/trace"
	"hybridqos/internal/uplink"
	"hybridqos/internal/workload"
)

// admitBatchConfig drives the shedder hard with compound-Poisson bursts, so
// whole arrival batches meet the controller both while its level is steady
// and while load crosses a watermark mid-batch.
func admitBatchConfig(t *testing.T) (Config, *trace.Counter) {
	t.Helper()
	cfg := baseConfig(t)
	bp, err := workload.NewBatchPoisson(1.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Arrivals = bp
	cfg.RequestTTL = 150
	lm, err := faults.NewBurstLoss(0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Loss = lm
	cfg.Retry = faults.RetryPolicy{MaxAttempts: 3, Base: 1, Multiplier: 2, Max: 20, Jitter: 0.5}
	cfg.Shed = &faults.ShedConfig{High: 25, Low: 10}
	tb, err := uplink.NewTokenBucket(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Uplink = tb
	tr := trace.NewCounter()
	cfg.Tracer = tr
	return cfg, tr
}

// admitBatchDigest is runDigest of admitBatchConfig's run, captured with
// per-request admission (Shedder.Admit at every decision).
const admitBatchDigest = "d7d1142268f618f5"

// runDigest hashes a run's whole metrics (every class's counters,
// accumulators and delay samples, the transmission counts and queue
// trackers) and the given trace tallies. Floats print in Go's shortest
// round-trip form, so equal digests mean bit-identical results.
func runDigest(m *Metrics, tallies []int64) string {
	h := sha256.New()
	for _, cm := range m.PerClass {
		fmt.Fprintf(h, "%+v\n", *cm)
	}
	rest := *m
	rest.PerClass = nil
	fmt.Fprintf(h, "%+v\n%v\n", rest, tallies)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestBatchedAdmissionMatchesSequential pins admission under arrival bursts
// to per-request Shedder.Admit decisions: the run's metrics and trace
// tallies must match the digest captured when every decision in a burst
// was made one request at a time.
func TestBatchedAdmissionMatchesSequential(t *testing.T) {
	cfg, tr := admitBatchConfig(t)
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tallies []int64
	for _, k := range []trace.Kind{trace.KindShed, trace.KindServed, trace.KindRetry, trace.KindArrival} {
		tallies = append(tallies, tr.Count(k))
	}
	if got := runDigest(m, tallies); got != admitBatchDigest {
		t.Errorf("admission digest %s, want %s", got, admitBatchDigest)
	}
	if m.TotalShed() == 0 {
		t.Fatal("workload never tripped the shedder; the test is vacuous")
	}
	if tr.Count(trace.KindArrival) == 0 {
		t.Fatal("no arrivals traced")
	}
}
