package main

import (
	"math"
	"testing"
	"time"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"hybridqos/internal/event.(*Simulator).At":                    "event",
		"hybridqos/internal/core.(*Server).handleArrival.func1":       "core",
		"hybridqos/internal/multichannel.Run":                         "other",
		"type:.hash.hybridqos/internal/telemetry.metricKey":           "telemetry",
		"type:.eq.hybridqos/internal/telemetry.metricKey":             "telemetry",
		"hybridqos/internal/stats.(*Histogram[go.shape.float64]).Add": "stats",
		"main.paperWindow": "bench",
		"runtime.mallocgc": "runtime",
		"aeshashbody":      "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"math.Log":                            "math",
		"net/http.(*conn).serve":              "nethttp",
		"internal/poll.(*FD).Read":            "nethttp",
		"syscall.Syscall6":                    "nethttp",
		"encoding/json.(*decodeState).object": "encoding",
		"sync.(*Mutex).Lock":                  "sync",
		"time.Now":                            "time",
		"sort.Search":                         "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestLedgerOfRealProfile profiles labelled busy work and checks that the
// decoded shares sum to 100% and the harness label is left out.
func TestLedgerOfRealProfile(t *testing.T) {
	spin := func(d time.Duration) {
		for start := time.Now(); time.Since(start) < d; {
			refSink += uint64(math.Sqrt(float64(refSink + 1)))
		}
	}
	led, err := profiled(func() error {
		withRole("client", func() { spin(300 * time.Millisecond) })
		withRole("harness", func() { spin(300 * time.Millisecond) })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if led.total == 0 {
		t.Fatal("empty profile")
	}
	sum := 0.0
	for _, ns := range led.modules {
		sum += led.share(ns)
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("module shares sum to %g%%", sum)
	}
	if led.roles["harness"] != 0 {
		t.Errorf("harness samples kept: %d ns", led.roles["harness"])
	}
	if led.share(led.roles["client"]) < 50 {
		t.Errorf("client share %.1f%%, want most of the profile", led.share(led.roles["client"]))
	}
}
