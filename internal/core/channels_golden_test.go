package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/core"
	"hybridqos/internal/sched"
)

// splitCase is one push/pull downlink split pinned by TestChannelSplitGolden.
type splitCase struct {
	name       string
	push, pull int
	cutoff     int // -1 selects the catalog size D (pure push)
	policy     sched.PullPolicy
	digests    [3]string // seeds 1, 2, 3
}

// The digests were captured from the dedicated multi-channel simulator
// (internal/multichannel) before it was folded into core.Server as a
// channel split. They hash each class's arrival and served counts, the
// whole Delay/PushDelay/PullDelay accumulator states and the raw delay
// histogram samples, plus the push and pull transmission counts, so any
// change to a single delay value or to the order delays were added shows.
var splitGolden = []splitCase{
	{"1/3", 1, 3, 40, nil, [3]string{"2ece042ccbd5f8d3", "4f0b6905151e9e19", "0f40d349c4f9bb7b"}},
	{"2/2", 2, 2, 40, nil, [3]string{"eed07a72f325ddc2", "bb29ec490ce2238d", "627d9faad131d3a4"}},
	{"3/1", 3, 1, 40, nil, [3]string{"8788c99a30a9c44b", "004f63049da12e79", "022bea6740871d94"}},
	{"4/4", 4, 4, 40, nil, [3]string{"cc6ccf43072665ff", "25b0876ef60aba87", "174b66d30ea89d46"}},
	{"0/3 pure pull", 0, 3, 0, nil, [3]string{"f09e203ae1d131aa", "55a7de053ce666bb", "5d390668ddd705cf"}},
	{"4/0 pure push", 4, 0, -1, nil, [3]string{"5c23af6106643ae8", "8d71991403bb7c6d", "81df66e6c4190e07"}},
	{"2/2 rxw", 2, 2, 40, sched.RxW{}, [3]string{"4170788427fea638", "e9e988ff87c6e941", "57e9baec9d71b91b"}},
}

// splitDigest hashes a split run's per-class outcomes and transmission
// counts. Floats print in Go's shortest round-trip form, so equal digests
// mean bit-identical states.
func splitDigest(perClass []*core.ClassMetrics, push, pull int64) string {
	h := sha256.New()
	fmt.Fprintf(h, "push=%d pull=%d\n", push, pull)
	for _, cm := range perClass {
		fmt.Fprintf(h, "%d %d %+v %+v %+v %+v\n",
			cm.Arrivals, cm.Served, cm.Delay, cm.PushDelay, cm.PullDelay, cm.DelayHist)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runSplit runs one pinned split and returns its digest.
func runSplit(t *testing.T, cat *catalog.Catalog, cl *clients.Classification, sc splitCase, seed uint64) string {
	t.Helper()
	cutoff := sc.cutoff
	if cutoff < 0 {
		cutoff = cat.D()
	}
	m, err := core.Run(core.Config{
		Catalog: cat, Classes: cl, Lambda: 5, Cutoff: cutoff, Alpha: 0.5,
		PullPolicy: sc.policy, PushChannels: sc.push, PullChannels: sc.pull,
		Horizon: 2000, WarmupFraction: 0.1, Seed: seed,
	})
	if err != nil {
		t.Fatalf("%s seed %d: %v", sc.name, seed, err)
	}
	return splitDigest(m.PerClass, m.PushBroadcasts, m.PullTransmissions)
}

// TestChannelSplitGolden pins every push/pull split of the multi-channel
// downlink, over three seeds, to the multi-channel simulator's output.
func TestChannelSplitGolden(t *testing.T) {
	cat := catalog.MustGenerate(catalog.PaperConfig(0.6, 42))
	cl := clients.Must(clients.PaperConfig())
	for _, sc := range splitGolden {
		for i, want := range sc.digests {
			seed := uint64(i + 1)
			if got := runSplit(t, cat, cl, sc, seed); got != want {
				t.Errorf("split %s seed %d: digest %s, want %s", sc.name, seed, got, want)
			}
		}
	}
}
