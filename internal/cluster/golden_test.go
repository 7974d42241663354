package cluster_test

import (
	"crypto/sha256"
	"fmt"
	"io"
	"testing"

	"hybridqos/internal/cluster"
	"hybridqos/internal/core"
	"hybridqos/internal/trace"
)

// goldenDigests pins a digest of the whole cluster.Result — the merged
// spans-on trace, the periodic snapshots and every cell's metrics — for
// each routing policy. The barrier's event order (roam-out spans,
// refusals, re-attachments) is part of the trace, so any reordering of
// cross-cell work shows up here even when metrics do not move. Update a
// value only for an intended behaviour change.
var goldenDigests = []struct{ routing, digest string }{
	{"nearest", "8913ce0e364a962af9d126623cbc910ee81a67b700a29aff70c5d23a95fbd7e6"},
	{"least-loaded", "7493bb1c4225efb6caf02b7652d482587001c8ebe590111a133b623203f58084"},
	{"class-affine", "c5f03bbf24146962dba5a406836a327bba5fea0f2a0e4484f9f1f9d935126ef5"},
}

func goldenConfig(t *testing.T, routing string) cluster.Config {
	t.Helper()
	cfg := cluster.Config{
		Cells:               16,
		Base:                base(t),
		CatalogOverlap:      0.5,
		Mobility:            cluster.Mobility{Rate: 0.03, AttachDelay: 2},
		Routing:             routing,
		HandoffEvery:        40,
		HotCell:             5,
		HotFactor:           2,
		SaturationLoad:      8,
		SnapshotEveryEpochs: 2,
		CollectTrace:        true,
	}
	cfg.Base.Horizon = 160
	cfg.Base.Spans = &core.SpanConfig{Rates: []float64{1, 1, 1}}
	return cfg
}

// digestResult hashes every deterministic field of a cluster result.
func digestResult(res *cluster.Result) string {
	h := sha256.New()
	for _, e := range res.Trace {
		fmt.Fprintf(h, "%+v\n", e)
	}
	for _, s := range res.Snapshots {
		fmt.Fprintf(h, "%+v\n", s)
	}
	for _, c := range res.PerCell {
		digestMetrics(h, c.Metrics)
		fmt.Fprintf(h, "%d %t %v %d\n", c.Cell, c.Saturated, c.SaturatedAt, c.FinalLoad)
	}
	digestMetrics(h, res.Aggregate)
	fmt.Fprintf(h, "%d\n", res.SaturatedCells)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func digestMetrics(w io.Writer, m *core.Metrics) {
	for _, cm := range m.PerClass {
		fmt.Fprintf(w, "%+v\n", *cm)
	}
	fmt.Fprintf(w, "%d %d %d %d %d %+v %+v %+v %v %d\n",
		m.PushBroadcasts, m.PullTransmissions, m.BlockedTransmissions,
		m.CorruptedPushes, m.CorruptedPulls, m.QueueItems, m.QueueRequests,
		m.Bandwidth, m.Horizon, m.Cutoff)
}

// TestClusterGolden runs a 16-cell federation with spans on, catalog
// overlap 0.5 (so "no-item" refusals occur) and periodic snapshots under
// every routing policy, and compares the result digest to the pinned one.
func TestClusterGolden(t *testing.T) {
	for _, g := range goldenDigests {
		t.Run(g.routing, func(t *testing.T) {
			c, err := cluster.New(goldenConfig(t, g.routing))
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			var noItem, roamOut bool
			for _, e := range res.Trace {
				noItem = noItem || (e.Kind == trace.KindHandoffRefused && e.Reason == "no-item")
				roamOut = roamOut || e.Kind == trace.KindSpanHandoff
			}
			if !noItem || !roamOut || len(res.Snapshots) == 0 {
				t.Fatalf("golden run is vacuous: no-item refusals %t, roam-out spans %t, %d snapshots",
					noItem, roamOut, len(res.Snapshots))
			}
			if got := digestResult(res); got != g.digest {
				t.Errorf("digest %s, want %s", got, g.digest)
			}
		})
	}
}
