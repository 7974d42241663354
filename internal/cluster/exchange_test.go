package cluster

import (
	"runtime"
	"testing"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/core"
)

// Once its buffers have grown, the barrier's exchange — routing every
// roamer and booking one injection batch per destination — allocates
// nothing per roamer.
func TestExchangeSteadyStateAllocs(t *testing.T) {
	cat, err := catalog.Generate(catalog.Config{
		D: 100, Theta: 0.6, MinLen: 1, MaxLen: 5,
		LengthWeights: catalog.PaperLengthWeights(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := clients.New(clients.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Cells: 64,
		Base: core.Config{
			Catalog: cat, Classes: cl, Lambda: 5, Cutoff: 40, Alpha: 0.5,
			Horizon: 2000, WarmupFraction: 0.1, Seed: 11,
		},
		CatalogOverlap: 0.8,
		Mobility:       Mobility{Rate: 0.02, AttachDelay: 2},
		Routing:        "least-loaded",
		HandoffEvery:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// One more epoch by hand: the parallel phase, then the exchange alone.
	c.epoch++
	t1 := float64(c.epoch) * c.delta
	roamers := 0
	for _, cs := range c.cells {
		cs.advance(t1, c.roamProb)
		roamers += len(cs.roamers)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.exchange(t1)
	runtime.ReadMemStats(&after)
	if roamers < 1000 {
		t.Fatalf("only %d roamers; the check is vacuous", roamers)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > uint64(len(c.cells)) {
		t.Errorf("exchange of %d roamers made %d allocations, want at most one per cell", roamers, allocs)
	}
}
