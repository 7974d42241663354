package analytic

import (
	"math"
	"testing"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/core"
)

func TestErlangCErrors(t *testing.T) {
	if _, err := ErlangC(0, 1); err == nil {
		t.Fatal("c=0 accepted")
	}
	if _, err := ErlangC(2, -1); err == nil {
		t.Fatal("negative load accepted")
	}
	if _, err := ErlangC(2, math.NaN()); err == nil {
		t.Fatal("NaN load accepted")
	}
}

func TestErlangCKnownValues(t *testing.T) {
	// c=1: C(1,a) = a (waiting probability of M/M/1 is ρ).
	for _, a := range []float64{0.1, 0.5, 0.9} {
		got, err := ErlangC(1, a)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-a) > 1e-12 {
			t.Fatalf("C(1,%g) = %g, want %g", a, got, a)
		}
	}
	// Textbook: C(2, 1) = 1/3.
	got, err := ErlangC(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("C(2,1) = %g, want 1/3", got)
	}
	// Saturation and zero.
	if c, _ := ErlangC(2, 2); c != 1 {
		t.Fatalf("saturated C = %g", c)
	}
	if c, _ := ErlangC(3, 0); c != 0 {
		t.Fatalf("zero-load C = %g", c)
	}
}

func TestMMcWaitReducesToMM1(t *testing.T) {
	lambda, mu := 2.0, 5.0
	w, err := MMcWait(1, lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	want := FCFSWait(lambda, mu)
	if math.Abs(w-want) > 1e-12 {
		t.Fatalf("MMcWait(1) = %g, want M/M/1 %g", w, want)
	}
}

func TestMMcWaitMoreServersFaster(t *testing.T) {
	prev := math.Inf(1)
	for c := 1; c <= 5; c++ {
		w, err := MMcWait(c, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		if w >= prev {
			t.Fatalf("wait not decreasing in servers: c=%d w=%g prev=%g", c, w, prev)
		}
		prev = w
	}
	if w, _ := MMcWait(2, 10, 4); !math.IsInf(w, 1) {
		t.Fatalf("saturated M/M/c wait = %g", w)
	}
}

func TestMultiChannelModelTracksSimulation(t *testing.T) {
	cat := catalog.MustGenerate(catalog.PaperConfig(0.6, 42))
	cl := clients.Must(clients.PaperConfig())
	model := Model{Catalog: cat, Classes: cl, LambdaTotal: 5, Alpha: 0.5, Variant: Refined}
	for _, split := range []struct{ push, pull int }{{1, 3}, {2, 2}, {3, 1}} {
		res, err := model.MultiChannelAccessTime(50, MultiChannelParams{
			PushChannels: split.push, PullChannels: split.pull,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.Run(core.Config{
			Catalog:        cat,
			Classes:        cl,
			Lambda:         5,
			Cutoff:         50,
			Alpha:          0.5,
			PushChannels:   split.push,
			PullChannels:   split.pull,
			Horizon:        30000,
			WarmupFraction: 0.1,
			Seed:           3,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim := m.OverallMeanDelay()
		if dev := math.Abs(res.Overall-sim) / sim; dev > 0.30 {
			t.Errorf("split %d/%d: model %g vs sim %g (%.0f%% off)",
				split.push, split.pull, res.Overall, sim, dev*100)
		}
	}
}

func TestMultiChannelModelValidation(t *testing.T) {
	cat := catalog.MustGenerate(catalog.PaperConfig(0.6, 42))
	cl := clients.Must(clients.PaperConfig())
	model := Model{Catalog: cat, Classes: cl, LambdaTotal: 5, Alpha: 0.5, Variant: Refined}
	if _, err := model.MultiChannelAccessTime(50, MultiChannelParams{PushChannels: 0, PullChannels: 2}); err == nil {
		t.Fatal("no push channels accepted with push set")
	}
	if _, err := model.MultiChannelAccessTime(50, MultiChannelParams{PushChannels: 2, PullChannels: 0}); err == nil {
		t.Fatal("no pull channels accepted with pull set")
	}
	if _, err := model.MultiChannelAccessTime(101, MultiChannelParams{PushChannels: 1, PullChannels: 1}); err == nil {
		t.Fatal("cutoff out of range accepted")
	}
}
