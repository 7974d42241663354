package experiments

import (
	"fmt"
	"math"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/core"
	"hybridqos/internal/sim"
)

// ExtChannels sweeps the push/pull split of a fixed multi-channel downlink
// (total capacity held constant — n channels each run at rate 1/n) and
// reports per-class delay for every split, each point averaged over the
// replications (seed base+rep) of one flattened sweep. The question,
// inherited from the multi-channel broadcast-allocation literature the
// paper cites: given C channels, how many should broadcast the push set
// and how many should drain the pull queue?
func ExtChannels(p Params) (*Figure, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	const totalChannels = 4
	cat, err := catalog.Generate(catalog.Config{
		D: p.D, Theta: 0.60, MinLen: 1, MaxLen: 5,
		LengthWeights: catalog.PaperLengthWeights(), Seed: p.Seed,
	})
	if err != nil {
		return nil, err
	}
	cl, err := clients.New(clients.PaperConfig())
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		ID:     "EXT-CHAN",
		Title:  fmt.Sprintf("Push/pull split of %d fixed-capacity channels (θ=0.60, K=%d)", totalChannels, p.D/2),
		XLabel: "pushChannels",
		YLabel: "delay (broadcast units)",
	}
	var xs []float64
	var cfgs []core.Config
	for pushCh := 1; pushCh < totalChannels; pushCh++ {
		xs = append(xs, float64(pushCh))
		cfgs = append(cfgs, core.Config{
			Catalog:        cat,
			Classes:        cl,
			Lambda:         p.Lambda,
			Cutoff:         p.D / 2,
			Alpha:          0.5,
			PushChannels:   pushCh,
			PullChannels:   totalChannels - pushCh,
			Horizon:        p.Horizon,
			WarmupFraction: p.WarmupFraction,
			Seed:           p.Seed,
		})
	}
	sums, err := sim.SweepConfigs(cfgs, p.Replications)
	if err != nil {
		return nil, err
	}
	for c, name := range []string{"Class-A", "Class-B", "Class-C"} {
		ys := make([]float64, len(sums))
		for i, s := range sums {
			ys[i] = s.MeanDelay(clients.Class(c))
		}
		fig.Series = append(fig.Series, Series{Name: name, X: xs, Y: ys})
	}
	overall := make([]float64, len(sums))
	for i, s := range sums {
		overall[i] = s.OverallDelay.Mean()
	}
	fig.Series = append(fig.Series, Series{Name: "overall", X: xs, Y: overall})

	// Claim: the best split is a real decision — the spread between best
	// and worst split is material (>10%).
	best, worst := math.Inf(1), math.Inf(-1)
	for _, v := range overall {
		best = math.Min(best, v)
		worst = math.Max(worst, v)
	}
	fig.Claims = append(fig.Claims, Claim{
		Name:   "channel split materially affects delay",
		Pass:   worst > best*1.1,
		Detail: fmt.Sprintf("overall delay range [%.1f, %.1f] across splits", best, worst),
	})
	return fig, nil
}
