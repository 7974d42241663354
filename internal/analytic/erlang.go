package analytic

import (
	"fmt"
	"math"
)

// ErlangC returns the probability that an arrival to an M/M/c queue waits
// (all c servers busy), with total offered load a = λ/μ Erlangs. It returns
// 1 when the system is saturated (a ≥ c). Computed with the standard
// numerically stable recurrence on the Erlang-B blocking probability:
// B(0,a)=1, B(k,a) = a·B(k−1,a)/(k + a·B(k−1,a)); C = B/(1 − ρ(1−B)).
func ErlangC(c int, a float64) (float64, error) {
	if c < 1 {
		return 0, fmt.Errorf("analytic: servers %d", c)
	}
	if a < 0 || math.IsNaN(a) || math.IsInf(a, 0) {
		return 0, fmt.Errorf("analytic: offered load %g", a)
	}
	if a == 0 {
		return 0, nil
	}
	if a >= float64(c) {
		return 1, nil
	}
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := a / float64(c)
	return b / (1 - rho*(1-b)), nil
}

// MMcWait returns the expected queueing delay of an M/M/c queue with
// arrival rate lambda and per-server service rate mu:
// Wq = C(c, a)/(c·μ − λ). +Inf when saturated.
func MMcWait(c int, lambda, mu float64) (float64, error) {
	if mu <= 0 || math.IsNaN(mu) || math.IsInf(mu, 0) {
		return 0, fmt.Errorf("analytic: service rate %g", mu)
	}
	if lambda < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return 0, fmt.Errorf("analytic: arrival rate %g", lambda)
	}
	a := lambda / mu
	if a >= float64(c) {
		return math.Inf(1), nil
	}
	pc, err := ErlangC(c, a)
	if err != nil {
		return 0, err
	}
	return pc / (float64(c)*mu - lambda), nil
}

// MultiChannelParams feeds the multi-channel access-time model.
type MultiChannelParams struct {
	// PushChannels and PullChannels split the downlink; each channel runs
	// at rate 1/(PushChannels+PullChannels).
	PushChannels, PullChannels int
}

// MultiChannelAccessTime predicts the overall expected access time of the
// multi-channel hybrid system (core.Config's push/pull channel split)
// using the same item-level fixed point as the single-channel refined
// model, adapted to c parallel pull servers via Erlang-C:
//
//   - push: channel p cycles K/P items at rate 1/n, so a push request waits
//     half its partition's cycle ≈ (K/P)·L̄push·n/2 plus the transmission;
//   - pull: item entries form an M/M/c queue over the PullChannels servers,
//     each serving one item of mean length L̄pull in n·L̄pull time.
//
// The fixed point solves W = Wq_{M/M/c}(A(W)) with the same saturating
// item-entry rate A(W) = Σ r_i/(1+r_i·W) as the single-channel model.
func (m Model) MultiChannelAccessTime(k int, p MultiChannelParams) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	if k < 0 || k > m.Catalog.D() {
		return Result{}, fmt.Errorf("analytic: cutoff %d out of [0,%d]", k, m.Catalog.D())
	}
	if k >= 1 && p.PushChannels < 1 {
		return Result{}, fmt.Errorf("analytic: push set needs push channels")
	}
	if k < m.Catalog.D() && p.PullChannels < 1 {
		return Result{}, fmt.Errorf("analytic: pull set needs pull channels")
	}
	n := float64(p.PushChannels + p.PullChannels)
	if n < 1 {
		return Result{}, fmt.Errorf("analytic: no channels")
	}

	// Push wait: partitioned flat cycles, each at rate 1/n.
	pushW := 0.0
	if k >= 1 {
		mass := m.Catalog.PushMass(k)
		if mass > 0 {
			cycle := m.Catalog.PushCycleLength(k) / float64(p.PushChannels) * n
			pushW = cycle/2 + m.Catalog.WeightedPushLength(k)/mass*n
		}
	}

	// Pull wait via M/M/c fixed point.
	waits := make([]float64, m.Classes.NumClasses())
	pullService := 0.0
	if m.Catalog.PullMass(k) > 0 {
		d := m.Catalog.D()
		rates := make([]float64, 0, d-k)
		lengths := make([]float64, 0, d-k)
		for i := k + 1; i <= d; i++ {
			rates = append(rates, m.LambdaTotal*m.Catalog.Prob(i))
			lengths = append(lengths, m.Catalog.Length(i))
		}
		entry := func(w float64) (a, meanLen, cs2 float64) {
			var lenSum, len2Sum float64
			for j, r := range rates {
				e := r / (1 + r*w)
				a += e
				lenSum += e * lengths[j]
				len2Sum += e * lengths[j] * lengths[j]
			}
			if a > 0 {
				meanLen = lenSum / a
				m2 := len2Sum / a
				if meanLen > 0 {
					cs2 = m2/(meanLen*meanLen) - 1
				}
			}
			return a, meanLen, cs2
		}
		// Allen–Cunneen G/G/c correction: transmission times are
		// deterministic given the item, so the service-time variability is
		// only the length mix's CV² — well below the exponential CV² = 1
		// the plain M/M/c assumes.
		wq := func(w float64) (float64, error) {
			a, meanLen, cs2 := entry(w)
			mu := 1 / (meanLen * n) // per-channel item service rate
			base, err := MMcWait(p.PullChannels, a, mu)
			if err != nil {
				return 0, err
			}
			return base * (1 + cs2) / 2, nil
		}
		g := func(w float64) float64 {
			v, err := wq(w)
			if err != nil || math.IsInf(v, 1) {
				return math.Inf(1)
			}
			return v - w
		}
		lo, hi := 0.0, 1.0
		for g(hi) > 0 && hi < 1e9 {
			hi *= 2
		}
		for iter := 0; iter < 200 && hi-lo > 1e-9*(1+hi); iter++ {
			mid := (lo + hi) / 2
			if g(mid) > 0 {
				lo = mid
			} else {
				hi = mid
			}
		}
		w := (lo + hi) / 2
		_, meanLen, _ := entry(w)
		pullService = meanLen * n
		// Residual correction, as in the single-channel refined model: a
		// request whose item is already queued waits only ≈ half the item's
		// remaining wait.
		lambdaPull := m.LambdaTotal * m.Catalog.PullMass(k)
		var ubar float64
		for _, r := range rates {
			ubar += r / lambdaPull * (r * w / (1 + r*w))
		}
		wReq := w * (1 - ubar/2)
		for c := range waits {
			// Class split follows the single-channel γ-shift argument; at
			// the model's level of fidelity the per-class shifts are the
			// same mechanism, so reuse the aggregate here (multi-channel
			// evaluation focuses on the split question, not class split).
			waits[c] = wReq
		}
	}
	return m.assemble(k, pushW, pullService, waits), nil
}
