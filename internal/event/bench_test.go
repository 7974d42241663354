package event

import (
	"fmt"
	"testing"

	"hybridqos/internal/rng"
)

// BenchmarkQueueMix measures steady-state schedule/pop (and optionally
// cancel) cycles for the arena heap and the retired container/heap
// reference. The hold mixes keep the pending count constant: each iteration
// pops the earliest event and schedules a replacement a uniform random gap
// ahead, so the time-axis density matches the event count. cancel=1of4
// replaces every fourth op with a cancel of a random outstanding token
// followed by a reschedule. The burst mixes replay a cluster cell between
// epoch barriers: two base events always pending, and every epoch a burst
// of N attach events at one identical instant — the pattern where a
// bucketed calendar degrades to a linear scan per pop.
func BenchmarkQueueMix(b *testing.B) {
	for _, pending := range []int{8, 64, 1024, 16384} {
		for _, cancelEvery := range []int{0, 4} {
			mix := "hold"
			if cancelEvery > 0 {
				mix = "1of4"
			}
			spread := float64(pending) // mean pop gap ~1 at every density
			b.Run(fmt.Sprintf("impl=arena/pending=%d/cancel=%s", pending, mix), func(b *testing.B) {
				s := New()
				r := rng.New(7)
				h := func() {}
				toks := make([]Token, pending)
				for i := range toks {
					toks[i] = s.At(r.Float64()*spread, h)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if cancelEvery > 0 && i%cancelEvery == 0 {
						j := int(r.Uint64() % uint64(pending))
						if s.Cancel(toks[j]) {
							toks[j] = s.At(s.Now()+r.Float64()*spread, h)
							continue
						}
					}
					s.step()
					toks[i%pending] = s.At(s.Now()+r.Float64()*spread, h)
				}
			})
			b.Run(fmt.Sprintf("impl=heap/pending=%d/cancel=%s", pending, mix), func(b *testing.B) {
				s := newRefSim()
				r := rng.New(7)
				h := func() {}
				toks := make([]refToken, pending)
				for i := range toks {
					toks[i] = s.At(r.Float64()*spread, h)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if cancelEvery > 0 && i%cancelEvery == 0 {
						j := int(r.Uint64() % uint64(pending))
						if s.Cancel(toks[j]) {
							toks[j] = s.At(s.now+r.Float64()*spread, h)
							continue
						}
					}
					s.step()
					toks[i%pending] = s.At(s.now+r.Float64()*spread, h)
				}
			})
		}
	}
	for _, burst := range []int{64, 1024} {
		b.Run(fmt.Sprintf("impl=arena/burst=%d", burst), func(b *testing.B) {
			s := New()
			burstMix(b, burst, s.Now, func(t float64, h Handler) { s.At(t, h) }, s.step)
		})
		b.Run(fmt.Sprintf("impl=heap/burst=%d", burst), func(b *testing.B) {
			s := newRefSim()
			burstMix(b, burst, func() float64 { return s.now }, func(t float64, h Handler) { s.At(t, h) }, s.step)
		})
	}
}

// burstMix drives one queue through the burst mix for b.N pops: two base
// events, each rescheduling itself an Exp(1) gap ahead, and an epoch
// barrier that schedules burst attach events at one instant half an epoch
// later. The epoch spans burst base pops, so half of all pops come from
// bursts.
func burstMix(b *testing.B, burst int, now func() float64, at func(float64, Handler), step func() bool) {
	r := rng.New(7)
	epoch := float64(burst) / 2 // two base events fire per unit of time
	attach := func() {}
	var base, barrier Handler
	base = func() { at(now()+r.Exp(1), base) }
	barrier = func() {
		due := now() + epoch/2
		for i := 0; i < burst; i++ {
			at(due, attach)
		}
		at(now()+epoch, barrier)
	}
	at(r.Exp(1), base)
	at(r.Exp(1), base)
	at(epoch, barrier)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
