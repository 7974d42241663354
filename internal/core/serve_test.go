package core

import (
	"sort"
	"strings"
	"testing"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/clock"
	"hybridqos/internal/trace"
)

// Tests of the serving driver: a Server on a caller-owned virtual clock,
// fed through Submit. Admission, quotas and the drain protocol are the
// daemon's and are tested in internal/qosd.

// rtCatalog builds a unit-length catalog of d items: one item transmits per
// broadcast unit, so capacity is exactly 1 request-batch per unit.
func rtCatalog(t *testing.T, d int) *catalog.Catalog {
	t.Helper()
	cat, err := catalog.Generate(catalog.Config{D: d, Theta: 0.5, MinLen: 1, MaxLen: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func rtClasses(t *testing.T, weights ...float64) *clients.Classification {
	t.Helper()
	cl, err := clients.New(clients.Config{Weights: weights})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// servingServer builds and starts a serving Server on a fresh virtual clock:
// d unit-length items, two classes, the given push cutoff.
func servingServer(t *testing.T, d, cutoff int) (*Server, *clock.Virtual) {
	t.Helper()
	v := clock.NewVirtual()
	s, err := New(Config{Catalog: rtCatalog(t, d), Classes: rtClasses(t, 2, 1), Cutoff: cutoff, Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	return s, v
}

// p95 returns the 95th-percentile of xs (nearest-rank).
func p95(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := (len(s)*95 + 99) / 100
	if idx > 0 {
		idx--
	}
	return s[idx]
}

// TestRealtimeOverloadDegradesByClass is the 2x-overload chaos scenario at
// the engine's level: three classes offer twice the channel capacity for a
// thousand broadcast units, all of it submitted (refusal is the daemon's
// job; internal/qosd checks refusal rates). The priority pull policy alone
// must degrade by class — every higher class's p95 effective delay
// (expiries count as the full deadline) no worse than every lower class's —
// and every request must be answered by its deadline.
func TestRealtimeOverloadDegradesByClass(t *testing.T) {
	const (
		numClasses = 3
		deadline   = 30.0
		horizon    = 1000.0
	)
	v := clock.NewVirtual()
	s, err := New(Config{
		Catalog:        rtCatalog(t, 300),
		Classes:        rtClasses(t, 4, 2, 1),
		PullPolicyName: "priority",
		Clock:          v,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	type classStats struct {
		submitted, callbacks, expired int
		effective                     []float64 // served delay, or deadline when expired
	}
	stats := make([]classStats, numClasses)
	// Offered load: one request every 0.5 units (2 per unit against a
	// capacity of 1), round-robin over classes, each class confined to its
	// own hundred-item band so no class rides another's transmissions and —
	// with each item revisited only every 150 units, far past the deadline —
	// requests barely coalesce: the channel is genuinely 2x oversubscribed.
	for k := 0; 0.5*float64(k) < horizon; k++ {
		class := k % numClasses
		item := class*100 + (k/numClasses)%100 + 1
		v.At(0.5*float64(k), func() {
			st := &stats[class]
			st.submitted++
			deadlineAt := v.Now() + deadline
			s.Submit(item, clients.Class(class), deadlineAt, func(res Result) {
				st.callbacks++
				if v.Now() > deadlineAt {
					t.Errorf("class %d: answered at t=%g, after its deadline %g", class, v.Now(), deadlineAt)
				}
				if res.Outcome == OutcomeServed {
					st.effective = append(st.effective, res.Delay)
				} else {
					st.expired++
					st.effective = append(st.effective, deadline)
				}
			})
		})
	}
	v.RunUntil(horizon + 2*deadline)

	totalExpired := 0
	for c := 0; c < numClasses; c++ {
		st := &stats[c]
		if st.submitted == 0 {
			t.Fatalf("class %d: no load generated", c)
		}
		if st.callbacks != st.submitted {
			t.Fatalf("class %d: %d callbacks for %d submitted requests", c, st.callbacks, st.submitted)
		}
		totalExpired += st.expired
	}
	// The scenario must actually overload: without admission the excess
	// can only expire.
	if totalExpired == 0 {
		t.Fatal("2x overload produced no expiries; the scenario is not stressing the channel")
	}
	for c := 0; c+1 < numClasses; c++ {
		hi, lo := &stats[c], &stats[c+1]
		if hiP95, loP95 := p95(hi.effective), p95(lo.effective); hiP95 > loP95 {
			t.Errorf("class %d p95 effective delay %g worse than class %d's %g", c, hiP95, c+1, loP95)
		}
		if hi.expired > lo.expired {
			t.Errorf("class %d expired %d times, more than class %d's %d", c, hi.expired, c+1, lo.expired)
		}
	}
	if got := s.PendingLoad(); got != 0 {
		t.Errorf("PendingLoad = %d after every request resolved", got)
	}
}

// TestRealtimeDrain is the engine's half of a graceful drain: once the
// driver stops submitting mid-storm, every submitted request resolves by
// its deadline, the backlog empties, and the Stop that completes the drain
// (issued when the last request resolves) is terminal. The daemon's half —
// 503 on new work, onDrained exactly once — is tested in internal/qosd.
func TestRealtimeDrain(t *testing.T) {
	const (
		deadline = 8.0
		drainAt  = 4.0
	)
	v := clock.NewVirtual()
	s, err := New(Config{
		Catalog: rtCatalog(t, 12),
		Classes: rtClasses(t, 4, 2, 1),
		Cutoff:  2,
		Clock:   v,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	draining := false
	submitted, outstanding, callbacks, stops := 0, 0, 0, 0
	drainedAt := -1.0
	stop := func() {
		stops++
		drainedAt = v.Now()
		s.Stop()
	}
	for k := 0; k < 40; k++ {
		v.At(0.2*float64(k), func() {
			if draining {
				return // the driver refuses new work here
			}
			submitted++
			outstanding++
			deadlineAt := v.Now() + deadline
			s.Submit(k%12+1, clients.Class(k%3), deadlineAt, func(Result) {
				callbacks++
				outstanding--
				if v.Now() > deadlineAt {
					t.Errorf("callback at t=%g, after its deadline %g", v.Now(), deadlineAt)
				}
				if draining && outstanding == 0 {
					stop()
				}
			})
		})
	}
	v.At(drainAt, func() {
		draining = true
		if outstanding == 0 {
			stop()
		}
	})
	v.RunUntil(0.2*40 + 3*deadline)

	if submitted == 0 || submitted == 40 {
		t.Fatalf("%d of 40 requests submitted; the drain did not land mid-storm", submitted)
	}
	if stops != 1 {
		t.Fatalf("drain completed %d times", stops)
	}
	if callbacks != submitted {
		t.Fatalf("%d callbacks for %d submitted requests", callbacks, submitted)
	}
	// Queue entries of expired requests may stay behind a Stop; what must
	// not is a live request.
	if live := len(s.reqs.gen) - len(s.reqs.free); live != 0 {
		t.Fatalf("%d requests still live after drain", live)
	}
	if drainedAt > drainAt+deadline {
		t.Errorf("drain completed at t=%g, past the deadline bound %g", drainedAt, drainAt+deadline)
	}
	// A drained engine refuses new work loudly.
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("Submit on a drained engine did not panic")
			} else if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "core: ") {
				t.Errorf("panic %v lacks the package prefix", r)
			}
		}()
		s.Submit(3, 0, v.Now()+deadline, func(Result) {})
	}()
}

// TestRealtimeBurstCoalesces: a burst of requests for one item rides at
// most two transmissions (one in flight when the burst lands, one for the
// re-pooled remainder).
func TestRealtimeBurstCoalesces(t *testing.T) {
	s, v := servingServer(t, 5, 0)
	served := 0
	for i := 0; i < 100; i++ {
		s.Submit(3, clients.Class(i%2), 10, func(res Result) {
			if res.Outcome != OutcomeServed {
				t.Errorf("burst request resolved %v", res.Outcome)
			}
			if res.Delay > 2 {
				t.Errorf("burst delay %g exceeds two transmission lengths", res.Delay)
			}
			served++
		})
	}
	v.RunUntil(10)
	if served != 100 {
		t.Fatalf("served %d of 100 burst requests", served)
	}
	if got := s.Peek().PullTransmissions; got > 2 {
		t.Errorf("burst used %d pull transmissions, want at most 2", got)
	}
}

// TestRealtimeDeadlineTieFavorsExpiry pins the race the drain guarantee
// depends on: a transmission completing exactly at the deadline loses to
// the expiry timer, so no caller ever hears a success after its deadline.
func TestRealtimeDeadlineTieFavorsExpiry(t *testing.T) {
	s, v := servingServer(t, 3, 0)
	var got *Result
	var at float64
	// Item length is exactly 1: completion ties the deadline.
	s.Submit(1, 0, 1, func(res Result) {
		got = &res
		at = v.Now()
	})
	v.RunUntil(5)
	if got == nil {
		t.Fatal("no callback")
	}
	if got.Outcome != OutcomeExpired {
		t.Fatalf("deadline==completion resolved %v, want expired", got.Outcome)
	}
	if at != 1 {
		t.Fatalf("expiry callback at t=%g, want exactly the deadline t=1", at)
	}
	if m := s.Peek().PerClass[0]; m.Expired != 1 || m.Served != 0 {
		t.Errorf("class 0 metrics: %d expired, %d served; want 1, 0", m.Expired, m.Served)
	}
}

// TestRealtimeDeadlineStormSkipsDeadEntries: when every queued request has
// already expired, the engine recycles the entries instead of broadcasting
// to nobody.
func TestRealtimeDeadlineStormSkipsDeadEntries(t *testing.T) {
	s, v := servingServer(t, 10, 0)
	expired := 0
	for i := 0; i < 50; i++ {
		// Deadline 0.5: shorter than any transmission can finish.
		s.Submit(i%10+1, clients.Class(i%2), 0.5, func(res Result) {
			if v.Now() > 0.5 {
				t.Errorf("callback at t=%g, after the deadline", v.Now())
			}
			if res.Outcome == OutcomeExpired {
				expired++
			}
		})
	}
	v.RunUntil(20)
	// The first entry's transmission was in flight before anything expired;
	// every other entry must be recycled untransmitted.
	if got := s.Peek().PullTransmissions; got != 1 {
		t.Errorf("deadline storm used %d pull transmissions, want 1", got)
	}
	if expired != 50 {
		t.Errorf("%d of 50 storm requests expired", expired)
	}
}

// TestRealtimePushServesWaiters: requests for push-band items wait for the
// broadcast cycle and resolve with Push=true.
func TestRealtimePushServesWaiters(t *testing.T) {
	s, v := servingServer(t, 4, 2)
	var pushServed, pullServed bool
	v.At(0.25, func() {
		s.Submit(1, 0, 20, func(res Result) {
			pushServed = res.Outcome == OutcomeServed && res.Push
		})
		s.Submit(4, 1, 20, func(res Result) {
			pullServed = res.Outcome == OutcomeServed && !res.Push
		})
	})
	v.RunUntil(20)
	if !pushServed {
		t.Error("push-band request was not served by a broadcast")
	}
	if !pullServed {
		t.Error("pull-band request was not served on demand")
	}
}

// TestServeStopIsTerminal: after Stop the transmission in flight completes
// as a no-op — its waiting request is not answered — nothing more is
// booked, and a further Submit panics with the package prefix.
func TestServeStopIsTerminal(t *testing.T) {
	s, v := servingServer(t, 4, 0)
	answered := 0
	s.Submit(4, 0, 100, func(Result) { answered++ })
	s.Stop()
	v.RunUntil(10)
	if answered != 0 {
		t.Errorf("a stopped server answered %d requests", answered)
	}
	if n := v.Pending(); n != 1 {
		t.Errorf("%d events pending after stop, want only the expiry timer", n)
	}
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "core: ") {
			t.Errorf("Submit after Stop: panic %v, want a core: message", r)
		}
	}()
	s.Submit(3, 0, 20, func(Result) {})
}

// TestRealtimeConfigValidation: a serving Server needs no arrival process
// or horizon, and every structural check still applies to it.
func TestRealtimeConfigValidation(t *testing.T) {
	v := clock.NewVirtual()
	cat := rtCatalog(t, 5)
	cls := rtClasses(t, 2, 1)
	if _, err := New(Config{Catalog: cat, Classes: cls, Clock: v}); err != nil {
		t.Fatalf("serving config without lambda or horizon refused: %v", err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil catalog", Config{Classes: cls, Clock: v}},
		{"nil classes", Config{Catalog: cat, Clock: v}},
		{"bad cutoff", Config{Catalog: cat, Classes: cls, Cutoff: 9, Clock: v}},
		{"bad alpha", Config{Catalog: cat, Classes: cls, Alpha: 2, Clock: v}},
		{"unknown pull policy", Config{Catalog: cat, Classes: cls, Clock: v, PullPolicyName: "no-such-policy"}},
		{"bad delay histogram bound", Config{Catalog: cat, Classes: cls, Clock: v, DelayHistBound: 1}},
		{"simulation without lambda", Config{Catalog: cat, Classes: cls, Horizon: 10}},
		{"simulation without horizon", Config{Catalog: cat, Classes: cls, Lambda: 5}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New succeeded", tc.name)
		}
	}
}

// TestSubmitDriverMatchesSimulation is the cross-driver differential test:
// the paper's configuration run by the simulator's arrival generator, and
// the same arrival stream replayed through Submit on a fresh virtual-clock
// Server, must produce bit-identical per-class outcomes. Deadlines lie past
// the horizon and nothing is refused, so the two drivers differ only in
// where the requests come from.
func TestSubmitDriverMatchesSimulation(t *testing.T) {
	cfg := baseConfig(t)
	cfg.WarmupFraction = 0
	events := &trace.Buffer{}
	cfg.Tracer = events
	sim, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []trace.Event
	for _, e := range events.Events {
		if e.Kind == trace.KindArrival {
			arrivals = append(arrivals, e)
		}
	}
	if len(arrivals) == 0 {
		t.Fatal("the simulation generated no arrivals")
	}

	v := clock.NewVirtual()
	replay := cfg
	replay.Tracer = nil
	replay.Clock = v
	replay.Lambda, replay.Horizon = 0, 0
	srv, err := New(replay)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	never := 10 * cfg.Horizon
	for _, e := range arrivals {
		v.RunUntil(e.T)
		srv.Submit(e.Item, e.Class, never, func(Result) {})
	}
	v.RunUntil(cfg.Horizon)
	got := srv.Peek()

	if got.PushBroadcasts != sim.PushBroadcasts || got.PullTransmissions != sim.PullTransmissions {
		t.Errorf("transmissions: submit %d push / %d pull, simulation %d / %d",
			got.PushBroadcasts, got.PullTransmissions, sim.PushBroadcasts, sim.PullTransmissions)
	}
	for c, want := range sim.PerClass {
		g := got.PerClass[c]
		if g.Arrivals != want.Arrivals || g.Served != want.Served {
			t.Errorf("class %d: submit %d arrivals / %d served, simulation %d / %d",
				c, g.Arrivals, g.Served, want.Arrivals, want.Served)
		}
		// Whole accumulator states: count, mean, spread and extremes must
		// match bit for bit, which needs the same delays added in the same
		// order.
		if g.Delay != want.Delay || g.PushDelay != want.PushDelay || g.PullDelay != want.PullDelay {
			t.Errorf("class %d: submit delay n=%d mean=%v, simulation n=%d mean=%v",
				c, g.Delay.N(), g.Delay.Mean(), want.Delay.N(), want.Delay.Mean())
		}
	}
}
