package event

import (
	"math"
	"testing"

	"hybridqos/internal/rng"
)

// TestDifferentialAgainstReferenceHeap drives the arena heap and the
// retired container/heap implementation through the same randomized
// schedule/cancel/advance workload and requires bit-identical pop order.
// Bursts sweep the pending count up and down; ties, coarse-grid clustering
// and far-future outliers exercise every sift path, and every fifth round
// adds a burst of 64 or more events at one identical instant amid the base
// traffic (the cluster's epoch-barrier attach pattern), so the FIFO
// tie-break is checked at depth.
func TestDifferentialAgainstReferenceHeap(t *testing.T) {
	r := rng.New(99)
	cal := New()
	ref := newRefSim()
	var calFired, refFired []int
	type pair struct {
		c Token
		r refToken
	}
	var live []pair
	id := 0
	schedule := func(at float64) {
		myID := id
		id++
		live = append(live, pair{
			c: cal.At(at, func() { calFired = append(calFired, myID) }),
			r: ref.At(at, func() { refFired = append(refFired, myID) }),
		})
	}
	now := 0.0
	for round := 0; round < 200; round++ {
		burst := 1 + int(r.Uint64()%uint64(1+(round%7)*60))
		for k := 0; k < burst; k++ {
			var gap float64
			switch r.Uint64() % 5 {
			case 0:
				gap = 0 // exact tie with now
			case 1:
				gap = math.Floor(r.Float64() * 8) // coarse grid forces shared timestamps
			case 2:
				gap = r.Float64() * 3 // dense near future
			case 3:
				gap = r.Float64() * 500 // far future
			default:
				gap = r.Float64() * 20
			}
			schedule(now + gap)
		}
		if round%5 == 0 {
			at := now + math.Floor(r.Float64()*8)
			for k := 64 + int(r.Uint64()%64); k > 0; k-- {
				schedule(at)
			}
		}
		for k := int(r.Uint64() % 8); k > 0 && len(live) > 0; k-- {
			j := int(r.Uint64() % uint64(len(live)))
			gotCal := cal.Cancel(live[j].c)
			gotRef := ref.Cancel(live[j].r)
			if gotCal != gotRef {
				t.Fatalf("round %d: Cancel disagreement: arena=%v heap=%v", round, gotCal, gotRef)
			}
		}
		now += r.Float64() * 30
		cal.RunUntil(now)
		for ref.Pending() > 0 && ref.queue[0].time <= now {
			ref.step()
		}
		ref.now = now
		if len(calFired) != len(refFired) {
			t.Fatalf("round %d: fired %d events, heap fired %d", round, len(calFired), len(refFired))
		}
	}
	cal.Run()
	ref.run()
	if len(calFired) != len(refFired) {
		t.Fatalf("drained %d events, heap drained %d", len(calFired), len(refFired))
	}
	for i := range calFired {
		if calFired[i] != refFired[i] {
			t.Fatalf("pop order diverges at %d: arena fired %d, heap fired %d", i, calFired[i], refFired[i])
		}
	}
	if len(calFired) == 0 {
		t.Fatal("differential workload fired nothing")
	}
}

// TestCancelAfterPopIsInert pins the cancel-after-pop edge: a Token whose
// event already fired cancels nothing, even after heavy slot recycling puts
// a new event into the same arena slot.
func TestCancelAfterPopIsInert(t *testing.T) {
	s := New()
	tok := s.At(1, func() {})
	bFired := false
	s.At(2, func() { bFired = true })
	s.RunUntil(1.5)
	if s.Cancel(tok) {
		t.Fatal("Cancel returned true for a popped event")
	}
	// Recycle the popped slot many times over.
	for i := 0; i < 50; i++ {
		s.Cancel(s.At(s.Now()+1, func() {}))
	}
	if s.Cancel(tok) {
		t.Fatal("Cancel of popped event hit a recycled slot")
	}
	s.Run()
	if !bFired {
		t.Fatal("unrelated event lost")
	}
}

// TestStaleGenerationCancelAcrossManyReuses cycles one arena slot through
// repeated cancel/reuse rounds: every retired generation's Token must stay
// dead while each fresh generation cancels exactly once.
func TestStaleGenerationCancelAcrossManyReuses(t *testing.T) {
	s := New()
	stale := s.At(1, func() { t.Error("cancelled event fired") })
	if !s.Cancel(stale) {
		t.Fatal("first cancel failed")
	}
	old := []Token{stale}
	for round := 0; round < 10; round++ {
		tok := s.At(float64(round)+1, func() { t.Error("cancelled event fired") })
		for _, dead := range old {
			if s.Cancel(dead) {
				t.Fatalf("round %d: stale generation cancelled a live event", round)
			}
		}
		if !s.Cancel(tok) {
			t.Fatalf("round %d: live token failed to cancel", round)
		}
		old = append(old, tok)
	}
	s.Run()
	if s.Fired() != 0 {
		t.Fatalf("fired %d events, want 0", s.Fired())
	}
}

// TestRescheduleStormFiresInOrder seeds a modest queue, then floods it with
// 1024 events while cancelling and rescheduling a third of them mid-flight.
// The fired sequence must stay sorted with the exact expected survivor
// count.
func TestRescheduleStormFiresInOrder(t *testing.T) {
	s := New()
	var fired []float64
	note := func() { fired = append(fired, s.Now()) }
	for i := 1; i <= 70; i++ {
		s.At(float64(i), note)
	}
	s.RunUntil(10)
	const storm = 1024
	r := rng.New(4)
	var toks []Token
	for i := 0; i < storm; i++ {
		toks = append(toks, s.At(s.Now()+1+r.Float64()*50, note))
	}
	cancelled := 0
	for i := 0; i < len(toks); i += 3 {
		if s.Cancel(toks[i]) {
			cancelled++
			// Reschedule: the replacement must land and fire in order.
			s.At(s.Now()+1+r.Float64()*50, note)
		}
	}
	s.Run()
	want := 70 + storm // every cancel paired with one reschedule
	if len(fired) != want {
		t.Fatalf("fired %d events, want %d (cancelled %d, rescheduled %d)", len(fired), want, cancelled, cancelled)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("fire order regressed at %d: %g after %g", i, fired[i], fired[i-1])
		}
	}
}

// TestDenseBurstsAroundSparseStragglers drains a dense burst down to two
// far stragglers, fires one of them, then schedules a second dense burst:
// every event fires exactly once, and RunUntil stops at each horizon.
func TestDenseBurstsAroundSparseStragglers(t *testing.T) {
	s := New()
	n := 0
	count := func() { n++ }
	for i := 1; i <= 100; i++ {
		s.At(float64(i)/10, count)
	}
	s.At(1000, count)
	s.At(2000, count)
	s.RunUntil(50) // drains the dense prefix; the two stragglers remain
	if s.Pending() != 2 {
		t.Fatalf("%d pending after the dense prefix, want 2", s.Pending())
	}
	s.RunUntil(1500)
	if n != 101 {
		t.Fatalf("fired %d, want 101", n)
	}
	for i := 1; i <= 100; i++ {
		s.At(s.Now()+float64(i)/10, count)
	}
	s.RunUntil(s.Now() + 5)
	if n != 151 {
		t.Fatalf("fired %d after half the second burst, want 151", n)
	}
	s.Run()
	if n != 202 {
		t.Fatalf("fired %d, want 202", n)
	}
}

// TestFarFutureOutlierStaysOrdered schedules one event far beyond the dense
// traffic: it must pop last, exactly once.
func TestFarFutureOutlierStaysOrdered(t *testing.T) {
	s := New()
	var fired []float64
	note := func() { fired = append(fired, s.Now()) }
	s.At(1e9, note)
	for i := 1; i <= 200; i++ {
		s.At(float64(i), note)
	}
	s.Run()
	if len(fired) != 201 {
		t.Fatalf("fired %d, want 201", len(fired))
	}
	if fired[200] != 1e9 {
		t.Fatalf("outlier fired at position with time %g", fired[200])
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("fire order regressed at %d", i)
		}
	}
}
