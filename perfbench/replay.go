package main

// Bulk-timed replays of single layers through their public calls, run at
// the queue depths the traced window observed or, for cluster-64, whose
// cells' event queues are not visible, in the burst pattern its observed
// handoff counts imply. They time a layer alone, so
// a change to it shows here even where the end-to-end run hides it.

import (
	"math"
	"time"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/event"
	"hybridqos/internal/pullqueue"
	"hybridqos/internal/rng"
)

const replayOps = 1 << 20

// replayEvent times an event.Simulator hold model: depth events pending at
// all times, each fired event scheduling its successor at an exponential
// delay. With cancelShare > 0, that share of the fired events also
// schedules a far timer and cancels the oldest one still pending, as
// per-request deadline timers do when their requests are served. It
// returns nanoseconds per fired or cancelled event.
func replayEvent(depth, cancelShare float64, seed uint64) float64 {
	n := int(math.Round(depth))
	if n < 1 {
		n = 1
	}
	sim := event.New()
	r := rng.New(seed).Split("replay-event")
	var timers []event.Token
	fired, cancelled := 0, 0
	noop := func() {}
	var h event.Handler
	h = func() {
		fired++
		if fired >= replayOps {
			sim.Stop()
			return
		}
		sim.After(r.Exp(1), h)
		if cancelShare > 0 && r.Float64() < cancelShare {
			timers = append(timers, sim.After(1e6+r.Exp(1), noop))
			if len(timers) > n {
				if sim.Cancel(timers[0]) {
					cancelled++
				}
				timers = timers[1:]
			}
		}
	}
	for i := 0; i < n; i++ {
		sim.After(r.Exp(1), h)
	}
	start := time.Now()
	sim.Run()
	return float64(time.Since(start).Nanoseconds()) / float64(fired+cancelled)
}

// replayEventBursts times an event.Simulator as one cluster cell drives
// it: two events always pending (the next arrival and the transmission in
// flight), each fired one scheduling its successor, and at every barrier,
// after perEpoch of those, a burst of burst attach events all due
// attachShare of an epoch later, which then drain. It returns nanoseconds
// per fired event and the mean number of events pending at each pop.
func replayEventBursts(perEpoch, burst, attachShare float64, seed uint64) (nsPerOp, depth float64) {
	epoch := math.Max(perEpoch, 1) / 2 // two events fire per unit of time
	n := int(math.Round(burst))
	sim := event.New()
	r := rng.New(seed).Split("replay-event-bursts")
	fired, seen := 0, 0
	pop := func() bool {
		fired++
		seen += sim.Pending()
		if fired >= replayOps {
			sim.Stop()
			return false
		}
		return true
	}
	attach := func() { pop() }
	var base, barrier event.Handler
	base = func() {
		if pop() {
			sim.After(r.Exp(1), base)
		}
	}
	barrier = func() {
		if !pop() {
			return
		}
		due := sim.Now() + attachShare*epoch
		for i := 0; i < n; i++ {
			sim.At(due, attach)
		}
		sim.After(epoch, barrier)
	}
	sim.After(r.Exp(1), base)
	sim.After(r.Exp(1), base)
	sim.After(epoch, barrier)
	start := time.Now()
	sim.Run()
	return float64(time.Since(start).Nanoseconds()) / float64(fired), float64(seen) / float64(fired)
}

// replayPullQueue times a pullqueue.Heap holding about items distinct
// entries: each step extracts the best entry, recycles it, and adds two
// requests with popularity-weighted pull items, which either open a new
// entry or join a pending one. It returns nanoseconds per step.
func replayPullQueue(cat *catalog.Catalog, cutoff int, items float64, seed uint64) float64 {
	target := int(math.Round(items))
	if target < 1 {
		target = 1
	}
	h, err := pullqueue.NewHeap(paperAlpha)
	if err != nil {
		return math.NaN()
	}
	r := rng.New(seed).Split("replay-pullqueue")
	now := 0.0
	add := func() {
		item := cat.SampleRank(r)
		for item <= cutoff {
			item = cat.SampleRank(r)
		}
		class := clients.Class(r.Intn(3))
		h.Add(pullqueue.Request{Item: item, Class: class, Priority: float64(3 - class), Arrival: now, Client: -1}, cat.Length(item))
	}
	pull := cat.D() - cutoff
	if target > pull {
		target = pull
	}
	for h.Items() < target {
		add()
	}
	start := time.Now()
	for i := 0; i < replayOps/4; i++ {
		now += 1
		if h.Items() >= target {
			h.Recycle(h.ExtractMax(now))
		}
		add()
		add()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(replayOps/4)
}

// replayRNG times the three draws every simulated arrival makes: the
// exponential gap, the Zipf item (alias table) and the service class.
// It returns nanoseconds per draw.
func replayRNG(cat *catalog.Catalog, cl *clients.Classification, seed uint64) float64 {
	r := rng.New(seed).Split("replay-rng")
	var acc float64
	start := time.Now()
	for i := 0; i < replayOps; i++ {
		acc += r.Exp(paperLambda)
		acc += float64(cat.SampleRank(r))
		acc += float64(cl.SampleClass(r))
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(3*replayOps)
	if math.IsNaN(acc) {
		return math.NaN() // keeps acc, and so the draws, live
	}
	return ns
}
