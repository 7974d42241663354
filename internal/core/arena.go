package core

// Struct-of-arrays arena for the state of submitted requests (Server.Submit).
// One live request = one int32 slot across the parallel field slices; freed
// slots recycle through a freelist, so steady-state serving allocates no
// per-request objects and the tracking structures (push-waiter lists, pull
// queue requests) carry generation-packed int64 handles instead of pointers.
//
// A handle packs gen<<32 | slot. Generations start at 1 and bump when a
// slot is released, so the zero handle never resolves (it marks a generated
// request, which has no caller waiting) and a handle outliving its request
// (in a pull-queue entry or a push-waiter list) goes inert the moment the
// request resolves — the same staleness contract event.Token gives the
// scheduler, applied to requests.

import (
	"hybridqos/internal/clients"
	"hybridqos/internal/clock"
)

// reqArena holds every live submitted request's fields in parallel slices.
type reqArena struct {
	item    []int32
	class   []clients.Class
	arrival []float64
	span    []int64 // span ID when head-sampled, 0 otherwise
	done    []func(Result)
	expiry  []clock.Token
	gen     []uint32
	free    []int32 // recycled slots awaiting reuse
}

// alloc returns a free slot; its generation already differs from every
// handle issued for the slot before.
//
//qos:hotpath
func (a *reqArena) alloc() int32 {
	if n := len(a.free); n > 0 {
		slot := a.free[n-1]
		a.free = a.free[:n-1]
		return slot
	}
	return a.grow()
}

// grow is alloc's cold path: the arena extends to the peak concurrent
// request count once, then the freelist recycles.
func (a *reqArena) grow() int32 {
	a.item = append(a.item, 0)
	a.class = append(a.class, 0)
	a.arrival = append(a.arrival, 0)
	a.span = append(a.span, 0)
	a.done = append(a.done, nil)
	a.expiry = append(a.expiry, clock.Token{})
	a.gen = append(a.gen, 1)
	return int32(len(a.gen) - 1)
}

// handle packs the slot's current generation into its external identity.
//
//qos:hotpath
func (a *reqArena) handle(slot int32) int64 {
	return int64(a.gen[slot])<<32 | int64(uint32(slot))
}

// lookup resolves a handle to its slot, failing for the zero handle and
// for a request that already resolved (stale generation).
//
//qos:hotpath
func (a *reqArena) lookup(h int64) (int32, bool) {
	slot := int32(uint32(h))
	if int(slot) >= len(a.gen) || a.gen[slot] != uint32(h>>32) {
		return 0, false
	}
	return slot, true
}

// release retires a resolved request: every handle to it goes stale, the
// callback is dropped so it does not outlive the request, and the slot
// joins the freelist.
//
//qos:hotpath
func (a *reqArena) release(slot int32) {
	a.gen[slot]++
	a.done[slot] = nil
	//lint:allow hotalloc amortized: the freelist grows to the peak concurrent request count once, then recycles
	a.free = append(a.free, slot)
}
