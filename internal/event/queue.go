package event

// Queue is a pending-event set: a binary min-heap on (time, insertion
// sequence) over an index-addressed event arena. The heap moves int32 slot
// numbers, not pointers, so steady-state scheduling allocates nothing and
// the garbage collector has no per-event pointers to trace; fired and
// cancelled slots park on a freelist for reuse.
//
// Queue imposes no clock: it accepts any non-NaN time, including -Inf
// (clock.Wall's "as soon as possible"), and pops in ascending (time, seq)
// order. The Simulator adds the causality checks of a simulated time line.
// The zero value is an empty queue ready for use. A Queue is not safe for
// concurrent use.
type Queue struct {
	events  []event // index-addressed arena; the heap references slots
	free    []int32 // fired/cancelled slots awaiting reuse
	heap    []entry // binary min-heap of pending events on (time, seq)
	nextSeq uint64
}

// event is one scheduled occurrence, stored in the Queue's arena and
// addressed by slot index. gen increments on every reuse so stale Tokens
// can never cancel the recycled slot.
type event struct {
	handler Handler
	gen     uint64 // reuse generation, guards Token validity
	pos     int32  // heap index, or posFree once popped/cancelled
}

// entry is one heap element: the event's ordering key, held in the heap so
// sifts compare without an indirection into the arena, and its arena slot.
type entry struct {
	time float64
	seq  uint64 // insertion order, breaks time ties deterministically
	slot int32
}

// before reports whether a pops before b: ascending time, insertion
// sequence breaking ties. This single comparison defines the queue's total
// order; sequences are unique, so the order is strict and the pop sequence
// does not depend on the heap's shape.
//
//qos:hotpath
func (a *entry) before(b *entry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// posFree marks an arena slot that is fired or cancelled, awaiting reuse.
const posFree int32 = -1

// Token identifies a scheduled event so it can be cancelled. A Token held
// past its event's firing (or cancellation) goes stale and cancels nothing,
// even after the queue reuses the event's storage. The zero Token is valid
// and cancels nothing (arena generations start at 1).
type Token struct {
	slot int32
	gen  uint64
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Push schedules h at time t and returns a Token for cancellation. Events
// with equal times pop in Push order.
//
//qos:hotpath
func (q *Queue) Push(t float64, h Handler) Token {
	i := q.alloc()
	ev := &q.events[i]
	ev.handler = h
	ev.gen++
	n := len(q.heap)
	if n < cap(q.heap) {
		q.heap = q.heap[:n+1]
	} else {
		q.heapGrow()
	}
	q.up(n, entry{time: t, seq: q.nextSeq, slot: i})
	q.nextSeq++
	return Token{slot: i, gen: ev.gen}
}

// Peek returns the earliest pending event's time; ok is false when the
// queue is empty.
//
//qos:hotpath
func (q *Queue) Peek() (t float64, ok bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].time, true
}

// Pop removes the earliest pending event and returns its time and handler.
// It panics on an empty queue.
//
//qos:hotpath
func (q *Queue) Pop() (t float64, h Handler) {
	top := q.heap[0]
	q.remove(0)
	h = q.events[top.slot].handler
	q.recycle(top.slot)
	return top.time, h
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op and returns false.
func (q *Queue) Cancel(tok Token) bool {
	if tok.gen == 0 || int(tok.slot) >= len(q.events) {
		return false
	}
	ev := &q.events[tok.slot]
	if ev.gen != tok.gen || ev.pos == posFree {
		return false
	}
	q.remove(int(ev.pos))
	q.recycle(tok.slot)
	return true
}

// alloc returns a recycled arena slot or a fresh one.
//
//qos:hotpath
func (q *Queue) alloc() int32 {
	if n := len(q.free); n > 0 {
		i := q.free[n-1]
		q.free = q.free[:n-1]
		return i
	}
	return q.grow()
}

// grow appends a fresh zero slot to the arena (cold path: the arena reaches
// the peak in-flight event count once, then the freelist recycles).
func (q *Queue) grow() int32 {
	q.events = append(q.events, event{})
	return int32(len(q.events) - 1)
}

// heapGrow extends the heap by one element (cold path: the backing array
// grows to the peak pending count once).
func (q *Queue) heapGrow() {
	q.heap = append(q.heap, entry{})
}

// recycle parks a popped or cancelled slot for reuse. The handler is
// dropped immediately so captured state does not outlive the event.
//
//qos:hotpath
func (q *Queue) recycle(i int32) {
	ev := &q.events[i]
	ev.handler = nil
	ev.pos = posFree
	if n := len(q.free); n < cap(q.free) {
		q.free = q.free[:n+1]
		q.free[n] = i
	} else {
		q.freeGrow(i)
	}
}

// freeGrow is recycle's cold path: the freelist grows to the peak in-flight
// event count once, then recycles.
func (q *Queue) freeGrow(i int32) {
	q.free = append(q.free, i)
}

// remove deletes the element at heap index j, restoring heap order.
//
//qos:hotpath
func (q *Queue) remove(j int) {
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.heap = q.heap[:last]
	if j == last {
		return
	}
	if j > 0 && moved.before(&q.heap[(j-1)/2]) {
		q.up(j, moved)
	} else {
		q.down(j, moved)
	}
}

// up files e into the hole at heap index j, moving the hole toward the
// root past every parent that pops after e.
//
//qos:hotpath
func (q *Queue) up(j int, e entry) {
	for j > 0 {
		parent := (j - 1) / 2
		p := &q.heap[parent]
		if !e.before(p) {
			break
		}
		q.heap[j] = *p
		q.events[p.slot].pos = int32(j)
		j = parent
	}
	q.heap[j] = e
	q.events[e.slot].pos = int32(j)
}

// down files e into the hole at heap index j, moving the hole toward the
// leaves past every child that pops before e.
//
//qos:hotpath
func (q *Queue) down(j int, e entry) {
	h := q.heap
	n := len(h)
	for {
		least := 2*j + 1
		if least >= n {
			break
		}
		if right := least + 1; right < n && h[right].before(&h[least]) {
			least = right
		}
		c := &h[least]
		if !c.before(&e) {
			break
		}
		h[j] = *c
		q.events[c.slot].pos = int32(j)
		j = least
	}
	h[j] = e
	q.events[e.slot].pos = int32(j)
}
