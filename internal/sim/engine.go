package sim

import "fmt"

// Target receives scheduled callbacks without a closure allocation. Layers
// whose per-event callback is a fixed method on a long-lived object (a
// connection handling its ACKs, a device completing its current request)
// implement Target once and pass op/a/b through the event instead of
// capturing them: scheduling then costs zero heap allocations. op
// discriminates between the object's event kinds; a and b are opaque
// payload words whose meaning is private to the implementation.
type Target interface {
	OnEvent(op uint32, a, b int64)
}

// Events execute in (at, seq) order: due time, then a per-engine sequence
// number assigned at push time. seq is strictly increasing, so events due
// at the same instant run in the order they were scheduled (FIFO), and the
// order is a total one — a simulation is a pure function of its inputs.
//
// The queue is split in two so that heap sifts move small, pointer-free
// values:
//
//   - key is the heap element: the ordering pair plus the index of the
//     event's payload slot. 24 bytes, no pointers, so a sift is a few word
//     copies with no GC write barriers.
//   - payload is the callback, stored once in a per-engine slab and never
//     moved while the event is pending. Slots are recycled through a free
//     list and zeroed when their event is popped, so a dispatched event
//     keeps no closure, proc or target reachable.
//
// Most events belong to streams that are already in (at, seq) order: a
// Line delivers in FIFO order, ACKs trail their sends by a constant, and
// same-instant events are pushed in seq order by definition. Such a stream
// is a lane (see Lane): its pending events are linked through the slab in
// order, and only the lane's head has a key in the heap. Popping a head
// replaces the heap root with the lane's next event and sifts down once,
// where a plain event costs a pop now and a full sift-up at its push.
type key struct {
	at   Time
	seq  uint64
	slot uint32
}

// payload is an event's callback, a tagged union discriminated by which
// pointer is set:
//
//	tgt != nil — call tgt.OnEvent(op, a, b) (the closure-free callback path;
//	             a parked proc resumes through its procWake Target)
//	otherwise  — call fn
//
// Both variants are inline — no allocation on push or pop. Targets are
// pointers to objects that already exist; only the fn variant may carry a
// freshly allocated closure, and the hot paths (proc wake-ups, transport
// segments, device completions) avoid it.
//
// at and seq repeat the event's key, so a lane can check its tail and
// promote its next event without a heap lookup; next is the slot+1 of the
// following event in the same lane (0: none). The whole payload is 64
// bytes, one cache line.
type payload struct {
	a, b int64
	fn   func()
	tgt  Target
	op   uint32
	next uint32
	at   Time
	seq  uint64
}

// laneTail locates the last event pushed to a lane: its slot and seq. The
// lane is empty when that slot no longer holds that seq — popped slots are
// zeroed and reused slots get a fresh seq — so popping never has to find
// the lane an event came from. The zero value is an empty lane.
type laneTail struct {
	slot uint32
	seq  uint64
}

// A Lane is a FIFO stream of events on one engine whose (at, seq) never
// decreases, such as a constant-delay reply path. Only the lane's head
// waits in the event heap; the rest queue behind it in order. Events run
// in exactly the same (at, seq) order as if each were scheduled with
// Engine.AtCall: a push due earlier than the lane's tail simply falls back
// to a plain heap key. Every Line has a lane of its own. The zero value is
// not usable; create lanes with Engine.NewLane.
type Lane struct {
	e  *Engine
	id uint32
}

// NewLane returns an empty lane on e.
func (e *Engine) NewLane() Lane { return Lane{e, e.newLane()} }

// newLane allocates a lane id.
func (e *Engine) newLane() uint32 {
	e.lanes = append(e.lanes, laneTail{})
	return uint32(len(e.lanes) - 1)
}

// AtCall runs tgt.OnEvent(op, a, b) at absolute time t, which must not be
// in the past, queued behind the lane's earlier events.
func (l Lane) AtCall(t Time, tgt Target, op uint32, a, b int64) {
	if t < l.e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at %v, now %v", t, l.e.now))
	}
	l.e.pushLane(l.id, t, payload{tgt: tgt, op: op, a: a, b: b})
}

// Engine is a discrete-event simulation executor. The zero value is not
// usable; create engines with NewEngine.
//
// All simulation code — event callbacks and Proc bodies — runs under the
// engine's handoff discipline, one piece at a time, so it may freely mutate
// shared simulation state without locks.
type Engine struct {
	now     Time
	heap    []key     // binary min-heap ordered by (at, seq)
	slab    []payload // event payloads, indexed by key.slot
	free    []uint32  // slab slots not holding a pending event
	seq     uint64
	lanes   []laneTail    // tails by lane id; lane 0 takes events due now
	linked  int           // pending lane events queued behind their lane's head
	yield   chan struct{} // procs hand control back to the loop on this
	current *Proc         // proc currently holding control, if any

	executed uint64 // events executed so far
	spawned  int    // procs ever spawned
	finished int    // procs that ran to completion
	parked   int    // procs currently blocked awaiting a wake-up
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{yield: make(chan struct{}), lanes: make([]laneTail, 1)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far (a cheap measure of
// simulation work, used by benchmarks).
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.heap) + e.linked }

// Parked returns the number of processes currently blocked. A simulation
// that drains its event queue while processes remain parked has deadlocked;
// tests assert this is zero after Run.
func (e *Engine) Parked() int { return e.parked }

// ProcsFinished returns how many spawned processes ran to completion.
func (e *Engine) ProcsFinished() int { return e.finished }

// ProcsSpawned returns how many processes were ever spawned.
func (e *Engine) ProcsSpawned() int { return e.spawned }

// ---- heap ----------------------------------------------------------------
//
// A hand-specialized binary min-heap over []key. Compared with
// container/heap this removes the interface boxing on every Push/Pop and
// the indirect Len/Less/Swap calls; sifts move a hole instead of swapping,
// so each level costs one 24-byte copy.

// less orders keys by due time, then by scheduling order.
func less(x, y key) bool {
	return x.at < y.at || (x.at == y.at && x.seq < y.seq)
}

// push schedules ev at time at. An event due now joins the engine's
// current-instant lane; any other becomes a plain heap key.
func (e *Engine) push(at Time, ev payload) {
	if at == e.now {
		e.pushLane(0, at, ev)
		return
	}
	e.siftUp(e.store(at, ev))
}

// pushLane schedules ev at time at on the given lane: behind the lane's
// tail when at is not earlier, as the lane's head when the lane is empty,
// and as a plain heap key otherwise.
func (e *Engine) pushLane(lane uint32, at Time, ev payload) {
	k := e.store(at, ev)
	t := &e.lanes[lane]
	if last := &e.slab[t.slot]; t.seq != 0 && last.seq == t.seq {
		if at < last.at {
			e.siftUp(k) // out of order: the lane keeps its tail
			return
		}
		last.next = k.slot + 1
		*t = laneTail{k.slot, k.seq}
		e.linked++
		return
	}
	*t = laneTail{k.slot, k.seq}
	e.siftUp(k)
}

// store puts ev in a free slab slot under the next seq and returns its key.
func (e *Engine) store(at Time, ev payload) key {
	e.seq++
	ev.at, ev.seq = at, e.seq
	var slot uint32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.slab[slot] = ev
	} else {
		slot = uint32(len(e.slab))
		e.slab = append(e.slab, ev)
	}
	return key{at: at, seq: e.seq, slot: slot}
}

// siftUp inserts k into the heap.
func (e *Engine) siftUp(k key) {
	h := append(e.heap, k)
	// Move parents down into the hole until k fits.
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(k, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
	e.heap = h
}

// popMin removes the earliest event from the queue and returns its slot,
// which the caller frees. The queue must not be empty. When the event
// heads a lane, the lane's next event takes over its heap root.
func (e *Engine) popMin() uint32 {
	h := e.heap
	min := h[0].slot
	var last key
	if next := e.slab[min].next; next != 0 {
		nx := &e.slab[next-1]
		last = key{at: nx.at, seq: nx.seq, slot: next - 1}
		e.linked--
	} else {
		n := len(h) - 1
		last = h[n]
		h = h[:n]
		e.heap = h
	}
	// Sift down: move the smaller child up into the hole until last fits.
	n := len(h)
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && less(h[r], h[c]) {
				c = r
			}
			if !less(h[c], last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	return min
}

// ---- scheduling ----------------------------------------------------------

// Schedule runs fn after delay d (d may be zero; negative panics).
func (e *Engine) Schedule(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// At runs fn at absolute time t, which must not be in the past.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at %v, now %v", t, e.now))
	}
	e.push(t, payload{fn: fn})
}

// ScheduleCall runs tgt.OnEvent(op, a, b) after delay d. It is the
// closure-free counterpart of Schedule: no allocation happens on this path.
func (e *Engine) ScheduleCall(d Time, tgt Target, op uint32, a, b int64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.AtCall(e.now+d, tgt, op, a, b)
}

// AtCall runs tgt.OnEvent(op, a, b) at absolute time t, which must not be
// in the past. It is the closure-free counterpart of At.
func (e *Engine) AtCall(t Time, tgt Target, op uint32, a, b int64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at %v, now %v", t, e.now))
	}
	e.push(t, payload{tgt: tgt, op: op, a: a, b: b})
}

// scheduleProc schedules a handoff to p after delay d (the Sleep/wake
// path). Like ScheduleCall it allocates nothing.
func (e *Engine) scheduleProc(d Time, p *Proc) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.push(e.now+d, payload{tgt: (*procWake)(p)})
}

// ---- execution -----------------------------------------------------------

// Run executes events until the queue is empty and returns the final time.
func (e *Engine) Run() Time { return e.RunUntil(MaxTime) }

// RunUntil executes events with at <= deadline and returns the current time
// afterwards; later events remain queued. The clock never advances past the
// time of the last executed event.
func (e *Engine) RunUntil(deadline Time) Time {
	for len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.step()
	}
	return e.now
}

// Step executes exactly one event if available and reports whether it did.
// It applies the same time-monotonicity check as RunUntil.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	e.step()
	return true
}

// step pops and executes the earliest event. The queue must not be empty.
// The slot is zeroed and freed before the callback runs, so the callback
// may reuse it and the queue keeps nothing reachable.
func (e *Engine) step() {
	slot := e.popMin()
	ev := &e.slab[slot]
	if ev.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.at
	e.executed++
	fn, tgt, op, a, b := ev.fn, ev.tgt, ev.op, ev.a, ev.b
	*ev = payload{}
	e.free = append(e.free, slot)
	// Dispatch on the union tag.
	if tgt != nil {
		tgt.OnEvent(op, a, b)
	} else {
		fn()
	}
}
