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
type key struct {
	at   Time
	seq  uint64
	slot uint32
}

// payload is an event's callback, a tagged union discriminated by which
// pointer is set:
//
//	p   != nil — resume the parked process p (the Sleep/wake path)
//	tgt != nil — call tgt.OnEvent(op, a, b) (the closure-free callback path)
//	otherwise  — call fn
//
// Every variant is inline — no interface boxing, no allocation on push or
// pop. Procs and Targets are pointers to objects that already exist; only
// the fn variant may carry a freshly allocated closure, and the hot paths
// (proc wake-ups, transport segments, device completions) avoid it.
type payload struct {
	a, b int64
	fn   func()
	p    *Proc
	tgt  Target
	op   uint32
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
	yield   chan struct{} // procs hand control back to the loop on this
	current *Proc         // proc currently holding control, if any

	executed uint64 // events executed so far
	spawned  int    // procs ever spawned
	finished int    // procs that ran to completion
	parked   int    // procs currently blocked awaiting a wake-up
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{yield: make(chan struct{})}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far (a cheap measure of
// simulation work, used by benchmarks).
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.heap) }

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

// push stores ev in a free slab slot and inserts its key.
func (e *Engine) push(at Time, ev payload) {
	var slot uint32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.slab[slot] = ev
	} else {
		slot = uint32(len(e.slab))
		e.slab = append(e.slab, ev)
	}
	e.seq++
	k := key{at: at, seq: e.seq, slot: slot}
	h := append(e.heap, k)
	// Sift up: move parents down into the hole until k fits.
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

// popMin removes the earliest event, frees and zeroes its slot, and returns
// its due time and payload. The queue must not be empty.
func (e *Engine) popMin() (Time, payload) {
	h := e.heap
	min := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.heap = h
	if n > 0 {
		// Sift down: move the smaller child up into the hole until the
		// former last key fits.
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
	ev := e.slab[min.slot]
	e.slab[min.slot] = payload{}
	e.free = append(e.free, min.slot)
	return min.at, ev
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
	e.push(e.now+d, payload{p: p})
}

// dispatch executes one popped event according to its union tag.
func (e *Engine) dispatch(ev payload) {
	switch {
	case ev.p != nil:
		e.handoff(ev.p)
	case ev.tgt != nil:
		ev.tgt.OnEvent(ev.op, ev.a, ev.b)
	default:
		ev.fn()
	}
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
func (e *Engine) step() {
	at, ev := e.popMin()
	if at < e.now {
		panic("sim: time went backwards")
	}
	e.now = at
	e.executed++
	e.dispatch(ev)
}
