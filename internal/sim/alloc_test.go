package sim

import "testing"

// These tests pin the kernel's zero-allocation invariants: once the event
// heap and waiter rings have reached steady-state capacity, executing
// events — closures, Target calls, and the whole Sleep/wake proc path —
// allocates nothing. The figure campaigns replay millions of these events,
// so a regression here is a performance bug even though nothing breaks
// functionally; testing.AllocsPerRun catches it deterministically where a
// benchmark's B/op would only drift.

func TestEventLoopZeroAlloc(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Prime the heap slice so steady state starts with capacity.
	e.Schedule(0, fn)
	e.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(Microsecond, fn)
		e.Run()
	}); avg != 0 {
		t.Errorf("event loop allocates %.1f objects per schedule+run, want 0", avg)
	}
}

type countTarget struct{ n int64 }

func (c *countTarget) OnEvent(op uint32, a, b int64) { c.n += a }

func TestScheduleCallZeroAlloc(t *testing.T) {
	e := NewEngine()
	tgt := &countTarget{}
	e.ScheduleCall(0, tgt, 0, 1, 0)
	e.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleCall(Microsecond, tgt, 0, 1, 0)
		e.Run()
	}); avg != 0 {
		t.Errorf("ScheduleCall path allocates %.1f objects per event, want 0", avg)
	}
	if tgt.n != 1001+1 { // warmup run + 1000 measured + priming call
		t.Fatalf("target ran %d times", tgt.n)
	}
}

func TestLineSendCallZeroAlloc(t *testing.T) {
	e := NewEngine()
	l := NewLine(e, 1e9)
	tgt := &countTarget{}
	l.SendCall(1<<10, tgt, 0, 1, 0)
	e.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		l.SendCall(1<<10, tgt, 0, 1, 0)
		e.Run()
	}); avg != 0 {
		t.Errorf("Line.SendCall path allocates %.1f objects per transfer, want 0", avg)
	}
}

// TestSleepWakeZeroAlloc drives one proc through a full park/wake/sleep
// cycle per iteration: Semaphore.Release dequeues it from the waiter ring,
// the resume event rides the heap's *Proc arm, the proc sleeps once and
// parks again on Acquire. None of it may allocate.
func TestSleepWakeZeroAlloc(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(0)
	stop := false
	e.Spawn("sleeper", func(p *Proc) {
		for !stop {
			s.Acquire(p)
			p.Sleep(Microsecond)
		}
	})
	e.Run() // proc is now parked on Acquire; ring and heap are primed

	if avg := testing.AllocsPerRun(1000, func() {
		s.Release()
		e.Run()
	}); avg != 0 {
		t.Errorf("Sleep/wake cycle allocates %.1f objects, want 0", avg)
	}

	stop = true
	s.Release()
	e.Run()
	if e.Parked() != 0 || e.ProcsFinished() != 1 {
		t.Fatalf("proc did not finish cleanly: parked=%d finished=%d", e.Parked(), e.ProcsFinished())
	}
}

// TestWaitqFIFO exercises the ring buffer across wraparound and growth.
func TestWaitqFIFO(t *testing.T) {
	var q waitq
	mk := func(i int) *Proc { return &Proc{name: string(rune('a' + i))} }
	procs := make([]*Proc, 40)
	for i := range procs {
		procs[i] = mk(i)
	}
	// Interleave pushes and pops so head wraps several times while the
	// ring grows from 8 to 32.
	next := 0
	for i := 0; i < len(procs); i++ {
		q.push(procs[i])
		if i%3 == 2 {
			if got := q.pop(); got != procs[next] {
				t.Fatalf("pop %d: got %q want %q", next, got.name, procs[next].name)
			}
			next++
		}
	}
	for q.len() > 0 {
		if got := q.pop(); got != procs[next] {
			t.Fatalf("drain pop %d: got %q want %q", next, got.name, procs[next].name)
		}
		next++
	}
	if next != len(procs) {
		t.Fatalf("popped %d procs, want %d", next, len(procs))
	}
}

// rescheduler re-arms itself on every event with a pseudo-random delay, so
// the queue depth stays fixed while keys land all over the heap.
type rescheduler struct {
	e     *Engine
	state uint64
}

func (r *rescheduler) OnEvent(op uint32, a, b int64) {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	r.e.ScheduleCall(Time(r.state>>54), r, 0, 0, 0)
}

// TestHeapChurnZeroAlloc pins steady-state push/pop at a fixed depth of
// 1024 pending events: the key heap, the payload slab and its free list
// are all reused, so nothing allocates.
func TestHeapChurnZeroAlloc(t *testing.T) {
	e := NewEngine()
	r := &rescheduler{e: e, state: 1}
	for i := 0; i < 1024; i++ {
		r.OnEvent(0, 0, 0)
	}
	for i := 0; i < 4096; i++ { // warm up: slab and free list reach capacity
		e.Step()
	}
	if avg := testing.AllocsPerRun(10000, func() { e.Step() }); avg != 0 {
		t.Errorf("push/pop at depth 1024 allocates %.2f objects per event, want 0", avg)
	}
	if e.Pending() != 1024 {
		t.Fatalf("pending = %d, want 1024", e.Pending())
	}
}
