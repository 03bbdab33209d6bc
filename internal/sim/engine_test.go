package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %v, want 30", e.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.Schedule(10, func() {
		trace = append(trace, e.Now())
		e.Schedule(5, func() { trace = append(trace, e.Now()) })
		e.Schedule(0, func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	want := []Time{10, 10, 15}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace[%d] = %v, want %v", i, trace[i], want[i])
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want 2 events", fired)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	if e.Now() != 20 {
		t.Fatalf("now = %v, want 20 (time of last executed event)", e.Now())
	}
	e.Run()
	if len(fired) != 4 || e.Now() != 40 {
		t.Fatalf("after Run: fired=%v now=%v", fired, e.Now())
	}
}

func TestStep(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(1, func() { n++ })
	e.Schedule(2, func() { n++ })
	if !e.Step() || n != 1 {
		t.Fatalf("first step: n=%d", n)
	}
	if !e.Step() || n != 2 {
		t.Fatalf("second step: n=%d", n)
	}
	if e.Step() {
		t.Fatal("step on empty queue returned true")
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling into the past")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestExecutedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 17; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Executed() != 17 {
		t.Fatalf("executed = %d, want 17", e.Executed())
	}
}

// Property: for any set of delays, events run in nondecreasing time order
// and the engine clock matches each event's scheduled time.
func TestPropertyTimeMonotonic(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var seen []Time
		for _, d := range delays {
			d := Time(d)
			e.Schedule(d, func() {
				if e.Now() != d {
					t.Errorf("clock %v != scheduled %v", e.Now(), d)
				}
				seen = append(seen, e.Now())
			})
		}
		e.Run()
		if len(seen) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i] < seen[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RunUntil never executes events past the deadline and leaves the
// remainder intact.
func TestPropertyRunUntilBoundary(t *testing.T) {
	f := func(delays []uint16, deadline uint16) bool {
		e := NewEngine()
		ran := 0
		expect := 0
		for _, d := range delays {
			if Time(d) <= Time(deadline) {
				expect++
			}
			e.Schedule(Time(d), func() { ran++ })
		}
		e.RunUntil(Time(deadline))
		return ran == expect && e.Pending() == len(delays)-expect
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEqualTimeOrderIgnoresSlots pins that ties are broken by scheduling
// order, not by slab slot. Draining earlier events frees their slots out of
// order; the equal-time events pushed afterwards reuse those slots in a
// different order than they were pushed, and must still run FIFO.
func TestEqualTimeOrderIgnoresSlots(t *testing.T) {
	e := NewEngine()
	for _, d := range []Time{30, 10, 20, 5, 25} {
		e.Schedule(d, func() {})
	}
	e.RunUntil(20) // pops 5, 10, 20: frees slots 3, 1, 2
	var got []int
	for i := 0; i < 8; i++ {
		i := i
		e.Schedule(2, func() { got = append(got, i) }) // all due at 22
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events ran out of push order: %v", got)
		}
	}
	if len(got) != 8 {
		t.Fatalf("ran %d of 8 equal-time events", len(got))
	}
}

// TestPropertyTiesFIFOUnderChurn interleaves random pushes and pops and
// checks that every executed event is later in (at, push order) than the
// one before it.
func TestPropertyTiesFIFOUnderChurn(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		e := NewEngine()
		pushed := 0
		lastAt, lastID := Time(-1), -1
		ok := true
		var schedule func()
		schedule = func() {
			id := pushed
			pushed++
			at := e.Now() + Time(r.Intn(4))
			e.At(at, func() {
				if at < lastAt || (at == lastAt && id < lastID) {
					ok = false
				}
				lastAt, lastID = at, id
				for n := r.Intn(3); n > 0 && pushed < 2000; n-- {
					schedule()
				}
			})
		}
		for i := 0; i < 16; i++ {
			schedule()
		}
		e.Run()
		return ok && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPoppedSlotsReleaseCallbacks pins that the slab keeps no closure,
// proc or target reachable once its event has run.
func TestPoppedSlotsReleaseCallbacks(t *testing.T) {
	e := NewEngine()
	tgt := &countTarget{}
	for i := 0; i < 8; i++ {
		e.Schedule(Time(i), func() {})
		e.ScheduleCall(Time(i), tgt, 0, 1, 0)
	}
	e.Spawn("p", func(p *Proc) { p.Sleep(3) })
	e.Run()
	for i, ev := range e.slab {
		if ev.fn != nil || ev.p != nil || ev.tgt != nil {
			t.Fatalf("slot %d still references a callback after its event ran", i)
		}
	}
}
