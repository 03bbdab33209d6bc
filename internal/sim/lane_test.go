package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

// laneOracle drives one engine with a seeded mix of every kind of push —
// heap events (At, ScheduleCall), proc wake-ups (scheduleProc via Sleep),
// Line deliveries and Lane.AtCall — and records the (at, seq) of each one
// as it is pushed. A kernel that keeps lanes must still execute them in
// exactly (at, seq) order, whichever lane or heap key they rode.
type laneOracle struct {
	t     *testing.T
	e     *Engine
	r     *Rand
	lines []*Line
	lane  Lane

	pushed   [][2]int64 // (at, seq) of every recorded push, by id
	executed []int      // ids in execution order
	budget   int        // pushes left for events to make
}

// reserve returns the id of a push about to be made; note fills it in.
func (o *laneOracle) reserve() int64 {
	o.pushed = append(o.pushed, [2]int64{})
	return int64(len(o.pushed) - 1)
}

// note records that push id is due at at and took seq.
func (o *laneOracle) note(id int64, at Time, seq uint64) {
	o.pushed[id] = [2]int64{int64(at), int64(seq)}
}

// OnEvent implements Target: log the event, then push a few more.
func (o *laneOracle) OnEvent(op uint32, id, _ int64) {
	if at := Time(o.pushed[id][0]); o.e.now != at {
		o.t.Errorf("event %d ran at %v, scheduled for %v", id, o.e.now, at)
	}
	o.executed = append(o.executed, int(id))
	for n := o.r.Intn(3); n > 0 && o.budget > 0; n-- {
		o.budget--
		o.pushRandom()
	}
}

// pushRandom makes one push of a random kind. Delays are tiny so that
// equal-time ties between lanes and the heap are common.
func (o *laneOracle) pushRandom() {
	e := o.e
	id := o.reserve()
	switch o.r.Intn(6) {
	case 0:
		at := e.now + Time(o.r.Intn(4))
		e.At(at, func() { o.OnEvent(0, id, 0) })
		o.note(id, at, e.seq)
	case 1:
		d := Time(o.r.Intn(3)) // zero delays ride the current-instant lane
		e.ScheduleCall(d, o, 0, id, 0)
		o.note(id, e.now+d, e.seq)
	case 2, 3:
		l := o.lines[o.r.Intn(len(o.lines))]
		if o.r.Intn(16) == 0 {
			// Lowering the latency mid-run makes the next delivery due
			// before the line's tail: it must fall back to the heap.
			l.Latency = Time(o.r.Intn(6))
		}
		at := l.SendCall(int64(o.r.Intn(3)), o, 0, id, 0)
		o.note(id, at, e.seq)
	case 4:
		// Mostly monotone, sometimes earlier than the lane's tail.
		at := e.now + Time(o.r.Intn(3))
		if o.r.Intn(4) == 0 {
			at = e.now + 5
		}
		o.lane.AtCall(at, o, 0, id, 0)
		o.note(id, at, e.seq)
	case 5:
		// A proc that sleeps once: Spawn's start event and the Sleep
		// wake-up (scheduleProc) are both recorded pushes.
		d := Time(o.r.Intn(3))
		e.Spawn("sleeper", func(p *Proc) {
			o.OnEvent(0, id, 0)
			wake := o.reserve()
			o.note(wake, p.Now()+d, e.seq+1) // Sleep takes the next seq
			p.Sleep(d)
			o.OnEvent(0, wake, 0)
		})
		o.note(id, e.now, e.seq)
	}
}

// pending is how many recorded pushes have not run yet.
func (o *laneOracle) pending() int { return len(o.pushed) - len(o.executed) }

func TestPropertyLaneOrderOracle(t *testing.T) {
	f := func(seed uint64) bool {
		e := NewEngine()
		o := &laneOracle{t: t, e: e, r: NewRand(seed), lane: e.NewLane(), budget: 3000}
		for i := 0; i < 4; i++ {
			o.lines = append(o.lines, &Line{E: e, PerOp: Time(i % 2), Rate: 0, Latency: Time(i)})
		}
		for i := 0; i < 24; i++ {
			o.pushRandom()
		}
		for e.Pending() > 0 {
			if o.r.Intn(4) == 0 {
				e.RunUntil(e.now + Time(o.r.Intn(3)))
			} else {
				e.Step()
			}
			if e.Pending() != o.pending() {
				t.Errorf("seed %d: Pending() = %d, want %d", seed, e.Pending(), o.pending())
				return false
			}
			if o.budget > 0 && o.r.Intn(8) == 0 {
				o.budget--
				o.pushRandom() // a push from outside any event
			}
		}
		if len(o.executed) != len(o.pushed) {
			t.Errorf("seed %d: ran %d of %d events", seed, len(o.executed), len(o.pushed))
			return false
		}
		want := make([]int, len(o.pushed))
		for i := range want {
			want[i] = i
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := o.pushed[want[i]], o.pushed[want[j]]
			return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1])
		})
		for i, id := range o.executed {
			if id != want[i] {
				t.Errorf("seed %d: event %d ran at position %d, (at, seq) order puts %d there",
					seed, id, i, want[i])
				return false
			}
		}
		return e.Parked() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
