package storage

import (
	"testing"

	"repro/internal/sim"
)

// tailNil reports whether the backing array of q past len(q) holds only
// nil. A copy-shift dequeue that leaves its vacated tail slot set keeps the
// dequeued request reachable — and a request embedded in a larger object
// (a pfs chunk slab) pins all of it.
func tailNil(q []*Request) bool {
	for _, r := range q[len(q):cap(q)] {
		if r != nil {
			return false
		}
	}
	return true
}

// stepChecking runs e to completion one event at a time, calling check
// after each event, and returns the number of events.
func stepChecking(t *testing.T, e *sim.Engine, check func(step int)) int {
	t.Helper()
	steps := 0
	for e.Step() {
		steps++
		check(steps)
	}
	return steps
}

func TestHDDDispatchClearsVacatedSlots(t *testing.T) {
	e := sim.NewEngine()
	d := NewHDD(e, HDDParams{SeqBW: 100e6, Seek: sim.Millisecond, MaxRun: 1 << 20})
	for i := 0; i < 24; i++ {
		d.Submit(&Request{File: FileID(i % 3), Offset: int64(i/3) << 18, Size: 256 << 10})
	}
	stepChecking(t, e, func(step int) {
		for f, q := range d.perFile {
			if !tailNil(q) {
				t.Fatalf("step %d: file %d queue keeps a vacated slot", step, f)
			}
		}
	})
	if d.Stats().Ops != 24 {
		t.Fatalf("served %d of 24 requests", d.Stats().Ops)
	}
}

func TestSerialDispatchClearsVacatedSlots(t *testing.T) {
	e := sim.NewEngine()
	d := NewRAM(e, DefaultRAM()).(*serial)
	for i := 0; i < 16; i++ {
		d.Submit(&Request{File: 1, Offset: int64(i) << 18, Size: 256 << 10})
	}
	stepChecking(t, e, func(step int) {
		if !tailNil(d.queue) {
			t.Fatalf("step %d: queue keeps a vacated slot", step)
		}
	})
	if d.Stats().Ops != 16 {
		t.Fatalf("served %d of 16 requests", d.Stats().Ops)
	}
}

// TestCacheClearsVacatedSlots drives writes through a small dirty limit,
// so they both block (admit dequeues) and queue for write-back (flush
// dequeues).
func TestCacheClearsVacatedSlots(t *testing.T) {
	e := sim.NewEngine()
	c, _ := testCache(e, 4<<20)
	acked := 0
	for i := 0; i < 32; i++ {
		c.Write(&Request{File: FileID(i % 2), Offset: int64(i) << 20, Size: 1 << 20,
			Done: DoneFunc(func() { acked++ })})
	}
	if c.BlockedWrites() == 0 {
		t.Fatal("no write blocked: the admit dequeue is not exercised")
	}
	stepChecking(t, e, func(step int) {
		if !tailNil(c.flushQ) || !tailNil(c.blocked) {
			t.Fatalf("step %d: flush or blocked queue keeps a vacated slot", step)
		}
		for _, w := range c.copying[len(c.copying):cap(c.copying)] {
			if w != (pendingAck{}) {
				t.Fatalf("step %d: copy queue keeps a vacated slot", step)
			}
		}
	})
	if acked != 32 || c.Flushed() != 32<<20 {
		t.Fatalf("acked %d, flushed %d", acked, c.Flushed())
	}
}
