package pfs

import (
	"testing"

	"repro/internal/sim"
)

// These tests pin the request path's allocation invariant: a request
// allocates per server share (its share list, client handle, share state
// and chunk slab), never per chunk. A figure run pushes hundreds of
// thousands of chunks through this path, so a per-chunk allocation is a
// performance bug even though nothing breaks functionally.

// requestAllocs returns the steady-state allocations of one request of
// size bytes (one server, so one share), issued and run to completion.
func requestAllocs(t *testing.T, mode SyncMode, read bool, size int64) float64 {
	t.Helper()
	r := buildRig(1, 1, "ram", mode)
	f := r.fs.CreateFile("f", nil, 64<<10)
	cl := r.fs.NewClient(r.cliHost[0], 0)
	done := 0
	onDone := func() { done++ }
	issue := func() {
		if read {
			cl.ReadAsync(f, 0, size, onDone)
		} else {
			cl.WriteAsync(f, 0, size, onDone)
		}
		r.e.Run()
	}
	// Warm up: grow every queue and the event heap to steady capacity.
	for i := 0; i < 4; i++ {
		issue()
	}
	avg := testing.AllocsPerRun(20, issue)
	if done != 4+21 { // warm-up + AllocsPerRun's own warm-up + 20 runs
		t.Fatalf("%d of %d requests completed", done, 4+21)
	}
	return avg
}

func TestRequestAllocsIndependentOfChunkCount(t *testing.T) {
	const chunk = 256 << 10 // DefaultServerParams().FlowBufSize
	for _, c := range []struct {
		name string
		mode SyncMode
		read bool
	}{
		{"write-sync-on", SyncOn, false},
		{"write-sync-off", SyncOff, false},
		{"write-null-aio", NullAIO, false},
		{"read-sync-on", SyncOn, true},
		{"read-null-aio", NullAIO, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			one := requestAllocs(t, c.mode, c.read, chunk)
			many := requestAllocs(t, c.mode, c.read, 256*chunk)
			if one != many {
				t.Errorf("1-chunk request allocates %.0f objects, 256-chunk request %.0f: "+
					"the request path allocates per chunk", one, many)
			}
		})
	}
}

// tailNil reports whether the backing array of q past len(q) holds only
// nil. A copy-shift dequeue that leaves its vacated tail slot set keeps the
// dequeued object reachable; with chunk slabs, one such interior pointer
// pins a whole share.
func tailNil[T any](q []*T) bool {
	for _, x := range q[len(q):cap(q)] {
		if x != nil {
			return false
		}
	}
	return true
}

// TestDequeuesClearVacatedSlots steps a contended deployment one event at
// a time and checks, after every event, that the server's request queues
// hold no stale pointer past their length. (A share's pending chunks need
// no such check: they are the index window chunks[taken:readable] of its
// own slab, not a queue.)
func TestDequeuesClearVacatedSlots(t *testing.T) {
	sp := DefaultServerParams()
	sp.FlowBufs = 1 // requests queue for the single flow slot
	sp.FlowDepth = 2
	r := buildRigParams(2, 4, "hdd", sp)
	f := r.fs.CreateFile("f", nil, 64<<10)
	for i, h := range r.cliHost {
		cl := r.fs.NewClient(h, i)
		off := int64(i) * (8 << 20)
		r.e.Spawn("writer", func(p *sim.Proc) {
			for k := int64(0); k < 3; k++ {
				cl.Write(p, f, off+k*(2<<20), 2<<20)
			}
		})
	}
	steps, queued := 0, 0
	for r.e.Step() {
		steps++
		for _, srv := range r.fs.Servers {
			if len(srv.reqQueue) > 0 {
				queued++
			}
			if !tailNil(srv.reqQueue) || !tailNil(srv.activeReqs) {
				t.Fatalf("step %d: server %d request queue keeps a vacated slot", steps, srv.ID)
			}
		}
	}
	if r.e.Parked() != 0 {
		t.Fatalf("%d writers never finished", r.e.Parked())
	}
	if queued == 0 {
		t.Fatal("no request ever waited for the flow slot: the check saw no dequeue")
	}
}
