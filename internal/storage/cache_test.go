package storage

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testCache(e *sim.Engine, limit int64) (*WriteCache, Device) {
	dev := NewHDD(e, HDDParams{SeqBW: 100e6, Seek: 10 * sim.Millisecond, MaxRun: 4 << 20})
	c := NewWriteCache(e, CacheParams{CopyBW: 1000e6, DirtyLimit: limit, FlushDepth: 2}, dev)
	return c, dev
}

func TestCacheAbsorbsAtMemorySpeed(t *testing.T) {
	e := sim.NewEngine()
	c, _ := testCache(e, 1<<30)
	var ackAt sim.Time
	c.Write(&Request{File: 1, Offset: 0, Size: 100 << 20, Done: DoneFunc(func() { ackAt = e.Now() })})
	e.Run()
	// Ack at memcpy speed (100 MB at 1 GB/s = 100 ms), much sooner than the
	// ~1 s the disk needs.
	if ackAt != sim.TransferTime(100<<20, 1000e6) {
		t.Fatalf("ack at %v, want 100ms", ackAt)
	}
	if c.Flushed() != 100<<20 {
		t.Fatalf("flushed = %d", c.Flushed())
	}
	if c.Dirty() != 0 {
		t.Fatalf("dirty = %d after run", c.Dirty())
	}
}

func TestCacheDirtyLimitBlocksWriters(t *testing.T) {
	e := sim.NewEngine()
	c, _ := testCache(e, 10<<20) // 10 MiB limit
	var acks []sim.Time
	for i := 0; i < 8; i++ {
		off := int64(i) * (5 << 20)
		c.Write(&Request{File: 1, Offset: off, Size: 5 << 20, Done: DoneFunc(func() { acks = append(acks, e.Now()) })})
	}
	e.Run()
	if len(acks) != 8 {
		t.Fatalf("acks = %d", len(acks))
	}
	if c.BlockedWrites() == 0 {
		t.Fatal("expected some writes to hit the dirty limit")
	}
	// Total time is disk-bound, not memcpy-bound: 40 MB at ~100 MB/s >= 400ms.
	if e.Now() < 300*sim.Millisecond {
		t.Fatalf("run finished too fast (%v) for a throttled cache", e.Now())
	}
}

func TestCacheUnlimitedNeverBlocks(t *testing.T) {
	e := sim.NewEngine()
	c, _ := testCache(e, 0) // no limit
	for i := 0; i < 100; i++ {
		c.Write(&Request{File: 1, Offset: int64(i) << 20, Size: 1 << 20})
	}
	e.Run()
	if c.BlockedWrites() != 0 {
		t.Fatalf("blocked = %d, want 0", c.BlockedWrites())
	}
}

func TestCacheOversizedRequestAdmittedWhenEmpty(t *testing.T) {
	e := sim.NewEngine()
	c, _ := testCache(e, 1<<20)
	done := false
	c.Write(&Request{File: 1, Offset: 0, Size: 8 << 20, Done: DoneFunc(func() { done = true })})
	e.Run()
	if !done {
		t.Fatal("oversized request deadlocked")
	}
}

func TestCacheOnDrained(t *testing.T) {
	e := sim.NewEngine()
	c, dev := testCache(e, 1<<30)
	drained := sim.Time(-1)
	c.Write(&Request{File: 1, Offset: 0, Size: 50 << 20})
	c.OnDrained(func() { drained = e.Now() })
	e.Run()
	if drained < 0 {
		t.Fatal("OnDrained never fired")
	}
	if dev.Stats().Bytes != 50<<20 {
		t.Fatalf("device flushed %d bytes", dev.Stats().Bytes)
	}
	// Registering after drain fires immediately.
	again := false
	c.OnDrained(func() { again = true })
	e.Run()
	if !again {
		t.Fatal("OnDrained after drain did not fire")
	}
}

func TestCacheAccountingConservation(t *testing.T) {
	e := sim.NewEngine()
	c, _ := testCache(e, 4<<20)
	var total int64
	r := sim.NewRand(11)
	for i := 0; i < 50; i++ {
		size := r.Int63n(2<<20) + 1
		total += size
		c.Write(&Request{File: FileID(i % 3), Offset: int64(i) << 21, Size: size})
	}
	e.Run()
	if c.Absorbed() != total || c.Flushed() != total {
		t.Fatalf("absorbed=%d flushed=%d want %d", c.Absorbed(), c.Flushed(), total)
	}
	if c.Dirty() != 0 {
		t.Fatalf("dirty = %d", c.Dirty())
	}
}

// Property: for any write plan, every write is acknowledged, dirty returns
// to zero, and flushed equals absorbed equals the sum of sizes.
func TestPropertyCacheConserves(t *testing.T) {
	f := func(sizes []uint16, limitKB uint8) bool {
		e := sim.NewEngine()
		limit := int64(limitKB)*1024 + 4096
		c, _ := testCache(e, limit)
		var want int64
		acked := 0
		for i, s := range sizes {
			size := int64(s) + 1
			want += size
			c.Write(&Request{File: FileID(i % 2), Offset: int64(i) << 20, Size: size,
				Done: DoneFunc(func() { acked++ })})
		}
		e.Run()
		return acked == len(sizes) && c.Dirty() == 0 && c.Absorbed() == want && c.Flushed() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
