package storage

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testHDD(e *sim.Engine) *HDD {
	return NewHDD(e, HDDParams{
		SeqBW:      100e6, // 100 MB/s
		Seek:       10 * sim.Millisecond,
		OpOverhead: 0,
		MaxRun:     4 << 20,
	})
}

func TestHDDSequentialNoExtraSeeks(t *testing.T) {
	e := sim.NewEngine()
	d := testHDD(e)
	const n = 64
	const size = 1 << 20
	done := 0
	for i := 0; i < n; i++ {
		d.Submit(&Request{File: 1, Offset: int64(i) * size, Size: size, Done: DoneFunc(func() { done++ })})
	}
	e.Run()
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	if s := d.Stats(); s.Seeks != 1 {
		t.Fatalf("seeks = %d, want 1 (initial positioning only)", s.Seeks)
	}
	// 64 MB at 100 MB/s + one seek.
	want := sim.TransferTime(n*size, 100e6) + 10*sim.Millisecond
	if e.Now() != want {
		t.Fatalf("elapsed = %v, want %v", e.Now(), want)
	}
}

func TestHDDInterleavedStreamsBatch(t *testing.T) {
	// Two files, requests interleaved in submission order. The elevator must
	// serve runs up to MaxRun before switching, so seek count is about
	// totalBytes/MaxRun per stream, not one per request.
	e := sim.NewEngine()
	d := testHDD(e)
	const n = 32
	const size = 1 << 20 // 1 MiB requests, MaxRun = 4 MiB
	for i := 0; i < n; i++ {
		for f := FileID(1); f <= 2; f++ {
			d.Submit(&Request{File: f, Offset: int64(i) * size, Size: size})
		}
	}
	e.Run()
	s := d.Stats()
	// 64 MiB total, 4 MiB runs -> ~16 switches; allow slack but far fewer
	// than the 64 seeks a naive FIFO would pay.
	if s.Seeks < 8 || s.Seeks > 24 {
		t.Fatalf("seeks = %d, want ~16 (batched)", s.Seeks)
	}
}

func TestHDDStridedPaysSeekPerHole(t *testing.T) {
	e := sim.NewEngine()
	d := testHDD(e)
	const n = 16
	const size = 64 << 10
	// Holes between consecutive requests on the same file: every request
	// must pay a seek.
	for i := 0; i < n; i++ {
		d.Submit(&Request{File: 1, Offset: int64(i) * size * 2, Size: size})
	}
	e.Run()
	if s := d.Stats(); s.Seeks != n {
		t.Fatalf("seeks = %d, want %d", s.Seeks, n)
	}
}

func TestHDDContiguousVsInterleavedSlowdown(t *testing.T) {
	// The Table I mechanism: two interleaved contiguous streams should take
	// a bit more than 2x the time of one stream (seek amplification), but
	// far less than the unbatched worst case.
	run := func(two bool) sim.Time {
		e := sim.NewEngine()
		d := testHDD(e)
		const total = 256 << 20
		const req = 4 << 20
		for off := int64(0); off < total; off += req {
			d.Submit(&Request{File: 1, Offset: off, Size: req})
			if two {
				d.Submit(&Request{File: 2, Offset: off, Size: req})
			}
		}
		return e.Run()
	}
	alone := run(false)
	both := run(true)
	slow := float64(both) / float64(alone)
	if slow < 2.0 || slow > 3.2 {
		t.Fatalf("interleaved slowdown = %.2f, want in [2.0, 3.2]", slow)
	}
}

func TestHDDQueueAccounting(t *testing.T) {
	e := sim.NewEngine()
	d := testHDD(e)
	d.Submit(&Request{File: 1, Offset: 0, Size: 100})
	d.Submit(&Request{File: 1, Offset: 100, Size: 200})
	if d.Queued() != 1 || d.QueuedBytes() != 200 {
		// The first request went into service immediately.
		t.Fatalf("queued=%d bytes=%d, want 1/200", d.Queued(), d.QueuedBytes())
	}
	e.Run()
	if d.Queued() != 0 || d.QueuedBytes() != 0 {
		t.Fatalf("queue not drained: %d/%d", d.Queued(), d.QueuedBytes())
	}
	if s := d.Stats(); s.Ops != 2 || s.Bytes != 300 {
		t.Fatalf("stats = %+v", s)
	}
}

// Property: every submitted request completes exactly once, regardless of
// the interleaving pattern, and busy time is positive when work was done.
func TestPropertyHDDCompletesAll(t *testing.T) {
	f := func(plan []struct {
		File uint8
		Off  uint16
		Size uint16
	}) bool {
		e := sim.NewEngine()
		d := testHDD(e)
		want := 0
		got := 0
		for _, p := range plan {
			size := int64(p.Size%1024) + 1
			d.Submit(&Request{
				File:   FileID(p.File % 4),
				Offset: int64(p.Off),
				Size:   size,
				Done:   DoneFunc(func() { got++ }),
			})
			want++
		}
		e.Run()
		return got == want && d.Queued() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultHDDMatchesTableOneAlone(t *testing.T) {
	// One client writing 2 GB contiguously: the paper measured 13.4 s.
	// The raw device (without PVFS overheads) must be in that ballpark.
	e := sim.NewEngine()
	d := NewHDD(e, DefaultHDD())
	const total = 2 << 30
	const req = 4 << 20
	for off := int64(0); off < total; off += req {
		d.Submit(&Request{File: 1, Offset: off, Size: req})
	}
	e.Run()
	sec := e.Now().Seconds()
	if sec < 12 || sec > 16 {
		t.Fatalf("2 GB streaming took %.2fs, want ~13.4s", sec)
	}
}
