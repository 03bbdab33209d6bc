package storage

import (
	"testing"

	"repro/internal/sim"
)

func TestSSDServiceTime(t *testing.T) {
	e := sim.NewEngine()
	d := NewSSD(e, SSDParams{BW: 100e6, OpLat: sim.Millisecond})
	d.Submit(&Request{File: 1, Offset: 0, Size: 100 << 20})
	e.Run()
	want := sim.Millisecond + sim.TransferTime(100<<20, 100e6)
	if e.Now() != want {
		t.Fatalf("elapsed = %v, want %v", e.Now(), want)
	}
}

func TestSSDRandPenaltyOnlyOnDiscontinuity(t *testing.T) {
	e := sim.NewEngine()
	d := NewSSD(e, SSDParams{BW: 100e6, OpLat: 0, RandPenalty: sim.Millisecond})
	// Contiguous pair then a jump.
	d.Submit(&Request{File: 1, Offset: 0, Size: 1000})
	d.Submit(&Request{File: 1, Offset: 1000, Size: 1000})
	d.Submit(&Request{File: 1, Offset: 1 << 20, Size: 1000})
	e.Run()
	if s := d.Stats(); s.Seeks != 2 {
		// First request (cold) and the jump.
		t.Fatalf("discontinuities = %d, want 2", s.Seeks)
	}
}

func TestRAMIsFastAndOrderInsensitive(t *testing.T) {
	e := sim.NewEngine()
	d := NewRAM(e, RAMParams{BW: 1000e6, OpLat: 0})
	for i := 0; i < 10; i++ {
		// Scattered offsets: no penalty for RAM.
		d.Submit(&Request{File: 1, Offset: int64((i * 7919) % 100 << 20), Size: 10 << 20})
	}
	e.Run()
	want := sim.TransferTime(100<<20, 1000e6)
	if e.Now() != want {
		t.Fatalf("elapsed = %v, want %v", e.Now(), want)
	}
	if d.Stats().Seeks != 0 {
		t.Fatalf("RAM counted seeks: %d", d.Stats().Seeks)
	}
}

func TestNullCompletesAlmostInstantly(t *testing.T) {
	e := sim.NewEngine()
	d := NewNull(e)
	n := 0
	for i := 0; i < 100; i++ {
		d.Submit(&Request{File: 1, Offset: int64(i), Size: 1 << 30, Done: DoneFunc(func() { n++ })})
	}
	e.Run()
	if n != 100 {
		t.Fatalf("completions = %d", n)
	}
	if e.Now() > sim.Millisecond {
		t.Fatalf("null backend took %v for 100 ops", e.Now())
	}
}

func TestSerialFIFOOrder(t *testing.T) {
	e := sim.NewEngine()
	d := NewSSD(e, DefaultSSD())
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		d.Submit(&Request{File: 1, Offset: int64(i * 100), Size: 100, Done: DoneFunc(func() { order = append(order, i) })})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("out of order completions: %v", order)
		}
	}
}

func TestDefaultSSDRAMTableOneAlone(t *testing.T) {
	// Table I: SSD 2 GB alone = 2.27 s, RAM = 1.32 s. Raw devices should be
	// close (the remaining gap is PVFS/client overhead added upstream).
	run := func(mk func(*sim.Engine) Device) float64 {
		e := sim.NewEngine()
		d := mk(e)
		const total = 2 << 30
		const req = 4 << 20
		for off := int64(0); off < total; off += req {
			d.Submit(&Request{File: 1, Offset: off, Size: req})
		}
		e.Run()
		return e.Now().Seconds()
	}
	ssdSec := run(func(e *sim.Engine) Device { return NewSSD(e, DefaultSSD()) })
	if ssdSec < 1.8 || ssdSec > 2.8 {
		t.Fatalf("SSD 2GB = %.2fs, want ~2.27s", ssdSec)
	}
	ramSec := run(func(e *sim.Engine) Device { return NewRAM(e, DefaultRAM()) })
	if ramSec < 1.0 || ramSec > 1.7 {
		t.Fatalf("RAM 2GB = %.2fs, want ~1.32s", ramSec)
	}
}
