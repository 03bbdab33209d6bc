// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is single-threaded from the simulation's point of view: events
// execute one at a time in (time, insertion) order, and coroutine-style
// processes (Proc) hand control back and forth with the event loop through a
// strict handoff protocol, so simulations are fully deterministic for a given
// seed and input, regardless of GOMAXPROCS.
//
// The package also provides the small set of synchronization and resource
// primitives the rest of the simulator is built from: Signal (one-shot
// broadcast), Gate (countdown latch), Semaphore (counted tokens with FIFO
// waiters), Line (a serialized transmission resource such as a NIC or bus),
// and a deterministic splitmix64 random number generator.
//
// The kernel is engineered for a zero-allocation steady state. Events are
// pointer-free (time, sequence, slot) keys in a hand-specialized min-heap
// whose callbacks live in a reusable per-engine slab, and the hot scheduling
// paths avoid per-event closures: parked processes resume through a Target
// the *Proc converts to for free, and layers whose callback is a fixed
// method on a long-lived object implement Target and use
// ScheduleCall/AtCall (or Line.SendCall), which carry the callback's
// arguments in the event itself.
//
// Most events come from streams that are already in time order, and those
// ride lanes: a Lane is a FIFO of pending events linked through the slab,
// and only its head holds a heap key. The engine routes every event due at
// the current instant through a built-in lane, every Line delivers on a
// lane of its own, and Engine.NewLane serves other monotone streams (the
// network fabric's ACKs and retransmission timers). An event due earlier
// than its lane's tail falls back to a plain heap key, so events always run
// in exactly (time, sequence) order whichever way they were queued.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation. It doubles as a duration; the arithmetic is the same.
type Time int64

// Common durations, mirroring package time but in simulated Time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// MaxTime is the largest representable simulated time.
const MaxTime Time = 1<<63 - 1

// Seconds converts a floating-point number of seconds to a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Millis converts a floating-point number of milliseconds to a Time.
func Millis(ms float64) Time { return Time(ms * float64(Millisecond)) }

// Micros converts a floating-point number of microseconds to a Time.
func Micros(us float64) Time { return Time(us * float64(Microsecond)) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Duration converts t to a time.Duration (both are nanoseconds).
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats t using time.Duration notation ("1.5s", "250ms", ...).
func (t Time) String() string { return time.Duration(t).String() }

// TransferTime returns the time needed to move n bytes at rate bytesPerSec.
// A rate of zero or less means "infinitely fast" and returns 0.
func TransferTime(n int64, bytesPerSec float64) Time {
	if bytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return Time(float64(n) / bytesPerSec * float64(Second))
}

// Rate returns the throughput, in bytes per second, of moving n bytes in d.
// It returns 0 if d is not positive.
func Rate(n int64, d Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// FormatBytes renders a byte count with binary units (KiB, MiB, GiB).
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/float64(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/float64(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/float64(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
