// Package storage models backend storage devices of an HPC storage server:
// rotational disks (with head position, seek costs and elevator-style
// batching), SSDs, RAM-backed storage, and the "null-aio" mode of PVFS that
// discards data. It also models the kernel write-back cache used when file
// synchronization is disabled ("Sync OFF" in the paper).
//
// The device models are deliberately first-order: the paper's disk-level
// interference is seek amplification caused by interleaved request streams,
// which these models reproduce without simulating real geometry.
package storage

import "repro/internal/sim"

// FileID identifies a local byte stream (a "bstream" in PVFS terms) stored
// on a device. Different applications write different files; a shared MPI
// file still maps to one bstream per server.
type FileID int32

// StreamID tags the logical origin of a request (application/flow); devices
// use it only for statistics.
type StreamID int32

// Request is a single device I/O operation. Done.Complete runs (as a
// simulation event) when the operation completes.
type Request struct {
	File   FileID
	Offset int64
	Size   int64
	Stream StreamID
	Read   bool
	Done   Completer

	seq int64 // submission order, set by the device (elevator aging)
}

// End returns the first byte offset after the request.
func (r *Request) End() int64 { return r.Offset + r.Size }

// Stats are cumulative per-device counters.
type Stats struct {
	Ops   int64
	Bytes int64
	Seeks int64    // head repositionings (HDD only)
	Busy  sim.Time // total time the device was servicing requests
}

// Device is a storage backend accepting asynchronous write/read requests.
type Device interface {
	// Name identifies the device kind ("hdd", "ssd", "ram", "null").
	Name() string
	// Submit enqueues a request; r.Done.Complete(r) fires at completion.
	Submit(r *Request)
	// Queued returns the number of requests waiting to enter service
	// (requests currently in service are excluded).
	Queued() int
	// QueuedBytes returns the bytes of the waiting requests.
	QueuedBytes() int64
	// Stats returns cumulative counters.
	Stats() Stats
}

// Completer receives a request's completion. An owner that outlives its
// requests (a pfs chunk, the write cache) implements it once, so completing
// a request allocates nothing; DoneFunc adapts a closure.
type Completer interface {
	Complete(r *Request)
}

// DoneFunc adapts an ordinary function to a Completer, the way
// http.HandlerFunc adapts one to a Handler.
type DoneFunc func()

// Complete calls f.
func (f DoneFunc) Complete(*Request) { f() }

// complete invokes r.Done if set.
func complete(r *Request) {
	if r.Done != nil {
		r.Done.Complete(r)
	}
}
