package storage

import "repro/internal/sim"

// serial is a position-independent FIFO device: service time is a fixed
// per-op latency plus size/bandwidth, with no locality effects. SSD, RAM and
// the null backend share this mechanism with different parameters.
type serial struct {
	e    *sim.Engine
	name string

	// bw is bytes/second; zero means infinitely fast.
	bw float64
	// opLat is the fixed per-request latency.
	opLat sim.Time
	// randPenalty is added when the request is not contiguous with the
	// previous one on the same file (mild on SSDs, zero elsewhere).
	randPenalty sim.Time

	queue       []*Request
	busy        bool
	cur         *Request // request in service; completes at the next OnEvent
	lastFile    FileID
	lastEnd     int64
	haveLast    bool
	queuedBytes int64
	stats       Stats
}

// OnEvent implements sim.Target: completion of the request in service. The
// device serves one request at a time, so the event needs no payload and
// scheduling it allocates nothing.
func (d *serial) OnEvent(op uint32, a, b int64) {
	r := d.cur
	d.cur = nil
	complete(r)
	d.serveNext()
}

func (d *serial) Name() string       { return d.name }
func (d *serial) Queued() int        { return len(d.queue) }
func (d *serial) QueuedBytes() int64 { return d.queuedBytes }
func (d *serial) Stats() Stats       { return d.stats }

func (d *serial) Submit(r *Request) {
	d.queue = append(d.queue, r)
	d.queuedBytes += r.Size
	if !d.busy {
		d.busy = true
		d.serveNext()
	}
}

func (d *serial) serveNext() {
	if len(d.queue) == 0 {
		d.busy = false
		return
	}
	r := d.queue[0]
	n := copy(d.queue, d.queue[1:])
	d.queue[n] = nil // the vacated tail slot must not pin a served request
	d.queue = d.queue[:n]
	d.queuedBytes -= r.Size

	dur := d.opLat + sim.TransferTime(r.Size, d.bw)
	if d.randPenalty > 0 && (!d.haveLast || r.File != d.lastFile || r.Offset != d.lastEnd) {
		dur += d.randPenalty
		d.stats.Seeks++
	}
	d.lastFile, d.lastEnd, d.haveLast = r.File, r.End(), true
	d.stats.Ops++
	d.stats.Bytes += r.Size
	d.stats.Busy += dur

	d.cur = r
	d.e.ScheduleCall(dur, d, 0, 0, 0)
}

// RAMParams configures the memory-backed device model (tmpfs).
type RAMParams struct {
	BW    float64
	OpLat sim.Time
}

// DefaultRAM approximates the paper's RAM (tmpfs) backend. The raw device
// is a bit faster than Table I's 1.32 s for 2 GB: the remaining time is
// client-side request processing, modeled upstream, which is also what
// keeps the contended slowdown at ~1.6x instead of 2x.
func DefaultRAM() RAMParams {
	return RAMParams{BW: 1920e6, OpLat: 15 * sim.Microsecond}
}

// NewRAM returns a memory-backed device.
func NewRAM(e *sim.Engine, p RAMParams) Device {
	return &serial{e: e, name: "ram", bw: p.BW, opLat: p.OpLat}
}

// NewNull returns the PVFS "null-aio" backend: requests complete after a
// negligible fixed latency and data is discarded.
func NewNull(e *sim.Engine) Device {
	return &serial{e: e, name: "null", bw: 0, opLat: sim.Microsecond}
}
