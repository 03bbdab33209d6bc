package storage

import "repro/internal/sim"

// HDDParams configures the rotational disk model.
type HDDParams struct {
	// SeqBW is the streaming (sequential) bandwidth in bytes/second.
	SeqBW float64
	// Seek is the cost of repositioning the head (seek + rotational delay).
	Seek sim.Time
	// OpOverhead is a fixed per-request controller/dispatch cost.
	OpOverhead sim.Time
	// MaxRun bounds how many contiguous bytes are served from one file
	// while other files have queued work (elevator fairness). Zero means
	// unlimited (a stream with queued contiguous work is never preempted).
	MaxRun int64
}

// DefaultHDD approximates the parasilo cluster disks from the paper:
// 2 GB written alone in 13.4 s = ~150 MB/s streaming.
func DefaultHDD() HDDParams {
	return HDDParams{
		SeqBW:      155e6,
		Seek:       6500 * sim.Microsecond,
		OpOverhead: 150 * sim.Microsecond,
		MaxRun:     4 << 20,
	}
}

// HDD models a rotational disk: requests contiguous with the current head
// position stream at SeqBW; any other request first pays Seek. The queue is
// served with elevator-style batching: the disk keeps serving contiguous
// runs from the current file up to MaxRun bytes while other files wait,
// which is how OS schedulers amortize seeks between interleaved streams.
type HDD struct {
	E *sim.Engine
	P HDDParams

	// perFile holds FIFO queues of pending requests, keyed by file.
	perFile map[FileID][]*Request
	// files lists FileIDs with queued work, in first-seen order
	// (deterministic iteration).
	files []FileID

	busy     bool
	cur      *Request // request in service; completes at the next OnEvent
	headFile FileID
	headOff  int64
	headSet  bool
	runBytes int64

	queued      int
	queuedBytes int64
	seq         int64 // submission counter for aging
	stats       Stats
}

// NewHDD returns an idle disk.
func NewHDD(e *sim.Engine, p HDDParams) *HDD {
	return &HDD{E: e, P: p, perFile: make(map[FileID][]*Request)}
}

// Name implements Device.
func (d *HDD) Name() string { return "hdd" }

// Queued implements Device.
func (d *HDD) Queued() int { return d.queued }

// QueuedBytes implements Device.
func (d *HDD) QueuedBytes() int64 { return d.queuedBytes }

// Stats implements Device.
func (d *HDD) Stats() Stats { return d.stats }

// Submit implements Device.
func (d *HDD) Submit(r *Request) {
	d.seq++
	r.seq = d.seq
	q, ok := d.perFile[r.File]
	if !ok {
		d.files = append(d.files, r.File)
	}
	d.perFile[r.File] = append(q, r)
	d.queued++
	d.queuedBytes += r.Size
	if !d.busy {
		d.busy = true
		d.serveNext()
	}
}

// pick chooses the next request under the elevator policy and reports
// whether serving it requires a seek.
func (d *HDD) pick() (*Request, bool) {
	if d.queued == 0 {
		return nil, false
	}
	// Continuation of the current run?
	if d.headSet {
		if q := d.perFile[d.headFile]; len(q) > 0 && q[0].Offset == d.headOff {
			exhausted := d.P.MaxRun > 0 && d.runBytes >= d.P.MaxRun
			if !exhausted || !d.otherFileQueued(d.headFile) {
				return q[0], false
			}
		}
	}
	// Switch: serve the file whose head request has waited longest
	// (deadline-style aging, like the kernel's deadline/CFQ schedulers).
	// Choosing by queue size instead would starve a draining stream's tail
	// behind a newly arrived bulk stream.
	var best FileID
	bestSeq := int64(-1)
	for _, f := range d.files {
		q := d.perFile[f]
		if len(q) == 0 {
			continue
		}
		if bestSeq < 0 || q[0].seq < bestSeq {
			best, bestSeq = f, q[0].seq
		}
	}
	r := d.perFile[best][0]
	// A "seek" is any discontinuity, including holes within the same file.
	seek := !d.headSet || r.File != d.headFile || r.Offset != d.headOff
	return r, seek
}

func (d *HDD) otherFileQueued(f FileID) bool {
	for _, g := range d.files {
		if g != f && len(d.perFile[g]) > 0 {
			return true
		}
	}
	return false
}

func (d *HDD) serveNext() {
	r, seek := d.pick()
	if r == nil {
		d.busy = false
		return
	}
	// Dequeue r.
	q := d.perFile[r.File]
	n := copy(q, q[1:])
	q[n] = nil // the vacated tail slot must not pin a served request
	d.perFile[r.File] = q[:n]
	d.queued--
	d.queuedBytes -= r.Size

	dur := d.P.OpOverhead + sim.TransferTime(r.Size, d.P.SeqBW)
	if seek {
		dur += d.P.Seek
		d.stats.Seeks++
		d.runBytes = 0
	}
	d.stats.Ops++
	d.stats.Bytes += r.Size
	d.stats.Busy += dur
	d.headFile = r.File
	d.headOff = r.End()
	d.headSet = true
	d.runBytes += r.Size

	d.cur = r
	d.E.ScheduleCall(dur, d, 0, 0, 0)
}

// OnEvent implements sim.Target: completion of the request in service. The
// disk serves one request at a time, so the event needs no payload and
// scheduling it allocates nothing.
func (d *HDD) OnEvent(op uint32, a, b int64) {
	r := d.cur
	d.cur = nil
	complete(r)
	d.serveNext()
}
