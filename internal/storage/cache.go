package storage

import "repro/internal/sim"

// CacheParams configures the kernel write-back cache model used when file
// synchronization is disabled ("Sync OFF"): writes complete once copied to
// memory, and a background flusher pushes dirty data to the device.
type CacheParams struct {
	// CopyBW is the rate at which writes are absorbed into memory.
	CopyBW float64
	// DirtyLimit is the maximum dirty bytes; writers exceeding it block
	// until flushing makes room (the kernel's dirty throttling).
	DirtyLimit int64
	// FlushDepth is the number of concurrent flush requests submitted to
	// the backing device.
	FlushDepth int
}

// DefaultCache sizes the cache like the paper's servers (128 GB nodes;
// the usual dirty_ratio keeps ~10-20% of RAM dirty).
func DefaultCache() CacheParams {
	return CacheParams{CopyBW: 2200e6, DirtyLimit: 16 << 30, FlushDepth: 4}
}

// WriteCache absorbs writes at memory speed, acknowledges them, and flushes
// to the backing device in the background. When the dirty limit is reached,
// incoming writes block — this back-pressure is what couples a slow disk to
// the network even with synchronization off.
//
// The cache takes ownership of every request written to it. An admitted
// request is acknowledged through the completer it arrived with once its
// copy into memory completes; the same Request is also queued for
// write-back to Dev, with the cache as its completer. No stage allocates
// per write.
type WriteCache struct {
	E   *sim.Engine
	P   CacheParams
	Dev Device

	copyLine *sim.Line
	// copying holds the admitted writes whose copy is on copyLine, in
	// admission order, with the completer each arrived with. The line is
	// FIFO, so every copy-done event completes the head.
	copying  []pendingAck
	dirty    int64
	flushQ   []*Request
	inFlight int
	blocked  []*Request

	absorbed     int64
	flushed      int64
	blockedCount int64
	drainFns     []func()
}

// pendingAck is an admitted write awaiting its copy-done acknowledgement.
type pendingAck struct {
	r    *Request
	done Completer
}

// NewWriteCache returns a cache flushing to dev.
func NewWriteCache(e *sim.Engine, p CacheParams, dev Device) *WriteCache {
	if p.FlushDepth <= 0 {
		p.FlushDepth = 1
	}
	return &WriteCache{E: e, P: p, Dev: dev, copyLine: sim.NewLine(e, p.CopyBW)}
}

// Dirty returns the current dirty byte count (absorbed but not flushed).
func (c *WriteCache) Dirty() int64 { return c.dirty }

// Absorbed returns cumulative bytes accepted into the cache.
func (c *WriteCache) Absorbed() int64 { return c.absorbed }

// Flushed returns cumulative bytes written back to the device.
func (c *WriteCache) Flushed() int64 { return c.flushed }

// BlockedWrites returns how many writes had to wait for dirty-limit room.
func (c *WriteCache) BlockedWrites() int64 { return c.blockedCount }

// Write absorbs r; r.Done.Complete(r) fires when the copy into memory
// completes. If the dirty limit is exceeded the write waits (FIFO) for
// flushing to make room. r must not be reused: the cache writes it back.
func (c *WriteCache) Write(r *Request) {
	if c.hasRoom(r) && len(c.blocked) == 0 {
		c.admit(r)
		return
	}
	c.blockedCount++
	c.blocked = append(c.blocked, r)
}

// hasRoom reports whether r fits under the dirty limit. A request larger
// than the whole limit is admitted only when the cache is empty, so it can
// never deadlock.
func (c *WriteCache) hasRoom(r *Request) bool {
	if c.P.DirtyLimit <= 0 {
		return true
	}
	if r.Size >= c.P.DirtyLimit {
		return c.dirty == 0
	}
	return c.dirty+r.Size <= c.P.DirtyLimit
}

func (c *WriteCache) admit(r *Request) {
	c.dirty += r.Size
	c.absorbed += r.Size
	c.copying = append(c.copying, pendingAck{r: r, done: r.Done})
	c.copyLine.SendCall(r.Size, c, 0, 0, 0)
	// Queue the extent for background flushing; from here on the request's
	// completion belongs to the cache.
	r.Done = c
	c.flushQ = append(c.flushQ, r)
	c.kickFlusher()
}

// OnEvent implements sim.Target: the head admitted write's copy into
// memory completed, so it is acknowledged.
func (c *WriteCache) OnEvent(op uint32, a, b int64) {
	w := c.copying[0]
	n := copy(c.copying, c.copying[1:])
	c.copying[n] = pendingAck{}
	c.copying = c.copying[:n]
	if w.done != nil {
		w.done.Complete(w.r)
	}
}

// Complete implements Completer: a write-back of r to Dev completed.
func (c *WriteCache) Complete(r *Request) {
	c.inFlight--
	c.dirty -= r.Size
	c.flushed += r.Size
	c.admitBlocked()
	c.kickFlusher()
	c.checkDrained()
}

func (c *WriteCache) kickFlusher() {
	for c.inFlight < c.P.FlushDepth && len(c.flushQ) > 0 {
		fr := c.flushQ[0]
		n := copy(c.flushQ, c.flushQ[1:])
		c.flushQ[n] = nil // the vacated tail slot must not pin a flushed request
		c.flushQ = c.flushQ[:n]
		c.inFlight++
		c.Dev.Submit(fr)
	}
}

func (c *WriteCache) admitBlocked() {
	for len(c.blocked) > 0 && c.hasRoom(c.blocked[0]) {
		r := c.blocked[0]
		n := copy(c.blocked, c.blocked[1:])
		c.blocked[n] = nil // the vacated tail slot must not pin an admitted request
		c.blocked = c.blocked[:n]
		c.admit(r)
	}
}

// OnDrained registers fn to run once everything absorbed so far has been
// flushed to the device (used by tests and fsync-like semantics).
func (c *WriteCache) OnDrained(fn func()) {
	if c.dirty == 0 && len(c.flushQ) == 0 && c.inFlight == 0 && len(c.blocked) == 0 {
		c.E.Schedule(0, fn)
		return
	}
	c.drainFns = append(c.drainFns, fn)
}

func (c *WriteCache) checkDrained() {
	if c.dirty != 0 || len(c.flushQ) != 0 || c.inFlight != 0 || len(c.blocked) != 0 {
		return
	}
	fns := c.drainFns
	c.drainFns = nil
	for _, fn := range fns {
		c.E.Schedule(0, fn)
	}
}
