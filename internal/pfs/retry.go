package pfs

import (
	"errors"

	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// ErrUnavailable is what the retrying RPC path reports when a request's
// retries against some server are exhausted (deadline expirations beyond
// MaxRetries, or the application's retry budget ran dry). The client then
// stalls and re-issues — see fault.RetryPolicy.Resume and Client.async.
var ErrUnavailable = errors.New("pfs: service unavailable")

// ClientAvail are one application's client-side availability counters:
// request deadline expirations, the resends they triggered, and the
// sub-requests that gave up with ErrUnavailable.
type ClientAvail struct {
	Timeouts int64
	Retries  int64
	Failures int64
}

// subOp event ops (subOp implements sim.Target: op selects deadline fire
// vs. scheduled resend; `a` carries the attempt number so stale events —
// from attempts already answered or superseded — are recognized and
// dropped. Timers are never cancelled, only outlived, which keeps the
// retry machinery allocation-free: arming is a plain engine event with no
// closure).
const (
	opDeadline = iota
	opResend
)

// subOp is one retrying request's share on one server: the unit of
// deadline/retry. The client sends the sub-request's chunks, arms a
// deadline, and on expiry resends everything under a fresh srvReqState with
// capped exponential backoff. Replies are accepted from ANY attempt — a
// slow-but-alive server's late replies still complete the sub-request, so
// an overloaded (not crashed) server cannot livelock the client into
// retrying forever.
type subOp struct {
	req    *clientReq
	cl     *Client
	conn   *netsim.Conn
	f      *File
	share  Share
	read   bool
	expect int // replies that complete one attempt

	st      *srvReqState // current (latest) attempt
	attempt int64
	backoff sim.Time
	done    bool
}

// rp returns the deployment's retry policy (EnableRetry installed it).
func (so *subOp) rp() *fault.RetryPolicy { return so.cl.fs.Retry }

// send transmits one attempt: a fresh wire-visible request state and chunk
// slab (the previous attempt's may be dead at the server), then arms the
// attempt's deadline.
func (so *subOp) send() {
	fs := so.cl.fs
	st := so.f.newShare(so.req, so.share, so.read)
	st.sub = so
	so.st = st
	st.send(so.conn)
	fs.E.AtCall(fs.E.Now()+so.rp().Deadline, so, opDeadline, so.attempt, 0)
}

// reply accounts one reply answering attempt st. Completion is per
// attempt: whichever attempt first accumulates the expected replies wins.
func (so *subOp) reply(st *srvReqState) {
	st.cgot++
	if so.done || st.cgot < so.expect {
		return
	}
	so.done = true
	so.req.subDone()
}

// OnEvent implements sim.Target: deadline expiry and scheduled resends.
func (so *subOp) OnEvent(op uint32, a, b int64) {
	if so.done || a != so.attempt {
		return // stale: answered, or superseded by a newer attempt
	}
	fs := so.cl.fs
	rp := so.rp()
	switch op {
	case opDeadline:
		fs.noteTimeout(so.cl.App)
		if so.attempt >= int64(rp.MaxRetries) || !fs.takeRetry(so.cl.App) {
			so.done = true
			fs.noteFailure(so.cl.App)
			so.req.err = ErrUnavailable
			so.req.subDone()
			return
		}
		so.attempt++
		fs.E.AtCall(fs.E.Now()+so.backoff, so, opResend, so.attempt, 0)
		so.backoff *= 2
		if so.backoff > rp.BackoffMax {
			so.backoff = rp.BackoffMax
		}
	case opResend:
		so.send()
	}
}

// ioRetry is the retrying twin of ioAsync: same striping and chunking, but
// each server's share becomes a subOp with deadline/backoff/retry, and the
// completion callback carries an error (nil, or ErrUnavailable when some
// share exhausted its retries).
func (cl *Client) ioRetry(f *File, off, size int64, read bool, onErr func(error)) {
	shares := f.layout.PerServer(off, size)
	if len(shares) == 0 {
		cl.fs.E.Schedule(0, func() { onErr(nil) })
		return
	}
	req := cl.begin(f, off, size, read, shares)
	req.onErr = onErr
	req.remaining = len(shares) // one subDone per server share
	req.subs = make([]subOp, len(shares))
	rp := cl.fs.Retry
	for i, sh := range shares {
		srv := f.servers[sh.SrvPos]
		expect := 1 // writes: one reply per server share
		if read {
			expect = chunkCount(sh.Size, srv.P.FlowBufSize) // reads: one data reply per chunk
		}
		so := &req.subs[i]
		*so = subOp{
			req: req, cl: cl, conn: cl.ConnTo(srv), f: f, share: sh,
			read: read, expect: expect, backoff: rp.Backoff,
		}
		so.send()
	}
}
