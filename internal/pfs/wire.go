package pfs

import (
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/storage"
)

// chunkMsg is the wire metadata of one flow-protocol chunk of a write
// request. The chunk's payload size is the Message size; the metadata rides
// along for free (headers are negligible next to 64 KiB+ payloads).
type chunkMsg struct {
	req      *clientReq
	srvState *srvReqState
	fileID   storage.FileID
	local    int64
	size     int64
	read     bool // read request descriptor instead of write payload
}

// srvReqState tracks one client request's share on one server. The client
// creates it with the chunk count; the server fills in its scheduling state
// (the simulation is single-address-space, so the struct plays both the
// wire-visible request descriptor and the server's flow bookkeeping).
type srvReqState struct {
	remaining int      // chunks not yet stored (write) or returned (read)
	bytes     int64    // total data bytes of this request's share here
	issued    sim.Time // when the client issued the request
	issueAt   sim.Time // client clock at issue (unjittered; Span.Issue)
	read      bool     // read request (client-written; Span.Read)

	// Server-side flow scheduling state.
	conn     *netsim.Conn
	arrived  bool
	active   bool
	dead     bool              // killed by a server crash; chunks are discarded
	inflight int               // chunks being processed/stored right now
	arriveAt sim.Time          // server clock at arrival (Span.Arrive)
	grantAt  sim.Time          // server clock at flow-slot grant (Span.Grant)
	pending  []*netsim.Message // readable chunks not yet pulled from the socket

	// Client-side retry state (only set on the retrying RPC path). sub is
	// the sub-request this attempt belongs to; cgot counts replies received
	// for this attempt. These fields are written by the client side, the
	// fields above by the server side — the struct is the wire-visible
	// descriptor both sides annotate.
	sub  *subOp
	cgot int
}

// replyMsg is the server's completion notification for one request (write)
// or one chunk of data (read). st identifies which attempt the reply
// answers — the retry layer uses it to route and to ignore replies to
// requests it already gave up on.
type replyMsg struct {
	req *clientReq
	st  *srvReqState
}

// clientReq is the client-side handle of an in-flight request. cl and
// recIdx tie the completion back to the issuing client's outstanding count
// and, when a trace sink is attached, to the request's trace record (recIdx
// is -1 when recording is off; cl is nil only for degenerate zero-extent
// requests that never reach a server).
//
// Exactly one of onDone/onErr is set: onDone on the legacy path (remaining
// counts replies), onErr on the retrying RPC path (remaining counts
// sub-requests; err carries ErrUnavailable if any of them failed).
type clientReq struct {
	remaining int // replies (legacy) or sub-requests (retry) still expected
	onDone    func()
	onErr     func(error)
	cl        *Client
	recIdx    int
	err       error
	subs      []subOp
}

func (r *clientReq) replied() {
	r.remaining--
	if r.remaining != 0 {
		return
	}
	r.finish()
	if r.onDone != nil {
		r.onDone()
	}
}

// subDone accounts one finished (completed or failed) sub-request of a
// retrying request.
func (r *clientReq) subDone() {
	r.remaining--
	if r.remaining != 0 {
		return
	}
	r.finish()
	if r.onErr != nil {
		r.onErr(r.err)
	}
}

func (r *clientReq) finish() {
	if r.cl == nil {
		return
	}
	r.cl.inflight--
	if s := r.cl.fs.Sink; s != nil && r.recIdx >= 0 {
		s.EndRequest(r.recIdx)
	}
}
