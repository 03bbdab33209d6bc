package pfs

import (
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/storage"
)

// chunkMsg is one flow-protocol chunk of a request share. A share's chunks
// live in one slab, srvReqState.chunks, allocated with the share's state
// and dying with it. Each chunk embeds the wire message that carries it
// and the device request that stores it, and is itself the target of its
// CPU-stage event, the completer of its device request and the meta of its
// reply — so the request path allocates per share, never per chunk.
type chunkMsg struct {
	// msg is the chunk on the wire: its payload (write) or a request
	// descriptor (read). msg.Meta points back at the chunk; the metadata
	// rides along for free (headers are negligible next to 64 KiB+
	// payloads).
	msg netsim.Message
	// dev is the chunk's backend operation: its server-local file, offset
	// and size, and whether it is a read.
	dev storage.Request
	st  *srvReqState
}

// chunkMsg event ops (chunkMsg implements sim.Target).
const (
	opProcessed uint32 = iota // through the server CPU: hand to the backend
	opStored                  // null-aio backend: stored (or fetched) at once
)

// OnEvent implements sim.Target for the chunk's CPU and null-aio stages.
func (ck *chunkMsg) OnEvent(op uint32, a, b int64) {
	if op == opProcessed {
		ck.st.srv.store(ck)
		return
	}
	ck.st.srv.stored(ck)
}

// Complete implements storage.Completer: the device (or the write cache)
// finished the chunk's operation.
func (ck *chunkMsg) Complete(*storage.Request) { ck.st.srv.stored(ck) }

// srvReqState tracks one attempt at one client request's share on one
// server. The client creates it with the share's chunks; the server fills
// in its scheduling state (the simulation is single-address-space, so the
// struct plays both the wire-visible request descriptor and the server's
// flow bookkeeping).
type srvReqState struct {
	srv       *Server
	req       *clientReq
	chunks    []chunkMsg // the share's chunk slab, in file order
	remaining int        // chunks not yet stored (write) or returned (read)
	bytes     int64      // total data bytes of this request's share here
	issued    sim.Time   // when the client issued the request
	issueAt   sim.Time   // client clock at issue (unjittered; Span.Issue)
	read      bool       // read request (client-written; Span.Read)

	// Server-side flow scheduling state. A connection delivers the
	// share's chunks in slab order and the flow pulls them in that order,
	// so the chunks readable but not yet pulled from the socket are
	// chunks[taken:readable]: no queue to grow or to clear.
	conn     *netsim.Conn
	readable int // chunks fully arrived at the socket (announced readable)
	taken    int // chunks pulled from the socket into the pipeline
	active   bool
	dead     bool     // killed by a server crash; chunks are discarded
	inflight int      // chunks being processed/stored right now
	arriveAt sim.Time // server clock at arrival (Span.Arrive)
	grantAt  sim.Time // server clock at flow-slot grant (Span.Grant)

	// Client-side retry state (only set on the retrying RPC path). sub is
	// the sub-request this attempt belongs to; cgot counts replies received
	// for this attempt. These fields are written by the client side, the
	// fields above by the server side — the struct is the wire-visible
	// descriptor both sides annotate.
	sub  *subOp
	cgot int
}

// newShare builds the state of one attempt at one share of a request on f:
// the srvReqState and its chunk slab, the share's run carved into
// FlowBufSize chunks. It draws the attempt's jittered queue position.
func (f *File) newShare(req *clientReq, sh Share, read bool) *srvReqState {
	srv := f.servers[sh.SrvPos]
	flow := srv.P.FlowBufSize
	st := &srvReqState{
		srv: srv, req: req, bytes: sh.Size,
		issued: f.fs.jitteredIssue(), issueAt: f.fs.E.Now(), read: read,
		chunks: make([]chunkMsg, chunkCount(sh.Size, flow)),
	}
	st.remaining = len(st.chunks)
	for i := range st.chunks {
		ck := &st.chunks[i]
		o := int64(i) * flow
		ck.st = st
		ck.dev = storage.Request{
			File: f.locals[sh.SrvPos], Offset: sh.Local + o,
			Size: min(flow, sh.Size-o), Read: read,
		}
		wire := ck.dev.Size
		if read {
			wire = reqDescriptorBytes // only the descriptor goes out
		}
		ck.msg = netsim.Message{Size: wire, Meta: ck}
	}
	return st
}

// send transmits the attempt's chunks, in order, on c.
func (st *srvReqState) send(c *netsim.Conn) {
	for i := range st.chunks {
		c.Send(&st.chunks[i].msg)
	}
}

// chunkCount is how many flow-protocol chunks carry size bytes.
func chunkCount(size, flow int64) int { return int((size + flow - 1) / flow) }

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
