package pfs

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Client is one application process using the file system. Clients on the
// same node share that node's Host (and therefore its NIC) — the paper's
// network-interface contention point.
type Client struct {
	ID   int
	App  int // application tag (0 or 1 in two-application experiments)
	Rank int // rank within the application (set by the experiment layer)
	Host *netsim.Host

	fs       *FileSystem
	conns    map[int]*netsim.Conn // server ID -> connection
	inflight int32                // outstanding requests (observed queue depth)
}

// NewClient registers a client process running on host for application app.
func (fs *FileSystem) NewClient(host *netsim.Host, app int) *Client {
	fs.nextClient++
	return &Client{
		ID:    fs.nextClient,
		App:   app,
		Host:  host,
		fs:    fs,
		conns: make(map[int]*netsim.Conn),
	}
}

// ConnTo returns (dialing lazily) the connection to srv. PVFS keeps one
// BMI/TCP connection per client-server pair; so do we — the connection
// count is the incast fan-in. Probes use it to attach window traces before
// a run.
func (cl *Client) ConnTo(srv *Server) *netsim.Conn {
	if c, ok := cl.conns[srv.ID]; ok {
		return c
	}
	c := cl.fs.Fabric.Dial(cl.Host, srv.Host, cl.App)
	c.OnReadable = srv.onReadable
	c.OnReply = func(meta interface{}) {
		st := meta.(*chunkMsg).st
		if st.sub != nil {
			st.sub.reply(st)
			return
		}
		st.req.replied()
	}
	cl.conns[srv.ID] = c
	return c
}

// Conns returns the client's dialed connections (for probes).
func (cl *Client) Conns() map[int]*netsim.Conn { return cl.conns }

// WriteAsync issues a write of [off, off+size) on f and calls onDone when
// every involved server has acknowledged. It is the building block for
// pipelined request streams.
func (cl *Client) WriteAsync(f *File, off, size int64, onDone func()) {
	cl.ioAsync(f, off, size, false, onDone)
}

// ReadAsync issues a read of [off, off+size) on f; onDone fires when all
// data chunks have been returned. (Read workloads are the paper's stated
// future work; the path mirrors writes with data on the reply direction.)
func (cl *Client) ReadAsync(f *File, off, size int64, onDone func()) {
	cl.ioAsync(f, off, size, true, onDone)
}

// Outstanding returns the client's in-flight request count (observed queue
// depth, the QD field of its trace records).
func (cl *Client) Outstanding() int { return int(cl.inflight) }

func (cl *Client) ioAsync(f *File, off, size int64, read bool, onDone func()) {
	shares := f.layout.PerServer(off, size)
	if len(shares) == 0 {
		cl.fs.E.Schedule(0, onDone)
		return
	}
	req := cl.begin(f, off, size, read, shares)
	req.onDone = onDone
	// Writes: one reply per server. Reads: one reply per chunk (each reply
	// carries a chunk of data).
	if read {
		for _, sh := range shares {
			req.remaining += chunkCount(sh.Size, f.servers[sh.SrvPos].P.FlowBufSize)
		}
	} else {
		req.remaining = len(shares)
	}
	for _, sh := range shares {
		conn := cl.ConnTo(f.servers[sh.SrvPos])
		f.newShare(req, sh, read).send(conn)
	}
}

// begin opens a request that has at least one share: it counts toward the
// client's outstanding depth and, when a trace sink is attached, opens the
// request's record.
func (cl *Client) begin(f *File, off, size int64, read bool, shares []Share) *clientReq {
	req := &clientReq{cl: cl, recIdx: -1}
	cl.inflight++
	if s := cl.fs.Sink; s != nil {
		srv := int32(-1)
		if len(shares) == 1 {
			srv = int32(f.servers[shares[0].SrvPos].ID)
		}
		op := OpWrite
		if read {
			op = OpRead
		}
		req.recIdx = s.BeginRequest(IORecord{
			Time: cl.fs.E.Now(), Off: off, Bytes: size,
			App: int32(cl.App), Rank: int32(cl.Rank), Server: srv,
			QD: cl.inflight, Op: op,
		})
	}
	return req
}

// reqDescriptorBytes is the wire size of a read request descriptor.
const reqDescriptorBytes = 128

// Write performs a blocking write from within a simulated process.
func (cl *Client) Write(p *sim.Proc, f *File, off, size int64) {
	var done sim.Signal
	cl.WriteAsync(f, off, size, func() { done.Fire(cl.fs.E) })
	p.Await(&done)
}

// Read performs a blocking read from within a simulated process.
func (cl *Client) Read(p *sim.Proc, f *File, off, size int64) {
	var done sim.Signal
	cl.ReadAsync(f, off, size, func() { done.Fire(cl.fs.E) })
	p.Await(&done)
}
