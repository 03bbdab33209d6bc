package core

import (
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
)

// The Table I experiment: the microbenchmark and a single-server file
// system colocated on one node, removing the network entirely. Each
// application is one client writing totalBytes contiguously to its own
// file. What remains is the interplay between client-side request
// processing and the device — slow devices amplify interference through
// head seeks, while fast ones hide part of it behind client overhead.

// LocalParams configures the network-free local I/O path.
type LocalParams struct {
	// ClientBW is the client-side request processing rate (request
	// preparation, kernel crossing, PVFS servicing on the same node).
	ClientBW float64
	// ClientPerOp is a fixed per-request client cost.
	ClientPerOp sim.Time
	// ReqSize is the request size the client streams with.
	ReqSize int64
	// QD is the number of requests in flight per client.
	QD int
}

// DefaultLocalParams is calibrated so the Table I baselines land near the
// paper's: HDD 13.4 s, SSD 2.27 s, RAM 1.32 s for 2 GB.
func DefaultLocalParams() LocalParams {
	return LocalParams{
		ClientBW:    1520e6,
		ClientPerOp: 60 * sim.Microsecond,
		ReqSize:     4 << 20,
		QD:          2,
	}
}

// LocalResult is one Table I row.
type LocalResult struct {
	Backend  cluster.BackendKind
	Alone    sim.Time
	Together sim.Time
	Slowdown float64
}

// RunLocal measures, for each backend, one client writing totalBytes alone
// and two clients writing totalBytes each to distinct files concurrently.
func RunLocal(cfg cluster.Config, lp LocalParams, backends []cluster.BackendKind, totalBytes int64) []LocalResult {
	var out []LocalResult
	for _, b := range backends {
		alone := runLocalClients(cfg, lp, b, totalBytes, 1)
		both := runLocalClients(cfg, lp, b, totalBytes, 2)
		out = append(out, LocalResult{
			Backend:  b,
			Alone:    alone,
			Together: both,
			Slowdown: float64(both) / float64(alone),
		})
	}
	return out
}

// runLocalClients runs n colocated clients, each writing totalBytes
// contiguously to its own file, and returns the slowest completion time.
func runLocalClients(cfg cluster.Config, lp LocalParams, b cluster.BackendKind, totalBytes int64, n int) sim.Time {
	e := sim.NewEngine()
	c := cfg
	c.Backend = b
	dev := cluster.NewDevice(e, c)
	var finish sim.Time
	for i := 0; i < n; i++ {
		file := storage.FileID(i + 1)
		prep := &sim.Line{E: e, Rate: lp.ClientBW, PerOp: lp.ClientPerOp}
		e.Spawn("local-client", func(p *sim.Proc) {
			qd := lp.QD
			if qd < 1 {
				qd = 1
			}
			sem := sim.NewSemaphore(qd)
			nReq := int((totalBytes + lp.ReqSize - 1) / lp.ReqSize)
			gate := sim.NewGate(nReq)
			for off := int64(0); off < totalBytes; off += lp.ReqSize {
				size := lp.ReqSize
				if rem := totalBytes - off; rem < size {
					size = rem
				}
				sem.Acquire(p)
				off := off
				prep.Send(size, func() {
					dev.Submit(&storage.Request{
						File: file, Offset: off, Size: size,
						Stream: storage.StreamID(file),
						Done: storage.DoneFunc(func() {
							sem.Release()
							gate.Done(e)
						}),
					})
				})
			}
			gate.Wait(p)
			if t := p.Now(); t > finish {
				finish = t
			}
		})
	}
	e.Run()
	return finish
}
