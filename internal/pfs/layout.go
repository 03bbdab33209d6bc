// Package pfs models a PVFS/OrangeFS-like parallel file system: files are
// striped round-robin across a set of storage servers; clients split logical
// requests into per-server pieces, ship them over per-(client,server) TCP
// connections in flow-buffer-sized chunks (the PVFS flow protocol), and
// servers push the chunks through a Trove-like layer to the backend device,
// either synchronously ("Sync ON": the reply waits for the device),
// write-back through the kernel cache ("Sync OFF"), or discarding data
// ("null-aio").
//
// The deliberate mirror of PVFS's structure matters because the paper's
// central finding — incast-driven unfairness — emerges from Trove having no
// flow control of its own: a slow device stalls the flow buffers, which
// stalls socket reads, which closes TCP windows.
package pfs

// Layout describes round-robin striping over Width servers with a fixed
// stripe size (PVFS "simple_stripe").
//
// Global stripe g lives on server position g mod Width, at server-local
// offset (g/Width)*Stripe: consecutive stripes assigned to a server are
// adjacent in its local stream, so contiguous logical extents are
// contiguous locally — and strided ones leave holes.
type Layout struct {
	Width  int   // number of servers the file is striped over
	Stripe int64 // stripe size in bytes
}

// Run is a contiguous extent in a server-local byte stream.
type Run struct {
	Local int64
	Size  int64
}

// Share is one server's part of a contiguous logical extent. The stripes an
// extent touches on one server are consecutive in its local stream, so the
// whole part is a single Run.
type Share struct {
	SrvPos int // position in the file's server list
	Run
}

// check panics on an invalid layout or extent.
func (l Layout) check(off, size int64) {
	if l.Width <= 0 || l.Stripe <= 0 {
		panic("pfs: invalid layout")
	}
	if off < 0 || size < 0 {
		panic("pfs: negative extent")
	}
}

// stripes returns the first and last global stripe the non-empty extent
// [off, off+size) touches.
func (l Layout) stripes(off, size int64) (first, last int64) {
	return off / l.Stripe, (off + size - 1) / l.Stripe
}

// PerServer maps the extent [off, off+size) to one Share per touched
// server, in server-position order, in closed form: the result holds
// min(Width, stripes touched) shares and nothing else is allocated.
func (l Layout) PerServer(off, size int64) []Share {
	l.check(off, size)
	if size == 0 {
		return nil
	}
	w, s, end := int64(l.Width), l.Stripe, off+size
	g0, g1 := l.stripes(off, size)
	n := min(g1-g0+1, w)
	p0 := g0 % w
	out := make([]Share, 0, n)
	add := func(p int64) {
		first := g0 + (p-p0+w)%w       // the server's first touched stripe
		last := first + (g1-first)/w*w // and its last
		lo := first / w * s            // local start of the first stripe
		hi := last/w*s + s             // local end of the last stripe
		if first == g0 {
			lo += off - g0*s
		}
		if last == g1 {
			hi -= (g1+1)*s - end
		}
		out = append(out, Share{SrvPos: int(p), Run: Run{Local: lo, Size: hi - lo}})
	}
	// The touched positions are the n cyclically consecutive ones from p0:
	// those that wrapped past Width-1 come first in position order.
	for p := int64(0); p < p0+n-w; p++ {
		add(p)
	}
	for p := p0; p < min(p0+n, w); p++ {
		add(p)
	}
	return out
}

// ServersTouched returns how many distinct servers the extent involves —
// the quantity the paper manipulates in the stripe-size and request-size
// experiments (fewer servers per request ⇒ less global synchronization).
func (l Layout) ServersTouched(off, size int64) int {
	l.check(off, size)
	if size == 0 {
		return 0
	}
	g0, g1 := l.stripes(off, size)
	return int(min(g1-g0+1, int64(l.Width)))
}
