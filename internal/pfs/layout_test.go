package pfs

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Piece is one stripe fragment of a logical extent, in file order.
type Piece struct {
	SrvPos int   // position in the file's server list
	Local  int64 // offset within the server-local byte stream
	Size   int64
}

// Map is the stripe-by-stripe oracle for the closed-form PerServer: it
// splits the logical extent [off, off+size) into stripe pieces in file
// order.
func (l Layout) Map(off, size int64) []Piece {
	l.check(off, size)
	var out []Piece
	for size > 0 {
		g := off / l.Stripe
		in := off % l.Stripe
		n := l.Stripe - in
		if n > size {
			n = size
		}
		out = append(out, Piece{
			SrvPos: int(g % int64(l.Width)),
			Local:  (g/int64(l.Width))*l.Stripe + in,
			Size:   n,
		})
		off += n
		size -= n
	}
	return out
}

// mapAndMerge is the oracle for PerServer: Map the extent, then merge
// contiguous pieces per server. It returns one slice of local runs per
// server position (empty for untouched servers).
func (l Layout) mapAndMerge(off, size int64) [][]Run {
	runs := make([][]Run, l.Width)
	for _, p := range l.Map(off, size) {
		rs := runs[p.SrvPos]
		if n := len(rs); n > 0 && rs[n-1].Local+rs[n-1].Size == p.Local {
			rs[n-1].Size += p.Size
		} else {
			rs = append(rs, Run{Local: p.Local, Size: p.Size})
		}
		runs[p.SrvPos] = rs
	}
	return runs
}

// agreesWithOracle reports whether the closed-form PerServer and
// ServersTouched match the Map-and-merge oracle on one extent: exactly one
// run per touched server, in position order, and no other shares.
func agreesWithOracle(t *testing.T, l Layout, off, size int64) bool {
	t.Helper()
	want := l.mapAndMerge(off, size)
	got := l.PerServer(off, size)
	var i, touched int
	for pos, rs := range want {
		if len(rs) == 0 {
			continue
		}
		touched++
		if len(rs) != 1 || i >= len(got) || got[i] != (Share{SrvPos: pos, Run: rs[0]}) {
			t.Errorf("%+v.PerServer(%d, %d) = %+v, oracle %+v", l, off, size, got, want)
			return false
		}
		i++
	}
	if i != len(got) || cap(got) != len(got) {
		t.Errorf("%+v.PerServer(%d, %d) = %+v (cap %d), oracle %+v", l, off, size, got, cap(got), want)
		return false
	}
	if n := l.ServersTouched(off, size); n != touched {
		t.Errorf("%+v.ServersTouched(%d, %d) = %d, oracle %d", l, off, size, n, touched)
		return false
	}
	return true
}

func TestLayoutMapSingleStripe(t *testing.T) {
	l := Layout{Width: 4, Stripe: 64 << 10}
	p := l.Map(0, 64<<10)
	if len(p) != 1 || p[0].SrvPos != 0 || p[0].Local != 0 || p[0].Size != 64<<10 {
		t.Fatalf("pieces = %+v", p)
	}
}

func TestLayoutMapRoundRobin(t *testing.T) {
	l := Layout{Width: 3, Stripe: 100}
	p := l.Map(0, 350)
	want := []Piece{
		{SrvPos: 0, Local: 0, Size: 100},
		{SrvPos: 1, Local: 0, Size: 100},
		{SrvPos: 2, Local: 0, Size: 100},
		{SrvPos: 0, Local: 100, Size: 50},
	}
	if len(p) != len(want) {
		t.Fatalf("pieces = %+v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("piece %d = %+v, want %+v", i, p[i], want[i])
		}
	}
}

func TestLayoutMapUnalignedStart(t *testing.T) {
	l := Layout{Width: 2, Stripe: 100}
	p := l.Map(150, 100)
	want := []Piece{
		{SrvPos: 1, Local: 50, Size: 50},  // stripe 1 -> server 1, local stripe 0
		{SrvPos: 0, Local: 100, Size: 50}, // stripe 2 -> server 0, local stripe 1
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("piece %d = %+v, want %+v", i, p[i], want[i])
		}
	}
}

func TestLayoutPerServerMergesContiguous(t *testing.T) {
	// A full-width-aligned extent is contiguous on every server.
	l := Layout{Width: 4, Stripe: 64 << 10}
	size := int64(8 << 20) // 128 stripes, 32 per server
	runs := l.mapAndMerge(0, size)
	for pos, rs := range runs {
		if len(rs) != 1 {
			t.Fatalf("server %d has %d runs, want 1: %+v", pos, len(rs), rs)
		}
		if rs[0].Size != size/4 {
			t.Fatalf("server %d run size = %d, want %d", pos, rs[0].Size, size/4)
		}
		if rs[0].Local != 0 {
			t.Fatalf("server %d local = %d", pos, rs[0].Local)
		}
	}
	shares := l.PerServer(0, size)
	if len(shares) != 4 {
		t.Fatalf("PerServer = %+v, want 4 shares", shares)
	}
	for pos, sh := range shares {
		if sh.SrvPos != pos || sh.Run != runs[pos][0] {
			t.Fatalf("share %d = %+v, want %+v", pos, sh, runs[pos][0])
		}
	}
}

func TestLayoutStridedLeavesHoles(t *testing.T) {
	// 256 KB blocks with 256 KB gaps, 64 KB stripes, 4 servers: each block
	// touches each server once; consecutive blocks of the same writer are
	// NOT contiguous locally (the gap maps to the same servers).
	l := Layout{Width: 4, Stripe: 64 << 10}
	agreesWithOracle(t, l, 0, 256<<10)
	agreesWithOracle(t, l, 512<<10, 256<<10)
	a := l.PerServer(0, 256<<10)
	b := l.PerServer(512<<10, 256<<10)
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("shares per block: %v %v", a, b)
	}
	for pos := 0; pos < 4; pos++ {
		if a[pos].SrvPos != pos || b[pos].SrvPos != pos {
			t.Fatalf("shares out of position order: %v %v", a, b)
		}
		if a[pos].Local+a[pos].Size == b[pos].Local {
			t.Fatalf("server %d: blocks unexpectedly contiguous", pos)
		}
	}
}

func TestServersTouched(t *testing.T) {
	l := Layout{Width: 12, Stripe: 64 << 10}
	// The paper's request-size observation: a 256 KB request touches 4
	// servers at 64 KB stripes; a 64 KB request touches 1.
	if got := l.ServersTouched(0, 256<<10); got != 4 {
		t.Fatalf("256KB request touches %d servers, want 4", got)
	}
	if got := l.ServersTouched(0, 64<<10); got != 1 {
		t.Fatalf("64KB request touches %d servers, want 1", got)
	}
	// And with a 256 KB stripe, a 256 KB aligned request touches 1.
	l2 := Layout{Width: 12, Stripe: 256 << 10}
	if got := l2.ServersTouched(0, 256<<10); got != 1 {
		t.Fatalf("256KB request at 256KB stripe touches %d, want 1", got)
	}
}

// Property: pieces tile the extent exactly — sizes sum to the extent, each
// piece's global position round-trips through the (server, local) mapping,
// and pieces are in file order.
func TestPropertyLayoutRoundTrip(t *testing.T) {
	f := func(width8 uint8, stripe16 uint16, off32, size32 uint32) bool {
		width := int(width8%16) + 1
		stripe := int64(stripe16%4096) + 1
		off := int64(off32 % (1 << 22))
		size := int64(size32 % (1 << 20))
		l := Layout{Width: width, Stripe: stripe}
		pieces := l.Map(off, size)
		var sum int64
		cur := off
		for _, p := range pieces {
			sum += p.Size
			// Invert the mapping: global = (local/stripe*width + srvPos)*stripe + local%stripe.
			g := (p.Local/stripe)*int64(width) + int64(p.SrvPos)
			global := g*stripe + p.Local%stripe
			if global != cur {
				return false
			}
			cur += p.Size
		}
		return sum == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: PerServer conserves bytes and runs never overlap on a server.
func TestPropertyPerServerConserves(t *testing.T) {
	f := func(width8 uint8, stripe16 uint16, off32, size32 uint32) bool {
		width := int(width8%12) + 1
		stripe := int64(stripe16%2048) + 1
		off := int64(off32 % (1 << 20))
		size := int64(size32 % (1 << 18))
		l := Layout{Width: width, Stripe: stripe}
		var sum int64
		prevPos := -1
		for _, sh := range l.PerServer(off, size) {
			if sh.Size <= 0 || sh.Local < 0 || sh.SrvPos <= prevPos || sh.SrvPos >= width {
				return false // empty, negative, duplicated or disordered
			}
			prevPos = sh.SrvPos
			sum += sh.Size
		}
		return sum == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestLayoutClosedFormMatchesOracle checks the closed-form PerServer and
// ServersTouched against the Map-and-merge oracle: the edge cases by hand,
// then random layouts and extents.
func TestLayoutClosedFormMatchesOracle(t *testing.T) {
	for _, c := range []struct {
		l         Layout
		off, size int64
	}{
		{Layout{Width: 4, Stripe: 100}, 0, 0},      // size == 0
		{Layout{Width: 4, Stripe: 100}, 250, 0},    // size == 0, unaligned
		{Layout{Width: 4, Stripe: 100}, 120, 30},   // inside a single stripe
		{Layout{Width: 4, Stripe: 100}, 300, 100},  // exactly one stripe
		{Layout{Width: 4, Stripe: 100}, 150, 200},  // unaligned start and end
		{Layout{Width: 4, Stripe: 100}, 350, 100},  // wraps past the last server
		{Layout{Width: 4, Stripe: 100}, 0, 400},    // exactly Width stripes
		{Layout{Width: 4, Stripe: 100}, 50, 400},   // Width+1 stripes, unaligned
		{Layout{Width: 4, Stripe: 100}, 399, 1702}, // many times wider than Width
		{Layout{Width: 1, Stripe: 7}, 3, 100},      // a single server
		{Layout{Width: 12, Stripe: 64 << 10}, 0, 256 << 10},
		{Layout{Width: 3, Stripe: 1}, 5, 11},
	} {
		agreesWithOracle(t, c.l, c.off, c.size)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		l := Layout{Width: 1 + rng.Intn(16), Stripe: 1 + rng.Int63n(512)}
		off := rng.Int63n(1 << 14)
		var size int64
		switch rng.Intn(4) {
		case 0: // within a stripe or two
			size = rng.Int63n(l.Stripe + 1)
		case 1: // around Width stripes
			size = rng.Int63n(2*int64(l.Width)*l.Stripe + 1)
		default: // anything, up to many times Width stripes
			size = rng.Int63n(1 << 15)
		}
		if !agreesWithOracle(t, l, off, size) {
			return
		}
	}
}

func TestLayoutPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Layout{Width: 0, Stripe: 1}.PerServer(0, 1) },
		func() { Layout{Width: 1, Stripe: 0}.PerServer(0, 1) },
		func() { Layout{Width: 1, Stripe: 1}.PerServer(-1, 1) },
		func() { Layout{Width: 0, Stripe: 1}.ServersTouched(0, 1) },
		func() { Layout{Width: 1, Stripe: 0}.ServersTouched(0, 1) },
		func() { Layout{Width: 1, Stripe: 1}.ServersTouched(-1, 1) },
		func() { Layout{Width: 1, Stripe: 1}.ServersTouched(0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
