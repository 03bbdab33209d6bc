package netsim

import (
	"testing"

	"repro/internal/sim"
)

// TestFabricLanesZeroAlloc pins the transport's steady state: an incast of
// four flows into one server, with port drops and RTO recovery, schedules
// every segment on the NIC lines' lanes and every ACK and timer on the
// fabric's ACK and RTO lanes without allocating.
func TestFabricLanesZeroAlloc(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	p.PortBuf = 256 << 10 // small enough that the incast drops segments
	f, clients, srv := testFabric(e, p, 4, 1.25e9)
	var conns []*Conn
	var msgs []*Message
	for _, h := range clients {
		c := f.Dial(h, srv, 0)
		c.OnReadable = func(cc *Conn, m *Message) { cc.ReadHead() }
		conns = append(conns, c)
		msgs = append(msgs, &Message{Size: 4 << 20})
	}
	round := func() {
		for i, c := range conns {
			c.Send(msgs[i])
		}
		e.Run()
	}
	for i := 0; i < 4; i++ { // warm up: queues and the slab reach capacity
		round()
	}
	if avg := testing.AllocsPerRun(20, round); avg != 0 {
		t.Errorf("incast round allocates %.1f objects, want 0", avg)
	}
	var timeouts int64
	for _, c := range conns {
		timeouts += c.Stats().Timeouts
	}
	if f.TotalPortDrops() == 0 || timeouts == 0 {
		t.Fatalf("incast never exercised loss recovery: drops=%d timeouts=%d",
			f.TotalPortDrops(), timeouts)
	}
}

// TestNewHostOneAllocation pins that a host's two NIC lines live inside
// the Host: NewHost allocates the host and nothing else.
func TestNewHostOneAllocation(t *testing.T) {
	f := NewFabric(sim.NewEngine(), DefaultParams())
	f.hosts = make([]*Host, 0, 256)
	if avg := testing.AllocsPerRun(100, func() { f.NewHost("h", 1.25e9, 0) }); avg != 1 {
		t.Errorf("NewHost allocates %.1f objects, want 1", avg)
	}
	h := f.Hosts()[0]
	if h.Egress != &h.nic[0] || h.Ingress != &h.nic[1] {
		t.Fatal("NIC lines are not embedded in the host")
	}
}
