package netsim

import "repro/internal/sim"

// SampleKind tags what produced a trace sample.
type SampleKind byte

// Trace sample kinds.
const (
	SampleSend    SampleKind = 's' // a segment transmission
	SampleAck     SampleKind = 'a' // an ACK/window update arrival
	SampleTimeout SampleKind = 't' // a retransmission timeout
)

// Trace records the transport state of one connection over time — the
// simulator's replacement for the paper's tcpdump probes (Figures 10 and
// 11). Attach one to Conn.Trace before the run.
type Trace struct {
	// WndUnit scales window samples; the paper plots windows in units of
	// 2048 bytes. Zero means raw bytes.
	WndUnit int64

	Times []sim.Time
	Wnd   []float64 // effective window at sample time, in WndUnit units
	Cwnd  []float64 // congestion window, segments
	Acked []int64   // cumulative acked bytes (transfer progress)
	Kind  []SampleKind
}

// NewTrace returns a trace using the paper's 2048-byte window unit.
func NewTrace() *Trace { return &Trace{WndUnit: 2048} }

func (t *Trace) record(c *Conn, k SampleKind) {
	unit := t.WndUnit
	if unit <= 0 {
		unit = 1
	}
	// All sample sites (transmit, handleAck, checkRTO) run sender-side.
	t.Times = append(t.Times, c.F.E.Now())
	t.Wnd = append(t.Wnd, float64(c.EffectiveWindow())/float64(unit))
	t.Cwnd = append(t.Cwnd, c.cwnd)
	t.Acked = append(t.Acked, c.ackedSeq)
	t.Kind = append(t.Kind, k)
}

func (t *Trace) sampleSend(c *Conn)    { t.record(c, SampleSend) }
func (t *Trace) sampleAck(c *Conn)     { t.record(c, SampleAck) }
func (t *Trace) sampleTimeout(c *Conn) { t.record(c, SampleTimeout) }

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.Times) }

// Sends returns the window samples taken at segment transmissions — the
// "per request" series of the paper's Figure 10.
func (t *Trace) Sends() []float64 {
	var out []float64
	for i, k := range t.Kind {
		if k == SampleSend {
			out = append(out, t.Wnd[i])
		}
	}
	return out
}

// MinWnd returns the smallest window observed (0 if no samples).
func (t *Trace) MinWnd() float64 {
	if len(t.Wnd) == 0 {
		return 0
	}
	m := t.Wnd[0]
	for _, w := range t.Wnd[1:] {
		if w < m {
			m = w
		}
	}
	return m
}

// MaxWnd returns the largest window observed (0 if no samples).
func (t *Trace) MaxWnd() float64 {
	m := 0.0
	for _, w := range t.Wnd {
		if w > m {
			m = w
		}
	}
	return m
}

// ProgressAt returns the fraction of total acked at time x, given the final
// acked byte count (1.0 if total is zero).
func (t *Trace) ProgressAt(x sim.Time, total int64) float64 {
	if total <= 0 {
		return 1
	}
	var acked int64
	for i, tm := range t.Times {
		if tm > x {
			break
		}
		acked = t.Acked[i]
	}
	return float64(acked) / float64(total)
}
