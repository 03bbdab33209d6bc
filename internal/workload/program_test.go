package workload

import "testing"

func validProgram() *Program {
	return &Program{
		Iterations: 3,
		Phases: []Phase{
			{Kind: PhaseBarrier},
			{Kind: PhaseIO, IO: Spec{Pattern: Contiguous, BlockBytes: 4 << 20}},
			{Kind: PhaseCompute, Compute: 1e9, JitterMean: 5e8},
			{Kind: PhaseIO, IO: Spec{Pattern: Strided, BlockBytes: 2 << 20, TransferSize: 256 << 10, QD: 4}},
		},
	}
}

func TestProgramValidate(t *testing.T) {
	if err := validProgram().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Program{
		{},
		{Iterations: -1, Phases: []Phase{{Kind: PhaseIO, IO: Spec{BlockBytes: 1}}}},
		{Phases: []Phase{{Kind: PhaseIO}}},                                      // invalid io spec
		{Phases: []Phase{{Kind: PhaseIO, IO: Spec{BlockBytes: 1}, Compute: 1}}}, // io with compute
		{Phases: []Phase{{Kind: PhaseCompute, Compute: -1}}},
		{Phases: []Phase{{Kind: PhaseCompute, IO: Spec{BlockBytes: 1}}}},
		{Phases: []Phase{{Kind: PhaseBarrier, Compute: 1}}},
		{Phases: []Phase{{Kind: PhaseKind(9)}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestProgramTotals(t *testing.T) {
	p := validProgram()
	if got, want := p.BytesPerProc(), int64(3*(4<<20+2<<20)); got != want {
		t.Fatalf("BytesPerProc = %d, want %d", got, want)
	}
	if got, want := p.TotalBytes(8), int64(8*3*(6<<20)); got != want {
		t.Fatalf("TotalBytes = %d, want %d", got, want)
	}
	if got := p.MaxQD(); got != 4 {
		t.Fatalf("MaxQD = %d, want 4", got)
	}
	// 1 contiguous request + 8 strided requests per iteration.
	if got, want := p.Requests(), 3*(1+8); got != want {
		t.Fatalf("Requests = %d, want %d", got, want)
	}
	if got := p.Barriers(); got != 3 {
		t.Fatalf("Barriers = %d, want 3", got)
	}
	if got := (&Program{Phases: []Phase{{Kind: PhaseBarrier}}}).Iters(); got != 1 {
		t.Fatalf("zero Iterations should mean 1, got %d", got)
	}
}

func TestSingle(t *testing.T) {
	s := Spec{Pattern: Contiguous, BlockBytes: 1 << 20, QD: 2}
	p := Single(s)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.TotalBytes(4) != 4*s.BlockBytes || p.MaxQD() != 2 {
		t.Fatal("Single does not preserve the spec")
	}
}

func TestPhaseKindString(t *testing.T) {
	if PhaseIO.String() != "io" || PhaseCompute.String() != "compute" ||
		PhaseBarrier.String() != "barrier" || PhaseKind(9).String() != "unknown" {
		t.Fatal("phase kind names")
	}
}
