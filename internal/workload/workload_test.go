package workload

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestContiguousPlan(t *testing.T) {
	s := Spec{Pattern: Contiguous, BlockBytes: 64 << 20}
	p := s.Plan(3, 8)
	if len(p) != 1 {
		t.Fatalf("plan = %v", p)
	}
	if p[0].Off != 3*(64<<20) || p[0].Size != 64<<20 {
		t.Fatalf("extent = %+v", p[0])
	}
	if s.Requests() != 1 {
		t.Fatalf("requests = %d", s.Requests())
	}
}

func TestStridedPlanMatchesPaper(t *testing.T) {
	// Paper: 256 requests of 256 KB each per process.
	s := Spec{Pattern: Strided, BlockBytes: 64 << 20, TransferSize: 256 << 10}
	p := s.Plan(0, 480)
	if len(p) != 256 {
		t.Fatalf("requests = %d, want 256", len(p))
	}
	if s.Requests() != 256 {
		t.Fatalf("Requests() = %d", s.Requests())
	}
	// Consecutive requests of one rank are nprocs*xfer apart.
	stride := int64(480) * (256 << 10)
	for i := 1; i < len(p); i++ {
		if p[i].Off-p[i-1].Off != stride {
			t.Fatalf("stride = %d, want %d", p[i].Off-p[i-1].Off, stride)
		}
	}
}

func TestStridedTilesFileExactly(t *testing.T) {
	// All ranks together must tile [0, FileBytes) with no gaps or overlaps.
	s := Spec{Pattern: Strided, BlockBytes: 1 << 20, TransferSize: 64 << 10}
	const nprocs = 16
	var all []Extent
	for r := 0; r < nprocs; r++ {
		all = append(all, s.Plan(r, nprocs)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Off < all[j].Off })
	var cur int64
	for _, e := range all {
		if e.Off != cur {
			t.Fatalf("gap or overlap at %d (next extent at %d)", cur, e.Off)
		}
		cur += e.Size
	}
	if cur != s.FileBytes(nprocs) {
		t.Fatalf("file covered to %d, want %d", cur, s.FileBytes(nprocs))
	}
}

func TestContiguousTilesFileExactly(t *testing.T) {
	s := Spec{Pattern: Contiguous, BlockBytes: 4 << 20}
	const nprocs = 8
	var all []Extent
	for r := 0; r < nprocs; r++ {
		all = append(all, s.Plan(r, nprocs)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Off < all[j].Off })
	var cur int64
	for _, e := range all {
		if e.Off != cur {
			t.Fatalf("gap at %d", cur)
		}
		cur += e.Size
	}
	if cur != s.FileBytes(nprocs) {
		t.Fatalf("covered %d, want %d", cur, s.FileBytes(nprocs))
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		s  Spec
		ok bool
	}{
		{Spec{Pattern: Contiguous, BlockBytes: 1 << 20}, true},
		{Spec{Pattern: Contiguous, BlockBytes: 0}, false},
		{Spec{Pattern: Strided, BlockBytes: 1 << 20, TransferSize: 64 << 10}, true},
		{Spec{Pattern: Strided, BlockBytes: 1 << 20, TransferSize: 0}, false},
		{Spec{Pattern: Strided, BlockBytes: 1<<20 + 1, TransferSize: 64 << 10}, false},
	}
	for i, c := range cases {
		if got := c.s.Validate() == nil; got != c.ok {
			t.Errorf("case %d: Validate ok=%v, want %v", i, got, c.ok)
		}
	}
}

func TestPatternString(t *testing.T) {
	if Contiguous.String() != "contiguous" || Strided.String() != "strided" {
		t.Fatal("pattern names")
	}
	if Pattern(9).String() != "unknown" {
		t.Fatal("unknown pattern")
	}
}

// Property: per-rank plans never overlap across ranks and always cover
// exactly BlockBytes per rank.
func TestPropertyPlansDisjoint(t *testing.T) {
	f := func(np uint8, blocks uint8, xferExp uint8) bool {
		nprocs := int(np%16) + 1
		xfer := int64(1) << (10 + xferExp%6) // 1 KiB .. 32 KiB
		block := xfer * (int64(blocks%8) + 1)
		s := Spec{Pattern: Strided, BlockBytes: block, TransferSize: xfer}
		seen := map[int64]bool{}
		for r := 0; r < nprocs; r++ {
			var sum int64
			for _, e := range s.Plan(r, nprocs) {
				if seen[e.Off] {
					return false
				}
				seen[e.Off] = true
				sum += e.Size
			}
			if sum != block {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: for both patterns and varied nprocs, the per-rank extents are
// pairwise disjoint and together tile [0, FileBytes) exactly — no gap, no
// overlap, no spill past the end of the shared file.
func TestPropertyPlanTilesFile(t *testing.T) {
	f := func(contig bool, np uint8, blocks uint8, xferExp uint8) bool {
		nprocs := int(np%16) + 1
		xfer := int64(1) << (10 + xferExp%6) // 1 KiB .. 32 KiB
		block := xfer * (int64(blocks%8) + 1)
		s := Spec{Pattern: Strided, BlockBytes: block, TransferSize: xfer}
		if contig {
			s = Spec{Pattern: Contiguous, BlockBytes: block}
		}
		var all []Extent
		for r := 0; r < nprocs; r++ {
			all = append(all, s.Plan(r, nprocs)...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].Off < all[j].Off })
		var cur int64
		for _, e := range all {
			if e.Off != cur || e.Size <= 0 {
				return false // gap (or overlap: a duplicate offset sorts before cur)
			}
			cur += e.Size
		}
		return cur == s.FileBytes(nprocs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Spec{Pattern: Contiguous, BlockBytes: 0}.Plan(0, 1) },
		func() { Spec{Pattern: Contiguous, BlockBytes: 1}.Plan(1, 1) },
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
