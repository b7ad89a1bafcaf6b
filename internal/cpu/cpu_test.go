package cpu

import (
	"errors"
	"math/rand"
	"testing"

	"mosaic/internal/arch"
	"mosaic/internal/mem"
	"mosaic/internal/trace"
)

// buildSpace maps size bytes at base with the given page size.
func buildSpace(t *testing.T, base mem.Addr, size uint64, ps mem.PageSize) *mem.AddressSpace {
	t.Helper()
	as, err := mem.NewAddressSpace(1 << 38)
	if err != nil {
		t.Fatal(err)
	}
	size = uint64(mem.AlignUp(mem.Addr(size), ps))
	if err := as.Map(mem.NewRegion(base, size), ps); err != nil {
		t.Fatal(err)
	}
	return as
}

// randomTrace touches `accesses` random 4KB-aligned addresses in
// [base, base+size) with the given gap and dependence.
func randomTrace(seed int64, base mem.Addr, size uint64, accesses int, gap uint64, dep bool) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder("random", accesses)
	for i := 0; i < accesses; i++ {
		b.Compute(gap)
		va := base + mem.Addr(rng.Uint64()%size)
		if dep {
			b.LoadDep(va)
		} else {
			b.Load(va)
		}
	}
	return b.Trace()
}

const testRegion = mem.Addr(0x2000_0000_0000)

func TestHugepagesReduceRuntime(t *testing.T) {
	size := uint64(64 << 20)
	tr := randomTrace(1, testRegion, size, 30000, 20, true)

	run := func(ps mem.PageSize) (r, m, c uint64) {
		as := buildSpace(t, testRegion, size, ps)
		machine, err := New(arch.SandyBridge, as)
		if err != nil {
			t.Fatal(err)
		}
		ctr, err := machine.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return ctr.R, ctr.M, ctr.C
	}

	r4k, m4k, c4k := run(mem.Page4K)
	r2m, m2m, c2m := run(mem.Page2M)
	r1g, m1g, _ := run(mem.Page1G)

	if m4k == 0 || c4k == 0 {
		t.Fatal("4KB run should have TLB misses and walk cycles")
	}
	if m2m >= m4k/10 {
		t.Errorf("2MB misses %d not far below 4KB misses %d", m2m, m4k)
	}
	if m1g > m2m {
		t.Errorf("1GB misses %d exceed 2MB misses %d", m1g, m2m)
	}
	if r2m >= r4k {
		t.Errorf("2MB runtime %d not below 4KB runtime %d", r2m, r4k)
	}
	if r1g > r2m+r2m/50 {
		t.Errorf("1GB runtime %d well above 2MB runtime %d", r1g, r2m)
	}
	// TLB sensitivity in the paper's sense: ≥5% improvement with 1GB pages.
	if float64(r4k-r1g)/float64(r4k) < 0.05 {
		t.Errorf("workload not TLB-sensitive: 4KB=%d 1GB=%d", r4k, r1g)
	}
	if c2m >= c4k {
		t.Errorf("2MB walk cycles %d not below 4KB %d", c2m, c4k)
	}
}

func TestCountersConsistent(t *testing.T) {
	size := uint64(16 << 20)
	tr := randomTrace(2, testRegion, size, 10000, 10, false)
	as := buildSpace(t, testRegion, size, mem.Page4K)
	machine, _ := New(arch.Haswell, as)
	ctr, err := machine.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if ctr.TLBLookups != 10000 {
		t.Errorf("lookups = %d, want 10000", ctr.TLBLookups)
	}
	if ctr.H+ctr.M > ctr.TLBLookups {
		t.Errorf("H+M = %d exceeds lookups", ctr.H+ctr.M)
	}
	if ctr.M == 0 {
		t.Error("expected TLB misses")
	}
	if ctr.C == 0 {
		t.Error("expected walk cycles")
	}
	if ctr.Instructions != tr.Instructions() {
		t.Errorf("instructions = %d, want %d", ctr.Instructions, tr.Instructions())
	}
	if ctr.R == 0 {
		t.Error("zero runtime")
	}
	// Program loads equal the trace length; walker loads strictly positive.
	if ctr.L1DLoadsProgram != 10000 {
		t.Errorf("program L1d loads = %d", ctr.L1DLoadsProgram)
	}
	if ctr.L1DLoadsWalker == 0 {
		t.Error("no walker loads recorded")
	}
}

// TestRunReportsOwnCounts: a second Run on the same machine without Reset
// reports that run's own events — H, M, lookups and cache loads equal the
// components' stat deltas across the run, consistent with the run's own R
// and instruction count — not the totals accumulated over both runs.
func TestRunReportsOwnCounts(t *testing.T) {
	size := uint64(16 << 20)
	tr := randomTrace(3, testRegion, size, 10000, 10, false)
	machine, err := New(arch.Haswell, buildSpace(t, testRegion, size, mem.Page4K))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := machine.Run(tr); err != nil {
		t.Fatal(err)
	}
	tlb0, hier0 := machine.TLB().Counts(), machine.Hierarchy().Stats()
	second, err := machine.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	dt := machine.TLB().Counts().Sub(tlb0)
	dh := machine.Hierarchy().Stats().Sub(hier0)
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"H", second.H, dt.L2Hits},
		{"M", second.M, dt.Misses},
		{"TLBLookups", second.TLBLookups, dt.Lookups},
		{"L1DLoadsProgram", second.L1DLoadsProgram, dh.L1Loads.Program},
		{"L1DLoadsWalker", second.L1DLoadsWalker, dh.L1Loads.Walker},
		{"L2LoadsWalker", second.L2LoadsWalker, dh.L2Loads.Walker},
		{"DRAMLoadsProgram", second.DRAMLoadsProgram, dh.DRAMLoads.Program},
		{"TLBLookups (trace length)", second.TLBLookups, uint64(tr.Len())},
		{"Instructions", second.Instructions, tr.Instructions()},
	} {
		if c.got != c.want {
			t.Errorf("second run %s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if second.R == 0 || second.M > second.TLBLookups {
		t.Errorf("second run counters inconsistent: %+v", second)
	}
}

// Two-walker Broadwell with dense independent misses: walk cycles exceed
// runtime — the mechanism that makes Basu's β negative (§VI-D).
func TestWalkCyclesCanExceedRuntimeOnBroadwell(t *testing.T) {
	size := uint64(256 << 20)
	tr := randomTrace(3, testRegion, size, 40000, 2, false)

	as := buildSpace(t, testRegion, size, mem.Page4K)
	bdw, _ := New(arch.Broadwell, as)
	ctr, err := bdw.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if ctr.C <= ctr.R {
		t.Errorf("Broadwell gups-like: C=%d should exceed R=%d", ctr.C, ctr.R)
	}

	// One-walker SandyBridge cannot exceed R on the same pattern.
	as2 := buildSpace(t, testRegion, size, mem.Page4K)
	snb, _ := New(arch.SandyBridge, as2)
	ctr2, err := snb.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if ctr2.C > ctr2.R {
		t.Errorf("SandyBridge: C=%d must not exceed R=%d with one walker", ctr2.C, ctr2.R)
	}
}

// Dependent misses hurt more than independent ones: latency hiding works.
func TestDependenceExposesLatency(t *testing.T) {
	size := uint64(64 << 20)
	dep := randomTrace(4, testRegion, size, 20000, 20, true)
	ind := randomTrace(4, testRegion, size, 20000, 20, false)

	run := func(tr *trace.Trace) uint64 {
		as := buildSpace(t, testRegion, size, mem.Page4K)
		m, _ := New(arch.Haswell, as)
		ctr, err := m.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return ctr.R
	}
	rDep, rInd := run(dep), run(ind)
	if rDep <= rInd {
		t.Errorf("dependent runtime %d should exceed independent %d", rDep, rInd)
	}
}

// Sparse misses are cheaper per miss than dense ones: the hiding mechanism
// behind Figure 3's bend.
func TestPerMissCostDropsWhenSparse(t *testing.T) {
	size := uint64(64 << 20)
	run := func(gap uint64) (perMiss float64) {
		tr := randomTrace(5, testRegion, size, 10000, gap, true)
		as := buildSpace(t, testRegion, size, mem.Page4K)
		m, _ := New(arch.SandyBridge, as)
		ctr, err := m.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		base := float64(ctr.Instructions) * arch.SandyBridge.BaseCPI
		if ctr.M == 0 {
			t.Fatal("no misses")
		}
		return (float64(ctr.R) - base) / float64(ctr.M)
	}
	dense := run(5)
	sparse := run(2000)
	if sparse >= dense {
		t.Errorf("per-miss overhead sparse=%.1f should be below dense=%.1f", sparse, dense)
	}
}

func TestUnmappedAccessErrors(t *testing.T) {
	as := buildSpace(t, testRegion, 1<<20, mem.Page4K)
	m, _ := New(arch.SandyBridge, as)
	b := trace.NewBuilder("bad", 1)
	b.Load(0xdeadbeef000)
	if _, err := m.Run(b.Trace()); err == nil {
		t.Error("access to unmapped memory should error")
	}
}

// TestFaultErrorTyped pins the fault path's contract after the hot-path
// hygiene pass replaced fmt.Errorf in the replay kernels with lazily
// formatted typed errors: callers get a *FaultError with the faulting
// position, and the rendered message keeps its historical shape.
func TestFaultErrorTyped(t *testing.T) {
	as := buildSpace(t, testRegion, 1<<20, mem.Page4K)
	m, _ := New(arch.SandyBridge, as)
	b := trace.NewBuilder("bad", 1)
	b.Load(0xdeadbeef000)
	_, err := m.Run(b.Trace())
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("fault error type = %T, want *FaultError", err)
	}
	if fe.Trace != "bad" || fe.Index != 0 || fe.VA != 0xdeadbeef000 || fe.Walk {
		t.Errorf("fault fields = %+v", fe)
	}
	if want := "cpu: bad: access 0 faults at 0xdeadbeef000"; err.Error() != want {
		t.Errorf("fault message = %q, want %q", err.Error(), want)
	}
}

func TestDeterminism(t *testing.T) {
	size := uint64(32 << 20)
	tr := randomTrace(6, testRegion, size, 5000, 15, false)
	run := func() uint64 {
		as := buildSpace(t, testRegion, size, mem.Page4K)
		m, _ := New(arch.Broadwell, as)
		ctr, err := m.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return ctr.R
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic runtime: %d vs %d", a, b)
	}
}

func TestInvalidPlatformRejected(t *testing.T) {
	as := buildSpace(t, testRegion, 1<<20, mem.Page4K)
	bad := arch.SandyBridge
	bad.PageWalkers = 0
	if _, err := New(bad, as); err == nil {
		t.Error("invalid platform should be rejected")
	}
}

// Mixed layouts must land runtime between the all-4KB and all-2MB extremes
// for a uniformly random access pattern.
func TestMixedLayoutInterpolates(t *testing.T) {
	size := uint64(64 << 20)
	tr := randomTrace(7, testRegion, size, 30000, 20, true)
	run := func(build func(as *mem.AddressSpace) error) uint64 {
		as, err := mem.NewAddressSpace(1 << 38)
		if err != nil {
			t.Fatal(err)
		}
		if err := build(as); err != nil {
			t.Fatal(err)
		}
		m, _ := New(arch.SandyBridge, as)
		ctr, err := m.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return ctr.R
	}
	r4k := run(func(as *mem.AddressSpace) error {
		return as.Map(mem.NewRegion(testRegion, size), mem.Page4K)
	})
	r2m := run(func(as *mem.AddressSpace) error {
		return as.Map(mem.NewRegion(testRegion, size), mem.Page2M)
	})
	rMix := run(func(as *mem.AddressSpace) error {
		half := size / 2
		if err := as.Map(mem.NewRegion(testRegion, half), mem.Page2M); err != nil {
			return err
		}
		return as.Map(mem.NewRegion(testRegion+mem.Addr(half), half), mem.Page4K)
	})
	if !(r2m < rMix && rMix < r4k) {
		t.Errorf("expected r2m < rMix < r4k, got %d / %d / %d", r2m, rMix, r4k)
	}
}

// Hyper-threading halves the TLBs (§VI-A): the same trace on an HT logical
// core misses more and runs slower — why the paper's machines disable HT.
func TestHyperThreadingHurtsTLB(t *testing.T) {
	size := uint64(64 << 20)
	tr := randomTrace(8, testRegion, size, 20000, 20, true)
	run := func(plat arch.Platform) (uint64, uint64) {
		as := buildSpace(t, testRegion, size, mem.Page4K)
		m, err := New(plat, as)
		if err != nil {
			t.Fatal(err)
		}
		ctr, err := m.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return ctr.R, ctr.M
	}
	rOff, mOff := run(arch.Haswell.Scaled())
	rOn, mOn := run(arch.Haswell.Scaled().WithHyperThreading())
	if mOn <= mOff {
		t.Errorf("HT misses %d not above full-TLB misses %d", mOn, mOff)
	}
	if rOn <= rOff {
		t.Errorf("HT runtime %d not above full-TLB runtime %d", rOn, rOff)
	}
}

// The breakdown components must sum to the reported runtime.
func TestBreakdownSumsToRuntime(t *testing.T) {
	size := uint64(32 << 20)
	tr := randomTrace(9, testRegion, size, 15000, 15, true)
	as := buildSpace(t, testRegion, size, mem.Page4K)
	m, err := New(arch.Broadwell.Scaled(), as)
	if err != nil {
		t.Fatal(err)
	}
	ctr, bd, err := m.RunDetailed(tr)
	if err != nil {
		t.Fatal(err)
	}
	total := bd.Total()
	if d := total - float64(ctr.R); d > 1.5 || d < -1.5 {
		t.Errorf("breakdown total %.1f vs R %d", total, ctr.R)
	}
	if bd.Base <= 0 || bd.WalkStall <= 0 || bd.DataStall <= 0 {
		t.Errorf("missing components: %+v", bd)
	}
	// 4KB random access on a TLB-thrashing footprint: translation overhead
	// (stall + queue + hits) must be a visible share of the runtime.
	overhead := bd.WalkStall + bd.WalkQueue + bd.TLBHit
	if overhead/total < 0.05 {
		t.Errorf("translation overhead %.1f%% implausibly small", 100*overhead/total)
	}
}
