package cpu

import (
	"fmt"

	"mosaic/internal/cache"
	"mosaic/internal/ckpt"
	"mosaic/internal/mem"
	"mosaic/internal/pmu"
	"mosaic/internal/tlb"
	"mosaic/internal/trace"
)

// Space returns the address space the machine replays against.
func (m *Machine) Space() *mem.AddressSpace { return m.space }

// statSnap captures the cumulative component counters a replay cannot
// accumulate in its own loop (the walker's cache loads happen inside
// walker.Walk). A replay snapshots them when a measurement window opens and
// closes, and attributes the difference to the window.
type statSnap struct {
	tlb  tlb.Counts
	hier cache.Stats
}

func (m *Machine) snapStats() statSnap {
	return statSnap{tlb: m.tlb.Counts(), hier: m.hier.Stats()}
}

// sampleSums accumulates the component-stat deltas of a replay's
// measurement windows: warmup and skipped accesses contribute nothing here,
// which is exactly what makes windowed counters extrapolatable. Under full
// coverage the sums equal the components' own counters since the replay
// started.
type sampleSums struct {
	tlb  tlb.Counts
	hier cache.Stats
}

func (s *sampleSums) accumulate(from, to statSnap) {
	s.tlb = s.tlb.Add(to.tlb.Sub(from.tlb))
	s.hier = s.hier.Add(to.hier.Sub(from.hier))
}

// Replay is one in-flight replay of a trace on a machine — the run
// contract a window-schedule driver (internal/sim) advances: Measure and
// Warm replay access ranges, Open and Close bracket each measured range so
// its component-stat delta is attributed to the run, Snapshot and Restore
// checkpoint the run mid-trace, and Counters harvests the cumulative
// counters. Accounting is always by window delta, so the counters cover
// exactly the measured accesses whatever the components counted before the
// replay started.
type Replay struct {
	m    *Machine
	name string
	cols *trace.Columns
	st   runState
	base statSnap
	sums sampleSums
}

// Start begins a replay of tr on the machine with zeroed run counters; the
// machine's model state carries over as is (Reset first for a cold start,
// or Restore the replay from a checkpoint).
func (m *Machine) Start(tr *trace.Trace) *Replay {
	return &Replay{m: m, name: tr.Name, cols: tr.Columns()}
}

// Measure replays accesses [lo, hi) through the full timing model.
func (r *Replay) Measure(lo, hi int) error {
	return r.m.replayRange(r.name, &r.st, r.cols, lo, hi)
}

// Warm advances model state through accesses [lo, hi) without counting.
func (r *Replay) Warm(lo, hi int) error {
	return r.m.warmRange(r.name, &r.st, r.cols, lo, hi)
}

// Open marks the start of a measured range.
func (r *Replay) Open() { r.base = r.m.snapStats() }

// Close attributes the component events since Open to the replay.
func (r *Replay) Close() { r.sums.accumulate(r.base, r.m.snapStats()) }

// Counters harvests the replay's cumulative counters into the PMU view.
// Component statistics come from the measured windows' deltas; the
// run-state counters need no differencing — they only ever advance inside
// measurement windows.
func (r *Replay) Counters() pmu.Counters {
	st, sums := &r.st, &r.sums
	return pmu.Counters{
		R:                uint64(st.now),
		H:                sums.tlb.L2Hits,
		M:                sums.tlb.Misses,
		C:                st.walkCycles,
		Instructions:     st.instructions,
		L1DLoadsProgram:  sums.hier.L1Loads.Program,
		L1DLoadsWalker:   sums.hier.L1Loads.Walker,
		L2LoadsProgram:   sums.hier.L2Loads.Program,
		L2LoadsWalker:    sums.hier.L2Loads.Walker,
		L3LoadsProgram:   sums.hier.L3Loads.Program,
		L3LoadsWalker:    sums.hier.L3Loads.Walker,
		DRAMLoadsProgram: sums.hier.DRAMLoads.Program,
		DRAMLoadsWalker:  sums.hier.DRAMLoads.Walker,
		TLBLookups:       sums.tlb.Lookups,
	}
}

// Snapshot captures the machine's complete model state — component contents
// and counters plus the walker-availability clocks — as a checkpoint with a
// zero run clock: the uniform checkpoint contract's entry point for state
// taken between runs. Mid-replay checkpoints come from Replay.Snapshot.
func (m *Machine) Snapshot() *ckpt.MachineState {
	return (&Replay{m: m}).Snapshot()
}

// Restore overwrites the machine's model state with a snapshot taken from a
// machine of identical platform. The translator memo — a pure performance
// cache, invisible to counters — is cleared rather than restored.
func (m *Machine) Restore(s *ckpt.MachineState) error {
	return (&Replay{m: m}).Restore(s)
}

// Snapshot captures machine + in-flight replay state. The clock and
// accumulator fields are cumulative, so a replay restored from the snapshot
// harvests whole-prefix counters at its end.
//
//mosvet:ckptexempt Metrics Metrics is the partial simulator's stat block; full machines report through the clock and Sum fields instead
func (r *Replay) Snapshot() *ckpt.MachineState {
	m, st := r.m, &r.st
	return &ckpt.MachineState{
		HasClock:     true,
		Now:          st.now,
		MissRate:     st.missRate,
		WalkCycles:   st.walkCycles,
		Instructions: st.instructions,
		Breakdown:    [5]float64{st.bd.Base, st.bd.TLBHit, st.bd.WalkStall, st.bd.WalkQueue, st.bd.DataStall},
		WalkerFree:   append([]float64(nil), m.walkerFree...),
		SumTLB:       r.sums.tlb,
		SumHier:      r.sums.hier,
		TLB:          m.tlb.Snapshot(),
		Hier:         m.hier.Snapshot(),
		Walk:         m.walk.Snapshot(),
	}
}

// Restore seeds machine + in-flight replay state from a snapshot.
//
//mosvet:ckptexempt Metrics Metrics is the partial simulator's stat block; full-machine snapshots never carry it and restoreState rejects partial snapshots outright
func (r *Replay) Restore(s *ckpt.MachineState) error {
	m := r.m
	if !s.HasClock {
		return fmt.Errorf("cpu: snapshot has no clock state (partial-simulator checkpoint?) — refusing to seed the replay clock from zeros")
	}
	if len(s.WalkerFree) != len(m.walkerFree) {
		return fmt.Errorf("cpu: restore of %d-walker state into %d walkers (platform mismatch?)",
			len(s.WalkerFree), len(m.walkerFree))
	}
	if err := m.tlb.Restore(s.TLB); err != nil {
		return err
	}
	if err := m.hier.Restore(s.Hier); err != nil {
		return err
	}
	if err := m.walk.Restore(s.Walk); err != nil {
		return err
	}
	m.trans.Reset(m.space.PageTable())
	copy(m.walkerFree, s.WalkerFree)
	r.st = runState{
		now:          s.Now,
		missRate:     s.MissRate,
		walkCycles:   s.WalkCycles,
		instructions: s.Instructions,
		bd: Breakdown{
			Base:      s.Breakdown[0],
			TLBHit:    s.Breakdown[1],
			WalkStall: s.Breakdown[2],
			WalkQueue: s.Breakdown[3],
			DataStall: s.Breakdown[4],
		},
	}
	r.sums = sampleSums{tlb: s.SumTLB, hier: s.SumHier}
	return nil
}
