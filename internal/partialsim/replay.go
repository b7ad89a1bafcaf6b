package partialsim

import (
	"fmt"

	"mosaic/internal/ckpt"
	"mosaic/internal/mem"
	"mosaic/internal/trace"
)

// Space returns the address space the simulator replays against.
func (s *Simulator) Space() *mem.AddressSpace { return s.space }

// Replay is one in-flight replay of a trace on a simulator — the partial
// simulator's side of the run contract a window-schedule driver
// (internal/sim) advances, mirroring cpu.Replay. Metrics accumulate only
// inside Measure, so Open and Close have nothing to attribute.
type Replay struct {
	s    *Simulator
	cols *trace.Columns
	m    Metrics
}

// Start begins a replay of tr on the simulator with zeroed metrics; the
// simulator's model state carries over as is.
func (s *Simulator) Start(tr *trace.Trace) *Replay {
	return &Replay{s: s, cols: tr.Columns()}
}

// Measure replays accesses [lo, hi), accumulating metrics.
func (r *Replay) Measure(lo, hi int) error { return r.s.replayRange(&r.m, r.cols, lo, hi) }

// Warm advances model state through accesses [lo, hi) without counting.
func (r *Replay) Warm(lo, hi int) error { return r.s.warmRange(r.cols, lo, hi) }

// Open marks the start of a measured range (a no-op: see Replay).
func (r *Replay) Open() {}

// Close ends a measured range (a no-op: see Replay).
func (r *Replay) Close() {}

// Metrics harvests the replay's cumulative metrics.
func (r *Replay) Metrics() Metrics { return r.m }

// Snapshot captures the simulator's model state plus the metrics
// accumulator as a checkpoint. The partial simulator has no clock, so
// HasClock stays false and the accumulator rides in the checkpoint's
// Metrics field; component state (TLB, caches, PWCs) uses the same layers
// as the full machine.
//
//mosvet:ckptexempt HasClock,Now,MissRate,WalkCycles,Instructions,Breakdown,WalkerFree,SumTLB,SumHier the partial simulator models no clock: HasClock stays false and the clock/accumulator section is meaningful only for full machines
func (r *Replay) Snapshot() *ckpt.MachineState {
	m := &r.m
	return &ckpt.MachineState{
		Metrics: [5]uint64{m.H, m.M, m.C, m.Lookups, m.WalkRefs},
		TLB:     r.s.tlb.Snapshot(),
		Hier:    r.s.hier.Snapshot(),
		Walk:    r.s.walk.Snapshot(),
	}
}

// Restore seeds component state and the metrics accumulator from a
// snapshot taken on a simulator of identical platform and fidelity, after
// rejecting clocked (full-machine) checkpoints. The translator memo — a
// pure performance cache, invisible to counters — is cleared rather than
// restored.
//
//mosvet:ckptexempt Now,MissRate,WalkCycles,Instructions,Breakdown,WalkerFree,SumTLB,SumHier clock and accumulator fields are zero in every partial-simulator snapshot; the HasClock guard rejects checkpoints where they are live
func (r *Replay) Restore(st *ckpt.MachineState) error {
	s := r.s
	if st.HasClock {
		return fmt.Errorf("partialsim: restore of a full-machine (clocked) checkpoint into a partial simulator")
	}
	if err := s.tlb.Restore(st.TLB); err != nil {
		return err
	}
	if err := s.hier.Restore(st.Hier); err != nil {
		return err
	}
	if err := s.walk.Restore(st.Walk); err != nil {
		return err
	}
	s.trans.Reset(s.space.PageTable())
	r.m = Metrics{
		H:        st.Metrics[0],
		M:        st.Metrics[1],
		C:        st.Metrics[2],
		Lookups:  st.Metrics[3],
		WalkRefs: st.Metrics[4],
	}
	return nil
}
