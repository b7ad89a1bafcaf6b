// Package sim is the simulation-engine layer: it decomposes a replay into
// explicit stages — build the address space, acquire an engine, run the
// trace — and unifies the full timing machine (internal/cpu) and the
// partial simulator (internal/partialsim) behind one Engine interface with
// Reset(platform) + Run(trace) semantics.
//
// The layer exists for throughput. The paper's value proposition is that
// partial simulation plus a model is *fast* (§II-B), yet a naive
// measurement pipeline rebuilds the whole simulated world — process,
// Mosalloc pools, TLB/cache/walker arrays — for every one of the ~3,100
// replays in the 3-platform × 19-workload × 54-layout sweep. sim provides
// the three reusable pieces that remove that overhead:
//
//   - Engine / Pool: machines are Reset and reused instead of reallocated,
//     with the guarantee (tested) that a Reset engine replays
//     bit-identically to a fresh one;
//   - SpaceCache: the (workload, layout) address space is built once and
//     shared read-only across every platform replay that uses the same
//     layout configuration — translation state is immutable during replay;
//   - Scheduler: every (workload, platform, layout) job of a sweep flattens
//     into one bounded worker pool with per-stage timing counters and
//     progress/ETA reporting.
package sim

import (
	"mosaic/internal/arch"
	"mosaic/internal/ckpt"
	"mosaic/internal/cpu"
	"mosaic/internal/mem"
	"mosaic/internal/partialsim"
	"mosaic/internal/pmu"
	"mosaic/internal/trace"
)

// Result is the unified output of one replay. The full machine populates
// every counter; the partial simulator populates only the virtual-memory
// subset (H, M, C, TLBLookups) plus WalkRefs, leaving R zero — runtime is
// exactly what a partial simulation cannot produce (§I).
type Result struct {
	Counters pmu.Counters
	// WalkRefs is the number of page-table entry loads issued (reported by
	// the partial simulator; the full machine folds them into the walker
	// cache counters).
	WalkRefs uint64
	// MeasuredAccesses and TotalAccesses record the sampled-replay coverage
	// behind the counters: MeasuredAccesses were replayed at full fidelity,
	// and the counters are extrapolated whole-trace estimates whenever
	// MeasuredAccesses < TotalAccesses. Exact replay (sampling disabled)
	// leaves both zero, so existing exact results compare bit-identically.
	MeasuredAccesses uint64
	TotalAccesses    uint64
	// Phases attributes the counters to the trace's regimes, in trace
	// order, when the replayed trace carried phase markers (see phases.go).
	// Nil for single-regime traces and for warmup-reconstructed windowed
	// replay, which cannot place exact state at phase boundaries.
	Phases []PhaseResult
}

// Equal reports bit-exact equality of two results, including phase
// attribution. (The Phases slice makes Result non-comparable with ==; the
// golden bit-identity tests compare through this instead.)
func (r Result) Equal(o Result) bool {
	if r.Counters != o.Counters || r.WalkRefs != o.WalkRefs ||
		r.MeasuredAccesses != o.MeasuredAccesses || r.TotalAccesses != o.TotalAccesses ||
		len(r.Phases) != len(o.Phases) {
		return false
	}
	for i := range r.Phases {
		if r.Phases[i] != o.Phases[i] {
			return false
		}
	}
	return true
}

// Engine is one reusable simulator: the full timing machine or the partial
// simulator, re-targetable at a platform and address space between runs.
// The interface is sealed — every replay entry point drives engines through
// the unexported run contract, which only this package's engines implement.
type Engine interface {
	// Platform returns the platform the engine currently models.
	Platform() arch.Platform
	// Reset re-targets the engine, restoring just-built state; a Reset
	// engine must replay bit-identically to a freshly constructed one.
	Reset(plat arch.Platform, space *mem.AddressSpace) error
	// Run replays a trace and returns the engine's counters.
	Run(tr *trace.Trace) (Result, error)
	// RunSampled replays a trace under a sampling config, extrapolating the
	// windowed counters to whole-trace estimates. A disabled config is
	// bit-identical to Run.
	RunSampled(tr *trace.Trace, s Sampling) (Result, error)

	// start opens a run of tr on the engine, restored from seed when it is
	// non-nil.
	start(tr *trace.Trace, seed *ckpt.MachineState) (run, error)
	// clone acquires a worker-private engine with the same platform,
	// address space and fidelity, from pool when it is non-nil.
	clone(pool *Pool) (Engine, error)
}

// run is the per-engine run contract the window-schedule driver advances
// (see drive): Measure replays an access range through the full model,
// Warm advances model state through one without counting, Open and Close
// bracket every measured range, Snapshot checkpoints the run, and harvest
// returns its cumulative Result. cpu.Replay and partialsim.Replay supply
// everything but harvest; the adapters below lift their tallies into a
// Result.
type run interface {
	Measure(lo, hi int) error
	Warm(lo, hi int) error
	Open()
	Close()
	Snapshot() *ckpt.MachineState
	harvest() Result
}

type fullRun struct{ *cpu.Replay }

func (r fullRun) harvest() Result { return Result{Counters: r.Counters()} }

type partialRun struct{ *partialsim.Replay }

func (r partialRun) harvest() Result { return metricsResult(r.Metrics()) }

// runOne is Engine.RunSampled for every engine: a batch of one.
func runOne(e Engine, tr *trace.Trace, s Sampling) (Result, error) {
	rs, err := RunBatch([]Engine{e}, tr, s)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// Full wraps the full timing machine (internal/cpu) as an Engine.
type Full struct {
	m *cpu.Machine
}

// NewFull builds a full-machine engine.
func NewFull(plat arch.Platform, space *mem.AddressSpace) (*Full, error) {
	m, err := cpu.New(plat, space)
	if err != nil {
		return nil, err
	}
	return &Full{m: m}, nil
}

// Machine exposes the wrapped timing machine (for ablation knobs and tests).
func (f *Full) Machine() *cpu.Machine { return f.m }

// Platform implements Engine.
func (f *Full) Platform() arch.Platform { return f.m.Platform() }

// Reset implements Engine.
func (f *Full) Reset(plat arch.Platform, space *mem.AddressSpace) error {
	return f.m.Reset(plat, space)
}

// Run implements Engine. A multi-phase trace's result carries per-phase
// attribution.
func (f *Full) Run(tr *trace.Trace) (Result, error) { return runOne(f, tr, Sampling{}) }

// RunSampled implements Engine.
func (f *Full) RunSampled(tr *trace.Trace, s Sampling) (Result, error) { return runOne(f, tr, s) }

func (f *Full) start(tr *trace.Trace, seed *ckpt.MachineState) (run, error) {
	r := f.m.Start(tr)
	if seed != nil {
		if err := r.Restore(seed); err != nil {
			return nil, err
		}
	}
	return fullRun{r}, nil
}

func (f *Full) clone(pool *Pool) (Engine, error) {
	if pool == nil {
		return NewFull(f.Platform(), f.m.Space())
	}
	return pool.Full(f.Platform(), f.m.Space())
}

// Partial wraps the partial simulator (internal/partialsim) as an Engine.
// Its one fidelity knob is the wrapped simulator's SimulateProgramCache
// (the paper's §VII-D "perfectly accurate partial simulator"), which Reset
// clears.
type Partial struct {
	s *partialsim.Simulator
}

// NewPartial builds a partial-simulator engine.
func NewPartial(plat arch.Platform, space *mem.AddressSpace) (*Partial, error) {
	s, err := partialsim.New(plat, space)
	if err != nil {
		return nil, err
	}
	return &Partial{s: s}, nil
}

// Simulator exposes the wrapped partial simulator (for the fidelity knob
// and tests).
func (p *Partial) Simulator() *partialsim.Simulator { return p.s }

// Platform implements Engine.
func (p *Partial) Platform() arch.Platform { return p.s.Platform() }

// Reset implements Engine. SimulateProgramCache is cleared, matching a
// fresh simulator; callers set it again before Run as needed.
func (p *Partial) Reset(plat arch.Platform, space *mem.AddressSpace) error {
	return p.s.Reset(plat, space)
}

// Run implements Engine. A multi-phase trace's result carries per-phase
// attribution.
func (p *Partial) Run(tr *trace.Trace) (Result, error) { return runOne(p, tr, Sampling{}) }

// RunSampled implements Engine.
func (p *Partial) RunSampled(tr *trace.Trace, s Sampling) (Result, error) { return runOne(p, tr, s) }

func (p *Partial) start(tr *trace.Trace, seed *ckpt.MachineState) (run, error) {
	r := p.s.Start(tr)
	if seed != nil {
		if err := r.Restore(seed); err != nil {
			return nil, err
		}
	}
	return partialRun{r}, nil
}

func (p *Partial) clone(pool *Pool) (Engine, error) {
	var cp *Partial
	var err error
	if pool == nil {
		cp, err = NewPartial(p.Platform(), p.s.Space())
	} else {
		cp, err = pool.Partial(p.Platform(), p.s.Space())
	}
	if err != nil {
		return nil, err
	}
	cp.s.SimulateProgramCache = p.s.SimulateProgramCache
	return cp, nil
}

// metricsResult lifts the partial simulator's metrics into the unified
// result shape.
func metricsResult(m partialsim.Metrics) Result {
	return Result{
		Counters: pmu.Counters{H: m.H, M: m.M, C: m.C, TLBLookups: m.Lookups},
		WalkRefs: m.WalkRefs,
	}
}
