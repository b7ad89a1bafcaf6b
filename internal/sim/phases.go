package sim

import (
	"fmt"

	"mosaic/internal/pmu"
	"mosaic/internal/trace"
)

// Phased replay: a multi-phase trace (trace.Phases) carries regime markers,
// and every replay entry point — Engine.Run/RunSampled, RunBatch,
// RunBatchWindowed — attributes counters to each phase and, under sampling,
// extrapolates within phase boundaries instead of across them.
//
// The mechanism is the driver's marks: it records every engine's
// cumulative Result at each phase's prologue end and phase end, and because
// the results are cumulative, the field-wise difference of consecutive
// marks is exactly the phase's contribution. Replay always runs under
// window-delta accounting; with full coverage that accounting is
// bit-identical to the components' own counters, so an exact phased
// replay's headline result telescopes to the same counters a phase-blind
// replay produces.
//
// Under sampling, each phase is its own stratum set: the phased schedule
// (SamplePlan.PhasedWindows) restarts the plan inside every phase — no
// window spans a boundary, and each phase opens with its own exactly
// measured prologue — and the estimator scales each phase's windowed
// counters by that phase's own coverage. A phase transition inside a skip
// stretch therefore never leaks one regime's rates into another's estimate.
// A single-regime trace is the one-span case of the same estimator.

// PhaseResult is one phase's share of a replay: whole-phase counter
// estimates plus the sampled-replay coverage behind them (full coverage
// under exact replay).
type PhaseResult struct {
	Name     string
	Counters pmu.Counters
	// WalkRefs mirrors Result.WalkRefs for the partial simulator.
	WalkRefs uint64
	// MeasuredAccesses and TotalAccesses are the phase's sampling coverage;
	// the counters are extrapolated whenever MeasuredAccesses < TotalAccesses.
	MeasuredAccesses uint64
	TotalAccesses    uint64
}

// span is the positional skeleton of one stratum set of a schedule — a
// phase of a multi-phase trace, or the whole of a single-regime trace: the
// mark positions and coverage the estimator needs. Purely positional, so
// every engine of a batch shares one span set.
type span struct {
	name string
	len  int
	// proHi is the end of the span's first measurement window (its
	// prologue stratum); endHi is the end of its last scheduled window —
	// the cumulative state there equals the state at the span's end,
	// because skipped accesses accumulate nothing.
	proHi, endHi int
	// proMeasured and measured count the prologue's and the whole span's
	// accesses inside measurement windows.
	proMeasured, measured uint64
}

// scheduleOf returns the replay schedule of tr under s — the phased
// schedule for a multi-phase trace — and its spans.
func scheduleOf(tr *trace.Trace, s Sampling) ([]trace.Window, []span) {
	phases := tr.Phases()
	ws := s.Plan().PhasedWindows(phases, tr.Len())
	if phases == nil {
		return ws, []span{spanOf("", tr.Len(), ws)}
	}
	spans := make([]span, len(phases))
	for i, ph := range phases {
		spans[i] = spanOf(ph.Name, ph.Len(), trace.PhaseWindows(ws, ph))
	}
	return ws, spans
}

func spanOf(name string, n int, ws []trace.Window) span {
	sp := span{name: name, len: n}
	for _, w := range ws {
		sp.endHi = w.Hi
		if !w.Measure {
			continue
		}
		sp.measured += uint64(w.Len())
		if sp.proMeasured == 0 {
			sp.proHi, sp.proMeasured = w.Hi, uint64(w.Len())
		}
	}
	return sp
}

// spanMarks lists the positions the estimator reads, as driver marks.
func spanMarks(spans []span) []mark {
	var marks []mark
	for _, sp := range spans {
		marks = addMark(marks, sp.proHi, false)
		marks = addMark(marks, sp.endHi, false)
	}
	return marks
}

// collect indexes the lanes' recorded results by mark position into at:
// at[pos][k] is engine k's cumulative result at pos.
func collect(at map[int][]Result, marks []mark, lanes []lane) {
	for j, m := range marks {
		rs := make([]Result, len(lanes))
		for k := range lanes {
			rs[k] = lanes[k].marks[j]
		}
		at[m.pos] = rs
	}
}

// subResult returns a - b field-wise over the extrapolated counter set.
// Recorded results are cumulative, so consecutive-mark differences are
// span contributions and telescope to the whole-trace totals.
func subResult(a, b Result) Result {
	d := counterPtrs(&a)
	s := counterPtrs(&b)
	for i := range d {
		*d[i] -= *s[i]
	}
	return a
}

// addCounters accumulates src's counters into dst field-wise.
func addCounters(dst *Result, src Result) {
	d := counterPtrs(dst)
	s := counterPtrs(&src)
	for i := range d {
		*d[i] += *s[i]
	}
}

// assemble turns the cumulative results recorded at the span marks into
// per-engine results: for each span, the results at its prologue end and
// its end are differenced against the previous span's end and extrapolated
// with the span's own coverage; the headline result is the sum of the
// per-span estimates, with per-phase attribution when the trace has phases.
// Under exact replay every span is fully covered, extrapolation passes
// through, and the sum telescopes to the exact whole-trace counters
// bit-identically.
func assemble(s Sampling, tr *trace.Trace, spans []span, engines int, at map[int][]Result) ([]Result, error) {
	phased := tr.Phases() != nil
	out := make([]Result, engines)
	for k := range out {
		var prev, sum Result
		var measured uint64
		var phs []PhaseResult
		for _, sp := range spans {
			end, pro := at[sp.endHi], at[sp.proHi]
			if end == nil || pro == nil {
				return nil, fmt.Errorf("sim: span %q boundary (%d, %d) was not recorded",
					sp.name, sp.proHi, sp.endHi)
			}
			pr := s.extrapolate(subResult(end[k], prev), subResult(pro[k], prev),
				sp.proMeasured, sp.measured, uint64(sp.len))
			if phased {
				phs = append(phs, PhaseResult{
					Name:             sp.name,
					Counters:         pr.Counters,
					WalkRefs:         pr.WalkRefs,
					MeasuredAccesses: pr.MeasuredAccesses,
					TotalAccesses:    pr.TotalAccesses,
				})
			}
			addCounters(&sum, pr)
			measured += sp.measured
			prev = end[k]
		}
		sum.Phases = phs
		if s.Enabled() {
			sum.MeasuredAccesses = measured
			sum.TotalAccesses = uint64(tr.Len())
		}
		out[k] = sum
	}
	return out, nil
}
