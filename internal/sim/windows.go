package sim

import (
	"sync"

	"mosaic/internal/ckpt"
	"mosaic/internal/trace"
)

// DefaultWarmLen is the functional-warmup run-in before each window of a
// warmup-reconstructed (Windowed.Warm) replay. It matches the order of the
// sampling pipeline's warmup lengths: long enough to cover typical TLB/PWC
// reuse distances, short enough that K workers' warmups stay a small
// fraction of the trace.
const DefaultWarmLen = 1 << 16

// Windowed configures parallel windowed replay: the trace's replay schedule
// is split into K contiguous chunks (trace.WindowPlan) and the chunks are
// replayed concurrently, each worker on its own engines.
//
// Two fidelity modes:
//
//   - Exact (Warm == false, the default). A chunk boundary can only be
//     crossed with the exact machine state at that position, so workers run
//     *segments*: the first segment starts at position 0 on the caller's
//     engines, and every other segment starts at a boundary whose MOSCKPT01
//     checkpoint (all engines of the batch) was found in Store. Checkpoints
//     carry cumulative clock and window-sum state, so results recorded in
//     a later segment are whole-prefix answers — bit-identical to
//     unwindowed replay by construction, whatever subset of boundaries was
//     cached. Segments checkpoint the boundaries they run through and save
//     them to Store, so a cold run (one sequential segment — plain RunBatch
//     plus snapshot cost) makes every later run of the same sweep parallel.
//
//   - Warmup-reconstructed (Warm == true). All K chunks replay concurrently
//     on freshly reset engines, each behind WarmLen accesses of functional
//     warmup into its boundary, and the per-chunk counter deltas are
//     summed. No checkpoints, no sequential
//     cold run — but chunk-boundary state is reconstructed, not exact, so
//     results inherit sampling's noise-envelope accuracy contract instead
//     of bit-identity.
//
// Engines cloned for non-first workers come from Pool and share the
// caller's address spaces directly: a clone takes no SpaceCache reference
// of its own — the caller's job holds the space reference for the whole
// RunBatchWindowed call, and every clone is returned to Pool before it
// returns, so per-engine refcounting never goes through the cache (see
// TestWindowedSpaceRefs).
type Windowed struct {
	// K is the target chunk count; values < 2 disable windowing.
	K int
	// Warm selects warmup-reconstructed mode (approximate, checkpoint-free).
	Warm bool
	// WarmLen is the warmup run-in per chunk in Warm mode; values < 1 mean
	// DefaultWarmLen.
	WarmLen int
	// Store, when non-nil, is the checkpoint cache exact mode loads
	// boundary states from and saves them to. Requires Keys.
	Store *ckpt.Store
	// Keys identifies each engine's checkpoint stream — one per engine,
	// encoding everything state depends on (trace, platform, layout
	// configuration, engine kind, fidelity, sampling plan, accounting
	// generation). Positions are
	// deliberately excluded: checkpoints are shared across K values.
	Keys []string
	// Pool supplies per-worker engine clones; nil builds throwaway engines.
	Pool *Pool
	// Workers bounds concurrent window workers; values < 1 mean one per
	// segment. Callers embedding windowed replay inside a scheduler share
	// the scheduler's budget by setting this (see internal/experiment).
	Workers int
}

// Enabled reports whether the config actually windows.
func (w Windowed) Enabled() bool { return w.K > 1 }

// segment is one worker's contiguous share of a replay schedule, and what
// the driver recorded for it.
type segment struct {
	schedule
	first bool                 // runs on the caller's engines from their current state
	seeds []*ckpt.MachineState // nil for cold segments
	lanes []lane
}

// RunBatchWindowed is RunBatch with parallel windowed replay. A disabled
// config or a trace too small to chunk replays as one segment on the
// caller's engines — plain RunBatch. Results are identical either way
// (bit-identical in exact mode).
func RunBatchWindowed(engines []Engine, tr *trace.Trace, s Sampling, w Windowed) ([]Result, error) {
	// Multi-phase traces chunk over the phased schedule so no chunk window
	// ever spans a phase boundary; under an exact plan the phased schedule
	// covers the same accesses and the cut positions are identical to the
	// phase-blind even split.
	windows, spans := scheduleOf(tr, s)
	chunks := []trace.Chunk{{Windows: windows}}
	if w.Enabled() && len(windows) > 0 {
		chunks = trace.WindowPlan{Windows: w.K}.ChunksFor(windows, !s.Enabled())
	}
	if w.Warm && len(chunks) > 1 {
		return runWindowedWarm(engines, tr, s, w, chunks, spans)
	}
	return runWindowedExact(engines, tr, s, w, chunks, spans)
}

// runWindowedExact is exact mode: segments between cached boundaries, each
// recording the span marks it covers, missing boundaries checkpointed and
// saved for the next run. Recorded results are cumulative — a seeded
// segment resumes the whole prefix's counters — so assembling them is
// bit-identical to one sequential pass.
func runWindowedExact(engines []Engine, tr *trace.Trace, s Sampling, w Windowed, chunks []trace.Chunk, spans []span) ([]Result, error) {
	useStore := w.Store != nil && len(w.Keys) == len(engines)

	segs := []segment{{first: true}}
	for ci, c := range chunks {
		cur := &segs[len(segs)-1]
		if ci > 0 && useStore {
			if seeds := loadSeeds(w.Store, w.Keys, c.Pos); seeds != nil {
				segs = append(segs, segment{seeds: seeds})
				cur = &segs[len(segs)-1]
			} else {
				cur.marks = addMark(cur.marks, c.Pos, true)
			}
		}
		cur.windows = append(cur.windows, c.Windows...)
	}

	// Route each span mark into the first segment that reaches it; a mark
	// on a boundary between two segments is recorded at the end of the
	// earlier one.
	for _, m := range spanMarks(spans) {
		si := 0
		for si < len(segs)-1 {
			ws := segs[si].windows
			if m.pos <= ws[len(ws)-1].Hi {
				break
			}
			si++
		}
		segs[si].marks = addMark(segs[si].marks, m.pos, false)
	}

	if err := runSegments(engines, tr, w, segs); err != nil {
		return nil, err
	}

	at := make(map[int][]Result)
	for _, seg := range segs {
		for j, m := range seg.marks {
			if m.save {
				for k := range engines {
					if err := w.Store.Save(w.Keys[k], m.pos, seg.lanes[k].saved[j]); err != nil {
						return nil, err
					}
				}
			}
		}
		collect(at, seg.marks, seg.lanes)
	}
	return assemble(s, tr, spans, len(engines), at)
}

// loadSeeds loads every engine's checkpoint at pos. A boundary is usable
// only when every engine of the batch has a valid checkpoint there — a
// partial set would split the batch. Unreadable files (truncated, stale,
// colliding) count as misses and are regenerated, mirroring the trace
// cache.
func loadSeeds(store *ckpt.Store, keys []string, pos int) []*ckpt.MachineState {
	seeds := make([]*ckpt.MachineState, len(keys))
	for k, key := range keys {
		st, err := store.Load(key, pos)
		if err != nil || st == nil {
			return nil
		}
		seeds[k] = st
	}
	return seeds
}

// runWindowedWarm is warmup-reconstructed mode: every chunk replays
// concurrently on reset engines behind a private functional-warmup run-in,
// and the per-chunk counter deltas are summed.
func runWindowedWarm(engines []Engine, tr *trace.Trace, s Sampling, w Windowed, chunks []trace.Chunk, spans []span) ([]Result, error) {
	warmLen := w.WarmLen
	if warmLen < 1 {
		warmLen = DefaultWarmLen
	}
	segs := make([]segment, len(chunks))
	for ci, c := range chunks {
		seg := &segs[ci]
		seg.first = ci == 0
		if lo := max(c.Pos-warmLen, 0); ci > 0 && lo < c.Pos {
			seg.windows = append(seg.windows, trace.Window{Lo: lo, Hi: c.Pos})
		}
		seg.windows = append(seg.windows, c.Windows...)
	}
	// The schedule's first measurement window — phase 0's prologue on a
	// phased trace — is the prologue stratum; chunk 0 holds it whole.
	segs[0].marks = []mark{{pos: spans[0].proHi}}

	if err := runSegments(engines, tr, w, segs); err != nil {
		return nil, err
	}

	sum := make([]Result, len(engines))
	for _, seg := range segs {
		for k := range sum {
			addCounters(&sum[k], seg.lanes[k].end)
		}
	}
	if s.Enabled() {
		// Warm mode extrapolates globally and leaves Result.Phases nil:
		// reconstructed boundary state cannot place exact counters at phase
		// boundaries, and its contract is the sampling noise envelope, not
		// bit-identity.
		var measured uint64
		for _, sp := range spans {
			measured += sp.measured
		}
		for k := range sum {
			sum[k] = s.extrapolate(sum[k], segs[0].lanes[k].marks[0],
				spans[0].proMeasured, measured, uint64(tr.Len()))
		}
	}
	return sum, nil
}

// runSegments replays the segments concurrently, bounded by w.Workers. The
// first segment runs on the caller's engines; every other worker clones
// its engines from w.Pool (sharing the caller's address spaces — no
// SpaceCache traffic) and returns them before finishing.
func runSegments(engines []Engine, tr *trace.Trace, w Windowed, segs []segment) error {
	if len(segs) == 1 {
		return segs[0].run(engines, tr, w.Pool)
	}
	workers := w.Workers
	if workers < 1 || workers > len(segs) {
		workers = len(segs)
	}
	errs := make([]error, len(segs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for si := range segs {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[si] = segs[si].run(engines, tr, w.Pool)
		}(si)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run replays the segment through the driver: on the caller's engines for
// the first segment, on worker-private clones otherwise.
func (g *segment) run(engines []Engine, tr *trace.Trace, pool *Pool) error {
	if !g.first {
		clones := make([]Engine, 0, len(engines))
		defer func() {
			if pool != nil {
				for _, e := range clones {
					pool.Put(e)
				}
			}
		}()
		for _, e := range engines {
			c, err := e.clone(pool)
			if err != nil {
				return err
			}
			clones = append(clones, c)
		}
		engines = clones
	}
	lanes, err := startLanes(engines, tr, g.seeds)
	if err != nil {
		return err
	}
	if err := drive(tr, lanes, g.schedule); err != nil {
		return err
	}
	g.lanes = lanes
	return nil
}
