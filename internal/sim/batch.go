package sim

import (
	"math"

	"mosaic/internal/ckpt"
	"mosaic/internal/trace"
)

// FuseMinBytes chooses the driver's loop order by trace size. Fusing a
// batch (block-major order) means every engine's model state (TLB, caches,
// translator — roughly a megabyte each) is re-streamed at each block
// switch; that only pays off when the alternative — re-streaming the whole
// trace once per engine (engine-major order) — is more expensive, i.e.
// when the trace's columns dwarf the last-level cache. Below the threshold
// each engine replays the (cache-resident) trace alone. Both orders produce
// bit-identical results; tests lower this to force the fused order on small
// fixtures.
var FuseMinBytes = 64 << 20

// fuseBlock is the number of accesses the driver replays per engine before
// advancing to the next engine of a fused batch: large enough to amortize
// the per-engine switch, small enough that the block's trace columns
// (~50KB) stay cache-resident while every engine in the batch streams them.
const fuseBlock = 262144

// mark is a schedule position at which the driver records every engine's
// cumulative Result — the state after all scheduled accesses before pos.
// save additionally checkpoints every engine there.
type mark struct {
	pos  int
	save bool
}

// addMark inserts a mark, keeping marks ascending and deduplicated; a
// position requested both with and without save keeps save.
func addMark(marks []mark, pos int, save bool) []mark {
	i := 0
	for i < len(marks) && marks[i].pos < pos {
		i++
	}
	if i < len(marks) && marks[i].pos == pos {
		marks[i].save = marks[i].save || save
		return marks
	}
	marks = append(marks, mark{})
	copy(marks[i+1:], marks[i:])
	marks[i] = mark{pos: pos, save: save}
	return marks
}

// schedule is what the driver replays: windows in ascending order (accesses
// between them are skipped) and the marks to record along the way.
type schedule struct {
	windows []trace.Window
	marks   []mark
}

// lane is one engine's run plus what the driver records for it: the
// cumulative result at every mark, a checkpoint at every saving mark (nil
// elsewhere), and the cumulative result at the end of the schedule.
type lane struct {
	r     run
	marks []Result
	saved []*ckpt.MachineState
	end   Result
}

// startLanes opens a run of tr on every engine, restored from seeds[k] when
// seeds is non-nil.
func startLanes(engines []Engine, tr *trace.Trace, seeds []*ckpt.MachineState) ([]lane, error) {
	lanes := make([]lane, len(engines))
	for k, e := range engines {
		var seed *ckpt.MachineState
		if seeds != nil {
			seed = seeds[k]
		}
		r, err := e.start(tr, seed)
		if err != nil {
			return nil, err
		}
		lanes[k].r = r
	}
	return lanes, nil
}

// drive replays a schedule through every lane. A trace of at least
// FuseMinBytes replays block-major — each block of accesses through every
// engine before the next block, so the trace is streamed from memory once
// for the whole batch — and a smaller one engine-major. Engines share no
// mutable state and the schedule is purely positional, so the order never
// changes a result.
func drive(tr *trace.Trace, lanes []lane, sc schedule) error {
	if tr.Columns().Bytes() >= FuseMinBytes {
		return replaySchedule(lanes, sc)
	}
	for k := range lanes {
		if err := replaySchedule(lanes[k:k+1], sc); err != nil {
			return err
		}
	}
	return nil
}

// replaySchedule is the one loop over a replay schedule: it cuts the
// windows into blocks of at most fuseBlock accesses, splitting a block at
// any mark inside it, and advances every lane through each block in turn —
// measured blocks bracketed by Open/Close, warmup blocks through Warm.
//
//mosvet:hotpath
func replaySchedule(lanes []lane, sc schedule) error {
	for k := range lanes {
		lanes[k].marks = make([]Result, len(sc.marks))
		lanes[k].saved = make([]*ckpt.MachineState, len(sc.marks))
	}
	mi := 0
	record := func(upTo int) {
		for ; mi < len(sc.marks) && sc.marks[mi].pos <= upTo; mi++ {
			for k := range lanes {
				l := &lanes[k]
				l.marks[mi] = l.r.harvest()
				if sc.marks[mi].save {
					l.saved[mi] = l.r.Snapshot()
				}
			}
		}
	}
	for _, w := range sc.windows {
		for lo := w.Lo; lo < w.Hi; {
			record(lo)
			hi := min(lo+fuseBlock, w.Hi)
			if mi < len(sc.marks) && sc.marks[mi].pos < hi {
				hi = sc.marks[mi].pos
			}
			for k := range lanes {
				r := lanes[k].r
				if !w.Measure {
					if err := r.Warm(lo, hi); err != nil {
						return err
					}
					continue
				}
				r.Open()
				err := r.Measure(lo, hi)
				r.Close()
				if err != nil {
					return err
				}
			}
			lo = hi
		}
	}
	// Marks past the last window see the final state: skipped accesses
	// change nothing.
	record(math.MaxInt)
	for k := range lanes {
		lanes[k].end = lanes[k].r.harvest()
	}
	return nil
}

// RunBatch replays one trace through several engines — one per layout of a
// sweep's protocol, of any mix of kinds — under a shared sampling config
// (the zero Sampling is exact replay), in one pass of the driver. Results
// are bit-identical to running each engine alone: engines share no mutable
// state, the loop order only changes which engine touches which trace
// block first, and the window schedule is purely positional, so every
// engine of a batch measures the same windows a solo run would.
func RunBatch(engines []Engine, tr *trace.Trace, s Sampling) ([]Result, error) {
	return RunBatchWindowed(engines, tr, s, Windowed{})
}

// BatchSpan picks how many layouts one replay job should fuse: enough to
// amortize the trace pass across the batch, but never so many that the
// sweep's job list shrinks below ~2 jobs per worker — a fully fused pair is
// worthless if it leaves workers idle. The span is capped at 16 because the
// fused kernel's win flattens once the batch's combined TLB/cache state no
// longer fits beside the trace block.
func BatchSpan(jobs, workers int) int {
	if workers < 1 {
		workers = 1
	}
	span := jobs / (2 * workers)
	if span < 1 {
		return 1
	}
	if span > 16 {
		return 16
	}
	return span
}
