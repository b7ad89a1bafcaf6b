package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"mosaic/internal/arch"
	"mosaic/internal/cache"
	"mosaic/internal/mem"
	"mosaic/internal/pmu"
	"mosaic/internal/sim"
	"mosaic/internal/tlb"
	"mosaic/internal/trace"
	"mosaic/internal/walker"
)

// The layer split. A replay access costs about 110 ns and one clock read
// pair about 140 ns, so timing every layer call would measure the clock.
// Instead the stack below replays a trace once through the layers
// cpu.Machine composes, in replayRange's order, recording what each layer
// was asked to do; then each layer's recorded stream is replayed alone and
// timed as one loop. Every stream replay reproduces the layer's state
// trajectory exactly (split_test.go checks the counters), so no layer sees
// different hits or misses than in the machine. The timing model cannot be
// replayed alone — its inputs are the other layers' outcomes — so its cost
// is the residual: the stack's whole pass minus the layer loops.

// Timing-model constants of cpu.Machine; the stack's R must equal the
// machine's bit for bit.
const (
	rateTau    = 30000.0
	invRateTau = 1 / rateTau
)

// stack is the layer stack of one cpu.Machine, built from the layer
// packages' public constructors.
type stack struct {
	plat       arch.Platform
	pt         *mem.PageTable
	trans      *mem.Translator
	tlb        *tlb.TLB
	hier       *cache.Hierarchy
	walk       *walker.Walker
	walkerFree []float64
}

// newStack builds the stack cpu.New builds. plat must already be Scaled,
// as the sweep pipeline applies it.
func newStack(plat arch.Platform, space *mem.AddressSpace) (*stack, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	hier, err := cache.NewHierarchy(plat)
	if err != nil {
		return nil, err
	}
	pt := space.PageTable()
	trans := mem.NewTranslator(pt)
	return &stack{
		plat:       plat,
		pt:         pt,
		trans:      trans,
		tlb:        tlb.New(plat.TLB),
		hier:       hier,
		walk:       walker.New(trans, hier, plat.PWC),
		walkerFree: make([]float64, plat.PageWalkers),
	}, nil
}

// reset restores just-built state.
func (s *stack) reset() {
	s.trans.Reset(s.pt)
	s.tlb.Reset()
	s.hier.Reset()
	s.walk.Reset(s.trans)
	clear(s.walkerFree)
}

// streams is what one replay asked of each layer: the page size and
// physical address of every access, which accesses missed the TLB, and the
// page-table entry loads of every walk in order.
type streams struct {
	ps    []mem.PageSize
	phys  []mem.Addr
	miss  []bool
	nrefs []uint8 // per walk
	refs  []mem.Addr
}

// replay runs the whole trace from just-built state through the stack in
// cpu.Machine.replayRange's order, timing arithmetic included, and returns
// the machine's counters. A non-nil rec records the layer streams.
func (s *stack) replay(tr *trace.Trace, rec *streams) (pmu.Counters, error) {
	s.reset()
	cols := tr.Columns()
	n := cols.Len()
	if rec != nil {
		*rec = streams{ps: make([]mem.PageSize, n), phys: make([]mem.Addr, n), miss: make([]bool, n)}
	}
	ooo := s.plat.OOO
	l1Lat := float64(s.plat.L1D.LatencyCycle)
	l2tlbLat := float64(s.plat.TLB.L2LatencyCycles)
	baseCPI := s.plat.BaseCPI
	var now, missRate float64
	var walkCycles, instructions uint64

	for i := 0; i < n; i++ {
		va := cols.VA(i)
		gap := cols.Gap(i)
		dep := cols.Dep(i)
		work := float64(gap) + 1
		instructions += uint64(gap) + 1
		now += work * baseCPI
		if decay := 1 - work*invRateTau; decay > 0 {
			missRate *= decay
		} else {
			missRate = 0
		}

		phys, ps, ok := s.trans.Translate(va)
		if !ok {
			return pmu.Counters{}, fmt.Errorf("%s: access %d faults at %#x", tr.Name, i, uint64(va))
		}
		if rec != nil {
			rec.ps[i], rec.phys[i] = ps, phys
		}

		switch s.tlb.Lookup(va, ps) {
		case tlb.L1Hit:
		case tlb.L2Hit:
			hide := ooo.L2TLBHitHide
			if !dep {
				hide = ooo.IndepWalkHide
			}
			now += l2tlbLat * (1 - hide)
		case tlb.Miss:
			idx := 0
			for j := 1; j < len(s.walkerFree); j++ {
				if s.walkerFree[j] < s.walkerFree[idx] {
					idx = j
				}
			}
			start := now
			if s.walkerFree[idx] > start {
				start = s.walkerFree[idx]
			}
			res := s.walk.Walk(va)
			if res.Fault {
				return pmu.Counters{}, fmt.Errorf("%s: walk faults at %#x", tr.Name, uint64(va))
			}
			if rec != nil {
				if err := rec.recordWalk(s.pt, va, res); err != nil {
					return pmu.Counters{}, err
				}
				rec.miss[i] = true
			}
			lat := float64(res.Latency)
			s.walkerFree[idx] = start + lat
			walkCycles += uint64(res.Latency)

			queueWait := start - now
			var hide float64
			if dep {
				hide = ooo.HideMax / (1 + ooo.HideGap*missRate)
			} else {
				hide = ooo.IndepWalkHide +
					(0.97-ooo.IndepWalkHide)/(1+ooo.HideGap*missRate)
			}
			now += queueWait + lat*(1-hide)
			missRate += 1 / rateTau
			s.tlb.Insert(va, ps)
		}

		lvl, dlat := s.hier.Access(phys, false)
		if lvl != cache.LevelL1 {
			hide := ooo.DataHide
			if !dep {
				hide = ooo.IndepDataHide
			}
			now += (float64(dlat) - l1Lat) * (1 - hide)
		}
	}

	ts := s.tlb.Counts()
	cs := s.hier.Stats()
	return pmu.Counters{
		R:                uint64(now),
		H:                ts.L2Hits,
		M:                ts.Misses,
		C:                walkCycles,
		Instructions:     instructions,
		L1DLoadsProgram:  cs.L1Loads.Program,
		L1DLoadsWalker:   cs.L1Loads.Walker,
		L2LoadsProgram:   cs.L2Loads.Program,
		L2LoadsWalker:    cs.L2Loads.Walker,
		L3LoadsProgram:   cs.L3Loads.Program,
		L3LoadsWalker:    cs.L3Loads.Walker,
		DRAMLoadsProgram: cs.DRAMLoads.Program,
		DRAMLoadsWalker:  cs.DRAMLoads.Walker,
		TLBLookups:       ts.Lookups,
	}, nil
}

// recordWalk records the entry loads a walk issued: the refs of the radix
// walk below the levels its page-walk caches skipped.
func (r *streams) recordWalk(pt *mem.PageTable, va mem.Addr, res walker.Result) error {
	tr, ok := pt.WalkFrom(va, res.Skipped)
	if !ok || tr.NumRefs != res.Refs {
		return fmt.Errorf("walk of %#x: page table gives %d refs, walker issued %d", uint64(va), tr.NumRefs, res.Refs)
	}
	for _, ref := range tr.Refs[:tr.NumRefs] {
		r.refs = append(r.refs, ref.EntryPhys)
	}
	r.nrefs = append(r.nrefs, uint8(tr.NumRefs))
	return nil
}

// sinkAddr keeps the stream loops' results live.
var sinkAddr mem.Addr

// replayTranslate replays the translator's stream alone.
func (s *stack) replayTranslate(cols *trace.Columns) {
	s.trans.Reset(s.pt)
	var sum mem.Addr
	for i := 0; i < cols.Len(); i++ {
		phys, _, _ := s.trans.Translate(cols.VA(i))
		sum += phys
	}
	sinkAddr = sum
}

// replayTLB replays the TLB's stream alone: a lookup per access and an
// insert after every miss.
func (s *stack) replayTLB(cols *trace.Columns, rec *streams) {
	s.tlb.Reset()
	for i := 0; i < cols.Len(); i++ {
		va, ps := cols.VA(i), rec.ps[i]
		if s.tlb.Lookup(va, ps) == tlb.Miss {
			s.tlb.Insert(va, ps)
		}
	}
}

// replayHierarchy replays the cache hierarchy's stream alone: each walk's
// entry loads, then the program's data load, per access.
func (s *stack) replayHierarchy(rec *streams) {
	s.hier.Reset()
	w, r := 0, 0
	for i, phys := range rec.phys {
		if rec.miss[i] {
			for k := 0; k < int(rec.nrefs[w]); k++ {
				s.hier.Access(rec.refs[r], true)
				r++
			}
			w++
		}
		s.hier.Access(phys, false)
	}
}

// replayWalks replays the walker's stream with the hierarchy: a walk per
// TLB miss, then the program's data load, per access. The translator memo
// the walker resolves through is warmed first, as the machine's
// translations warm it.
func (s *stack) replayWalks(cols *trace.Columns, rec *streams) {
	s.replayTranslate(cols)
	s.walk.Reset(s.trans)
	s.hier.Reset()
	for i, phys := range rec.phys {
		if rec.miss[i] {
			s.walk.Walk(cols.VA(i))
		}
		s.hier.Access(phys, false)
	}
}

// splitCase is one (trace, platform, layout) the split replays.
type splitCase struct {
	tr    *trace.Trace
	plat  arch.Platform // Scaled
	space *mem.AddressSpace
	name  string
}

// splitTotals sums the split's loop times and counters over its cases.
type splitTotals struct {
	accesses uint64
	// pass is the stack's whole pass; mach the machine's replay of the
	// same case through sim.Engine.Run.
	pass, mach                 time.Duration
	trans, tlb, hier, walkHier time.Duration
	// walkLoads is the walker's share of hier: hier scaled by the walker's
	// share of the hierarchy's level visits in that case.
	walkLoads time.Duration
	tlbCounts tlb.Counts
	walk      walker.Stats
	cache     cache.Stats
}

// splitRepeats is how many rounds of the split's loops run per case. A
// round runs every loop once, in turn, so the loops being compared see the
// same host conditions; each loop's fastest round counts, as the one the
// host disturbed least. Every loop starts from just-built layer state, so
// each round does the same work.
const splitRepeats = 5

// runSplit replays every case through the stack, the machine and each
// layer's stream, and counts one operation per case; a case fails when
// the stack's or a stream's counters differ from the machine's.
func runSplit(b *bench, cases []splitCase) (splitTotals, error) {
	var t splitTotals
	var engines sim.Pool
	for _, c := range cases {
		st, err := newStack(c.plat, c.space)
		if err != nil {
			return t, err
		}
		eng, err := engines.Full(c.plat, c.space)
		if err != nil {
			return t, err
		}
		var rec streams
		if _, err := st.replay(c.tr, &rec); err != nil {
			return t, err
		}
		cols := c.tr.Columns()

		var want sim.Result
		var got pmu.Counters
		var tlbAlone tlb.Counts
		var hierAlone cache.Stats
		loops := []func() error{
			func() error {
				if err := eng.Reset(c.plat, c.space); err != nil {
					return err
				}
				want, err = eng.Run(c.tr)
				return err
			},
			func() error { got, err = st.replay(c.tr, nil); return err },
			func() error { st.replayTranslate(cols); return nil },
			func() error { st.replayTLB(cols, &rec); tlbAlone = st.tlb.Counts(); return nil },
			func() error { st.replayHierarchy(&rec); hierAlone = st.hier.Stats(); return nil },
			func() error { st.replayWalks(cols, &rec); return nil },
		}
		best := make([]time.Duration, len(loops))
		for r := 0; r < splitRepeats; r++ {
			for k, loop := range loops {
				t0 := time.Now()
				if err := loop(); err != nil {
					return t, err
				}
				if d := time.Since(t0); r == 0 || d < best[k] {
					best[k] = d
				}
			}
		}
		t.mach += best[0]
		t.pass += best[1]
		t.trans += best[2]
		t.tlb += best[3]
		t.hier += best[4]
		t.walkHier += best[5]
		m := eng.Machine()
		engines.Put(eng)

		var bad error
		switch {
		case got != want.Counters:
			bad = fmt.Errorf("stack counters %v, machine %v", got, want.Counters)
		case tlbAlone != m.TLB().Counts():
			bad = fmt.Errorf("TLB stream counts %+v, machine %+v", tlbAlone, m.TLB().Counts())
		case hierAlone != m.Hierarchy().Stats():
			bad = fmt.Errorf("hierarchy stream stats %+v, machine %+v", hierAlone, m.Hierarchy().Stats())
		case st.walk.Stats() != m.Walker().Stats() || st.hier.Stats() != hierAlone:
			bad = fmt.Errorf("walker stream stats %+v, machine %+v", st.walk.Stats(), m.Walker().Stats())
		}
		b.op("layer split of "+c.name, bad)

		cs := hierAlone
		walkVisits := cs.L1Loads.Walker + cs.L2Loads.Walker + cs.L3Loads.Walker + cs.DRAMLoads.Walker
		allVisits := cs.L1Loads.Total() + cs.L2Loads.Total() + cs.L3Loads.Total() + cs.DRAMLoads.Total()
		if allVisits > 0 {
			t.walkLoads += time.Duration(float64(best[4]) * float64(walkVisits) / float64(allVisits))
		}
		t.accesses += uint64(cols.Len())
		t.tlbCounts = t.tlbCounts.Add(tlbAlone)
		t.cache = t.cache.Add(cs)
		ws := st.walk.Stats()
		t.walk.Walks += ws.Walks
		t.walk.EntryLoads += ws.EntryLoads
	}
	return t, nil
}

// splitTolerance bounds how far the split's sum — the stack's pass — may
// stray from the machine's own replay of the same cases before the run
// warns that the split no longer accounts for the replay.
const splitTolerance = 0.15

// report sets the split's per-layer metrics.
func (t splitTotals) report(b *bench) {
	n := float64(max(t.accesses, 1))
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }
	b.set("mem.translate_ns", "ns", ns(t.trans))
	b.set("tlb.lookup_ns", "ns", ns(t.tlb))
	b.set("walker.walk_ns", "ns", ns(t.walkHier-t.hier+t.walkLoads))
	b.set("cache.access_ns", "ns", ns(t.hier-t.walkLoads))
	b.set("cpu.timing_ns", "ns", ns(t.pass-t.trans-t.tlb-t.walkHier))
	ratio := float64(t.pass) / float64(max(t.mach, 1))
	b.set("split.sum_over_replay", "ratio", ratio)
	if math.Abs(ratio-1) > splitTolerance {
		fmt.Fprintf(os.Stderr, "perfbench: layer split sums to %.3f of the machine's replay, outside 1±%.2f\n", ratio, splitTolerance)
	}

	b.set("tlb.miss_per_kaccess", "count", 1000*float64(t.tlbCounts.Misses)/float64(max(t.tlbCounts.Lookups, 1)))
	b.set("walker.loads_per_walk", "count", float64(t.walk.EntryLoads)/float64(max(t.walk.Walks, 1)))
	l1 := float64(max(t.cache.L1Loads.Total(), 1))
	b.set("cache.l1_hit_pct", "%", 100*(1-float64(t.cache.L2Loads.Total())/l1))
	b.set("cache.llc_miss_pct", "%", 100*float64(t.cache.DRAMLoads.Total())/float64(max(t.cache.L3Loads.Total(), 1)))
}
