package main

import (
	"fmt"
	"path/filepath"

	"mosaic/internal/arch"
	"mosaic/internal/experiment"
	"mosaic/internal/layout"
	"mosaic/internal/mem"
	"mosaic/internal/sim"
	"mosaic/internal/trace"
	"mosaic/internal/workloads"
)

// physMem matches the simulated physical memory experiment.Runner gives
// every replay process.
const physMem = 1 << 36

// pipeline is a sweep rebuilt from the packages' public calls, so the
// traced run can time each stage on its own: trace.Load →
// Runner.ProtocolLayouts → sim.BuildSpace → sim.RunBatch →
// experiment.Assemble. It plans every pair before replaying, batches
// layouts with sim.BatchSpan at one worker and shares address spaces
// across a workload's platforms, as Runner.CollectAll does; its datasets
// equal CollectAll's bit for bit (pipeline_test.go).
type pipeline struct {
	spec    sweepSpec
	tr      *tracer
	op      int
	planner *experiment.Runner
	engines sim.Pool
	stats   pipeStats
}

// pipeStats counts what one pipeline's sweeps did.
type pipeStats struct {
	spaceBuilds int
	batches     int
	layouts     int
	// covered counts every access of every replayed layout; replayed only
	// those run through the timing model or functional warmup; measured
	// only those inside measurement windows.
	covered, replayed, measured uint64
}

func newPipeline(spec sweepSpec, tr *tracer, op int) *pipeline {
	planner := experiment.NewRunner()
	planner.Proto = spec.proto
	return &pipeline{spec: spec, tr: tr, op: op, planner: planner}
}

// cachedTrace is one workload's trace in a set-up's trace cache.
type cachedTrace struct {
	w      workloads.Workload
	path   string
	target layout.Target
}

// cachedTraces finds each prepared workload's trace file in the cache
// directory.
func cachedTraces(dir string, wds []*experiment.WorkloadData) ([]cachedTrace, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.mostrace"))
	if err != nil {
		return nil, err
	}
	byName := make(map[string]string, len(paths))
	for _, p := range paths {
		tr, err := trace.Load(p)
		if err != nil {
			return nil, err
		}
		byName[tr.Name] = p
	}
	out := make([]cachedTrace, 0, len(wds))
	for _, wd := range wds {
		p, ok := byName[wd.Workload.Name()]
		if !ok {
			return nil, fmt.Errorf("no cached trace for %s in %s", wd.Workload.Name(), dir)
		}
		out = append(out, cachedTrace{w: wd.Workload, path: p, target: wd.Target})
	}
	return out, nil
}

// pairRun is one (workload, platform) pair in flight.
type pairRun struct {
	wd   *experiment.WorkloadData
	plat arch.Platform
	lays []layout.Layout
	res  []sim.Result
}

// sweep measures every pair, workload-major, under parent.
func (p *pipeline) sweep(parent int, inputs []cachedTrace, plats []arch.Platform) ([]*experiment.Dataset, error) {
	var pairs []*pairRun
	total := 0
	for _, in := range inputs {
		var tr *trace.Trace
		err := p.tr.do("trace.load", p.op, parent, func() error {
			var err error
			tr, err = trace.Load(in.path)
			return err
		})
		if err != nil {
			return nil, err
		}
		if tr.Name != in.w.Name() {
			return nil, fmt.Errorf("%s holds %q, want %q", in.path, tr.Name, in.w.Name())
		}
		wd := &experiment.WorkloadData{Workload: in.w, Trace: tr, Target: in.target}
		for _, plat := range plats {
			pr := &pairRun{wd: wd, plat: plat}
			_ = p.tr.do("layout.protocol", p.op, parent, func() error {
				pr.lays = p.planner.ProtocolLayouts(wd, plat)
				return nil
			})
			pr.res = make([]sim.Result, len(pr.lays))
			total += len(pr.lays)
			pairs = append(pairs, pr)
		}
	}

	// Spaces live from their first use to their last, like
	// sim.SpaceCache's registered uses.
	uses := make(map[string]int)
	for _, pr := range pairs {
		for _, lay := range pr.lays {
			uses[sim.SpaceKey(lay.Cfg)]++
		}
	}
	spaces := make(map[string]*mem.AddressSpace)
	span := sim.BatchSpan(total, 1)
	out := make([]*experiment.Dataset, 0, len(pairs))
	for _, pr := range pairs {
		plat := pr.plat.Scaled()
		tr := pr.wd.Trace
		replayed := uint64(0)
		for _, w := range tr.Columns().Windows(p.spec.sampling.Plan()) {
			replayed += uint64(w.Len())
		}
		for lo := 0; lo < len(pr.lays); lo += span {
			lays := pr.lays[lo:min(lo+span, len(pr.lays))]
			engines := make([]sim.Engine, len(lays))
			for k, lay := range lays {
				key := sim.SpaceKey(lay.Cfg)
				space := spaces[key]
				if space == nil {
					err := p.tr.do("sim.space", p.op, parent, func() error {
						var err error
						space, err = sim.BuildSpace(physMem, lay.Cfg)
						return err
					})
					if err != nil {
						return nil, fmt.Errorf("layout %s: %w", lay.Name, err)
					}
					spaces[key] = space
					p.stats.spaceBuilds++
				}
				eng, err := p.engines.Full(plat, space)
				if err != nil {
					return nil, err
				}
				engines[k] = eng
			}
			var res []sim.Result
			err := p.tr.do("sim.replay", p.op, parent, func() error {
				var err error
				res, err = sim.RunBatch(engines, tr, p.spec.sampling)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", tr.Name, plat.Name, err)
			}
			copy(pr.res[lo:], res)
			for _, eng := range engines {
				p.engines.Put(eng)
			}
			for _, lay := range lays {
				key := sim.SpaceKey(lay.Cfg)
				if uses[key]--; uses[key] == 0 {
					delete(spaces, key)
				}
			}
			n := uint64(len(lays))
			p.stats.batches++
			p.stats.layouts += len(lays)
			p.stats.covered += n * uint64(tr.Len())
			p.stats.replayed += n * replayed
			if m := res[0].MeasuredAccesses; m > 0 {
				p.stats.measured += n * m
			} else {
				p.stats.measured += n * uint64(tr.Len())
			}
		}
		var ds *experiment.Dataset
		err := p.tr.do("experiment.assemble", p.op, parent, func() error {
			var err error
			ds, err = experiment.Assemble(pr.wd.Workload.Name(), pr.plat.Name, pr.lays, pr.res)
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, ds)
	}
	return out, nil
}
