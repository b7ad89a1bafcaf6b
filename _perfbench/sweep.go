package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"mosaic/internal/arch"
	"mosaic/internal/experiment"
	"mosaic/internal/models"
	"mosaic/internal/sim"
	"mosaic/internal/trace"
	"mosaic/internal/workloads"
)

// sweepSpec is one sweep configuration: which workloads and platforms,
// which layout protocol, and the replay fidelity.
type sweepSpec struct {
	name      string
	workloads []string
	stretch   int
	plats     []arch.Platform
	proto     experiment.Protocol
	sampling  sim.Sampling
}

var (
	// exactSpec spends nearly all its time in replay: 12 pairs × 55
	// layouts of ~120k-access traces, too small for the fused kernel. The
	// RMAT graph behind gapbs/pr-twitter is most of its set-up, and the
	// dbindex trace keeps the phased replay path covered.
	exactSpec = sweepSpec{
		name:      "sweep-exact",
		workloads: []string{"gups/8GB", "spec06/mcf", "gapbs/pr-twitter", "dbindex/btree-point-zipf"},
		stretch:   1,
		plats:     arch.Experimental,
		proto:     experiment.Standard,
	}
	// sampledSpec takes the path exact sweeps never take: a 94MB trace
	// loaded from the cache, decoded and replayed by the fused kernel under
	// systematic sampling, where window scheduling and functional warmup
	// cost more than the measured windows.
	sampledSpec = sweepSpec{
		name:      "sweep-sampled-x64",
		workloads: []string{"gups/8GB"},
		stretch:   64,
		plats:     []arch.Platform{arch.SandyBridge},
		proto:     experiment.Standard,
		sampling:  sim.DefaultSampling,
	}
	// trainSpec is the serve-predict set-up's training sweep.
	trainSpec = sweepSpec{
		name:      "serve-predict",
		workloads: []string{"gups/8GB", "spec06/mcf"},
		stretch:   1,
		plats:     arch.Experimental,
		proto:     experiment.Quick,
	}
)

// newWorkloads builds fresh workload values (Stretched mutates them).
func (s sweepSpec) newWorkloads() ([]workloads.Workload, error) {
	out := make([]workloads.Workload, 0, len(s.workloads))
	for _, name := range s.workloads {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, workloads.Stretched(w, s.stretch))
	}
	return out, nil
}

// runner is a fresh single-worker runner over the trace cache in dir.
func (s sweepSpec) runner(dir string) *experiment.Runner {
	r := experiment.NewRunner()
	r.TraceDir = dir
	r.Parallelism = 1
	r.Proto = s.proto
	r.Sampling = s.sampling
	return r
}

// prepare is the set-up: a cold Runner.Prepare of every workload, which
// generates each trace and saves it to the cache in dir.
func (s sweepSpec) prepare(dir string, ws []workloads.Workload, tr *tracer, parent int) ([]*experiment.WorkloadData, error) {
	r := s.runner(dir)
	out := make([]*experiment.WorkloadData, 0, len(ws))
	for _, w := range ws {
		var wd *experiment.WorkloadData
		err := tr.do("workloads.prepare", 0, parent, func() error {
			var err error
			wd, err = r.Prepare(w)
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, wd)
	}
	return out, nil
}

// newTraceDir makes a fresh, empty trace cache directory under the run's
// scratch directory.
func newTraceDir(b *bench) (string, error) {
	return os.MkdirTemp(b.workdir, "traces-")
}

// setUp repeats the set-up, each time into a fresh cache directory, and
// returns the last directory, its prepared workloads and every
// repetition's time.
func (s sweepSpec) setUp(b *bench, ws []workloads.Workload) (string, []*experiment.WorkloadData, []float64, error) {
	var dir string
	var wds []*experiment.WorkloadData
	var times []float64
	for b.moreSetUps(times) {
		d, err := newTraceDir(b)
		if err != nil {
			return "", nil, nil, err
		}
		runtime.GC()
		root := b.tr.start("workloads.prepare_cold", 0, -1)
		t0 := time.Now()
		wds, err = s.prepare(d, ws, b.tr, root)
		times = append(times, time.Since(t0).Seconds())
		b.tr.finish(root)
		if err != nil {
			return "", nil, nil, err
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = d
	}
	return dir, wds, times, nil
}

// collect is one untraced sweep: a fresh runner over the warm cache. It
// returns the datasets and the accesses they cover, skipped ones included.
func (s sweepSpec) collect(dir string, ws []workloads.Workload, plats []arch.Platform) ([]*experiment.Dataset, uint64, error) {
	r := s.runner(dir)
	dss, err := r.CollectAll(ws, plats, nil)
	if err != nil {
		return nil, 0, err
	}
	var covered uint64
	for _, ds := range dss {
		for _, w := range ws {
			if w.Name() == ds.Workload {
				wd, err := r.Prepare(w)
				if err != nil {
					return nil, 0, err
				}
				covered += uint64(len(ds.Counters)) * uint64(wd.Trace.Len())
			}
		}
	}
	return dss, covered, nil
}

// CV settings for max_err_pct: K matches the paper's Table 6 fold shape,
// and the seed is fixed so the figure is deterministic.
const (
	cvFolds = 6
	cvSeed  = 1
)

// maxErrPct is Mosmodel's worst held-out maximal error, in percent, over
// K-fold cross-validation of every dataset.
func maxErrPct(dss []*experiment.Dataset) (float64, error) {
	worst := 0.0
	for _, ds := range dss {
		e, err := models.CrossValidate(func() models.Model { return models.NewMosmodel() }, ds.Samples, cvFolds, cvSeed)
		if err != nil {
			return 0, fmt.Errorf("cross-validating %s: %w", ds.Key(), err)
		}
		worst = max(worst, e)
	}
	return 100 * worst, nil
}

// shuffled returns a seed-permuted copy of xs.
func shuffled[T any](xs []T, rng *rand.Rand) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// checkSweep compares an operation's datasets and accuracy with the golden
// file: a nil error means the outputs are unchanged.
func (b *bench) checkSweep(s sweepSpec, dss []*experiment.Dataset, errPct float64) error {
	if err := b.golden.checkPairs(s.name, dss); err != nil {
		return err
	}
	if err := b.golden.checkMaxErr(s.name, errPct); err != nil {
		return err
	}
	if s.sampling.Enabled() {
		pct, err := b.golden.sampledErrPct(dss[0])
		if err != nil {
			return err
		}
		return b.golden.checkSampledErr(s.name, pct)
	}
	return nil
}

// runSweep runs a sweep workload: set-up, closed-loop sweeps for the
// run's seconds, then a short predict phase against models trained on
// the last sweep. The seed only reorders the pairs: trace content is fixed
// by workload name.
func runSweep(b *bench, s sweepSpec) error {
	ws, err := s.newWorkloads()
	if err != nil {
		return err
	}
	dir, wds, setups, err := s.setUp(b, ws)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.seed))
	ws, plats := shuffled(ws, rng), shuffled(s.plats, rng)

	var last []*experiment.Dataset
	if b.tr != nil {
		last, err = tracedSweep(b, s, dir, wds, ws, plats)
		if err != nil {
			return err
		}
	} else {
		b.set("setup_s", "s", median(setups))
		var covered uint64
		var busy time.Duration
		var peaks []float64
		start := time.Now()
		// Start another sweep only while it would end nearer the deadline
		// than stopping now, so a run measures about -seconds of sweeping.
		for ops := 0; ops == 0 || time.Since(start)+busy/time.Duration(2*ops) < b.duration(); ops++ {
			// Each sweep's peak RSS is its own: freed memory goes back to
			// the OS and the kernel's peak restarts before it.
			debug.FreeOSMemory()
			if err := resetPeakRSS(); err != nil {
				return err
			}
			t0 := time.Now()
			dss, n, err := s.collect(dir, ws, plats)
			var pct float64
			if err == nil {
				pct, err = maxErrPct(dss)
			}
			took := time.Since(t0)
			busy += took
			rss, rssErr := peakRSSMB()
			if rssErr != nil {
				return rssErr
			}
			peaks = append(peaks, rss)
			if err == nil {
				fmt.Fprintf(os.Stderr, "perfbench: sweep %d: %.1fM accesses in %.2fs\n", ops, float64(n)/1e6, took.Seconds())
				err = b.checkSweep(s, dss, pct)
				covered += n
				last = dss
				b.set("max_err_pct", "%", pct)
			}
			b.op(fmt.Sprintf("%s sweep %d", s.name, ops), err)
		}
		if last == nil {
			return errors.New("no sweep completed")
		}
		b.set("sweep_maccess_per_s", "M/s", float64(covered)/1e6/busy.Seconds())
		b.set("peak_rss_mb", "MB", median(peaks))
		pct, err := b.sampledErrMetric(s, last)
		if err != nil {
			return err
		}
		b.set("sampled_err_pct", "%", pct)
	}

	reg, err := trainRegistry(b, last)
	if err != nil {
		return err
	}
	return servePhase(b, reg, tailSeconds*time.Second, false)
}

// sampledErrMetric is sampled_err_pct: the sampled sweep's own datasets
// against the exact reference, or, for a workload that replays exactly,
// the sampling probe.
func (b *bench) sampledErrMetric(s sweepSpec, dss []*experiment.Dataset) (float64, error) {
	if s.sampling.Enabled() {
		return b.golden.sampledErrPct(dss[0])
	}
	pct, err := b.golden.probe()
	b.op("sampling probe", b.golden.checkSampledErr("probe", pct))
	return pct, err
}

// tracedSweep is the traced run of a sweep workload: one sweep rebuilt
// from public calls with a span around each, between two untraced sweeps
// whose mean is the overhead baseline (bracketing cancels a steady drift
// in host speed), and the layer split over three layouts per pair.
func tracedSweep(b *bench, s sweepSpec, dir string, wds []*experiment.WorkloadData, ws []workloads.Workload, plats []arch.Platform) ([]*experiment.Dataset, error) {
	untracedSweep := func() (time.Duration, error) {
		runtime.GC()
		t0 := time.Now()
		dss, _, err := s.collect(dir, ws, plats)
		if err == nil {
			_, err = maxErrPct(dss)
		}
		return time.Since(t0), err
	}
	before, err := untracedSweep()
	if err != nil {
		return nil, err
	}

	inputs, err := cachedTraces(dir, wds)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]cachedTrace, len(inputs))
	for _, in := range inputs {
		byName[in.w.Name()] = in
	}
	ordered := make([]cachedTrace, 0, len(ws))
	for _, w := range ws {
		ordered = append(ordered, byName[w.Name()])
	}

	const op = 1
	p := newPipeline(s, b.tr, op)
	runtime.GC()
	alloc := readAlloc()
	root := b.tr.start("sweep.op", op, -1)
	t0 := time.Now()
	dss, err := p.sweep(root, ordered, plats)
	var pct float64
	if err == nil {
		err = b.tr.do("models.fit", op, root, func() error {
			var err error
			pct, err = maxErrPct(dss)
			return err
		})
	}
	traced := time.Since(t0)
	b.tr.finish(root)
	b.setAllocPerOp(alloc, 1)
	if err != nil {
		return nil, err
	}
	b.op(s.name+" traced sweep", b.checkSweep(s, dss, pct))
	b.reportPipeline(p)
	after, err := untracedSweep()
	if err != nil {
		return nil, err
	}
	b.set("trace.overhead_pct", "%", 100*(2*traced.Seconds()/(before+after).Seconds()-1))

	cases, err := splitCases(s, dss, ordered, plats)
	if err != nil {
		return nil, err
	}
	tot, err := runSplit(b, cases)
	if err != nil {
		return nil, err
	}
	tot.report(b)
	return dss, nil
}

// reportPipeline sets the per-layer metrics of the traced sweep stages.
func (b *bench) reportPipeline(p *pipeline) {
	t := b.tr.times()
	ms := func(name string) float64 { return float64(t[name].Total.Nanoseconds()) / 1e6 }
	b.set("workloads.prepare_cold_s", "s", t["workloads.prepare_cold"].Total.Seconds())
	b.set("trace.load_ms", "ms", ms("trace.load"))
	b.set("layout.protocol_ms", "ms", ms("layout.protocol"))
	b.set("sim.space_ms", "ms", ms("sim.space"))
	b.set("sim.space_builds", "count", float64(p.stats.spaceBuilds))
	replay := float64(t["sim.replay"].Total.Nanoseconds())
	b.set("sim.replay_ns_per_access", "ns", replay/float64(max(p.stats.replayed, 1)))
	b.set("sim.replay_ns_per_covered_access", "ns", replay/float64(max(p.stats.covered, 1)))
	b.set("sim.measured_frac", "ratio", float64(p.stats.measured)/float64(max(p.stats.covered, 1)))
	b.set("sim.batch_layouts", "count", float64(p.stats.layouts)/float64(max(p.stats.batches, 1)))
	b.set("models.fit_ms", "ms", ms("models.fit"))
}

// splitLayouts picks the layouts the split replays per pair: both
// baselines and the protocol's middle layout.
func splitLayouts(ds *experiment.Dataset) []string {
	mid := ds.Samples[len(ds.Samples)/2].Layout
	return []string{"4KB", "2MB", mid}
}

// splitPrefix bounds the accesses the split replays per trace, so a case
// of the 7.68M-access trace of the sampled sweep costs about as much as
// one of the ~120k-access traces.
const splitPrefix = 1 << 17

// splitCases builds the layer split's cases from a sweep's datasets.
func splitCases(s sweepSpec, dss []*experiment.Dataset, inputs []cachedTrace, plats []arch.Platform) ([]splitCase, error) {
	planner := newPipeline(s, nil, 0).planner
	var out []splitCase
	for _, in := range inputs {
		full, err := trace.Load(in.path)
		if err != nil {
			return nil, err
		}
		wd := &experiment.WorkloadData{Workload: in.w, Trace: full, Target: in.target}
		tr := full
		if tr.Len() > splitPrefix {
			tr = tr.Sample(0, splitPrefix)
		}
		for _, plat := range plats {
			var ds *experiment.Dataset
			for _, d := range dss {
				if d.Workload == in.w.Name() && d.Platform == plat.Name {
					ds = d
				}
			}
			if ds == nil {
				return nil, fmt.Errorf("no dataset for %s@%s", in.w.Name(), plat.Name)
			}
			lays := planner.ProtocolLayouts(wd, plat)
			for _, name := range splitLayouts(ds) {
				for _, lay := range lays {
					if lay.Name != name {
						continue
					}
					space, err := sim.BuildSpace(physMem, lay.Cfg)
					if err != nil {
						return nil, err
					}
					out = append(out, splitCase{tr: tr, plat: plat.Scaled(), space: space,
						name: fmt.Sprintf("%s@%s/%s", in.w.Name(), plat.Name, name)})
					break
				}
			}
		}
	}
	return out, nil
}
