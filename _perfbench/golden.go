package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"

	"mosaic/internal/experiment"
	"mosaic/internal/layout"
	"mosaic/internal/pmu"
	"mosaic/internal/sim"
)

//go:embed testdata/golden.json
var goldenJSON []byte

// golden is the committed record of what every operation must produce.
// perfbench -write-golden regenerates it; a change to it is a change to
// the simulator's outputs and must be explained.
type golden struct {
	// Pairs maps a workload to each of its sweep's pairs
	// ("workload@platform") and the digest of that dataset's counters.
	Pairs map[string]map[string]string `json:"pairs"`
	// MaxErrPct maps a workload to its expected max_err_pct.
	MaxErrPct map[string]float64 `json:"max_err_pct"`
	// SampledErrPct maps a workload, or "probe", to its expected
	// sampled_err_pct.
	SampledErrPct map[string]float64 `json:"sampled_err_pct"`
	// Reference holds the exact-replay counters of the ×64 gups/8GB trace
	// on SandyBridge, by protocol layout.
	Reference map[string]pmu.Counters `json:"x64_reference"`
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	if len(g.Reference) == 0 {
		return nil, errors.New("golden file has no reference counters; run perfbench -write-golden")
	}
	return &g, nil
}

// digest hashes every counter of a dataset: per-layout counters, phase
// rows and sampling coverage.
func digest(ds *experiment.Dataset) (string, error) {
	raw, err := json.Marshal(struct {
		Counters        map[string]pmu.Counters
		Phases          map[string][]sim.PhaseResult
		Measured, Total uint64
	}{ds.Counters, ds.Phases, ds.MeasuredAccesses, ds.TotalAccesses})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:12]), nil
}

// checkPairs compares each dataset's digest with the golden one.
func (g *golden) checkPairs(workload string, dss []*experiment.Dataset) error {
	want := g.Pairs[workload]
	if len(dss) != len(want) {
		return fmt.Errorf("%d datasets, golden has %d", len(dss), len(want))
	}
	for _, ds := range dss {
		d, err := digest(ds)
		if err != nil {
			return err
		}
		if d != want[ds.Key()] {
			return fmt.Errorf("%s: counter digest %s, golden %s", ds.Key(), d, want[ds.Key()])
		}
	}
	return nil
}

// sameFloat allows for the last-bit differences a reassociated model fit
// may produce; anything larger is a changed output.
func sameFloat(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func (g *golden) checkMaxErr(workload string, pct float64) error {
	if want, ok := g.MaxErrPct[workload]; !ok || !sameFloat(pct, want) {
		return fmt.Errorf("max_err_pct %.12g, golden %.12g", pct, want)
	}
	return nil
}

func (g *golden) checkSampledErr(key string, pct float64) error {
	if want, ok := g.SampledErrPct[key]; !ok || !sameFloat(pct, want) {
		return fmt.Errorf("sampled_err_pct %.12g, golden %.12g", pct, want)
	}
	return nil
}

// significantEvents is the smallest exact count whose sampled estimate
// enters sampled_err_pct. Rarer events — the handful of TLB misses under
// 1GB pages — sit below sampling's statistical resolution, where a
// relative error says nothing about the estimator.
const significantEvents = 10000

// sampledErr is the worst relative error, in percent, of sampled R, H, M
// and C against the exact reference, over every layout and every counter
// with at least significantEvents exact events.
func sampledErr(got, ref map[string]pmu.Counters) (float64, error) {
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	worst := 0.0
	for _, name := range names {
		want, ok := ref[name]
		if !ok {
			return 0, fmt.Errorf("no reference counters for layout %s", name)
		}
		c := got[name]
		for _, pair := range [][2]uint64{{c.R, want.R}, {c.H, want.H}, {c.M, want.M}, {c.C, want.C}} {
			if pair[1] < significantEvents {
				continue
			}
			worst = max(worst, math.Abs(float64(pair[0])-float64(pair[1]))/float64(pair[1]))
		}
	}
	return 100 * worst, nil
}

// sampledErrPct scores the sampled sweep's dataset against the reference.
func (g *golden) sampledErrPct(ds *experiment.Dataset) (float64, error) {
	return sampledErr(ds.Counters, g.Reference)
}

// probeLayouts are the layouts the sampling probe replays.
var probeLayouts = []string{"4KB", "2MB", "1GB"}

// probe is sampled_err_pct for the workloads that replay exactly: the ×64
// trace, generated in memory, replayed under sim.DefaultSampling on the
// protocol's baseline layouts and scored against the reference.
func (g *golden) probe() (float64, error) {
	ws, err := sampledSpec.newWorkloads()
	if err != nil {
		return 0, err
	}
	r := sampledSpec.runner("")
	wd, err := r.Prepare(ws[0])
	if err != nil {
		return 0, err
	}
	plat := sampledSpec.plats[0]
	all := r.ProtocolLayouts(wd, plat)
	lays := make([]layout.Layout, 0, len(probeLayouts))
	for _, lay := range all {
		for _, name := range probeLayouts {
			if lay.Name == name {
				lays = append(lays, lay)
			}
		}
	}
	res, err := r.MeasureLayouts(context.Background(), wd, plat, lays, sampledSpec.sampling, nil)
	if err != nil {
		return 0, err
	}
	got := make(map[string]pmu.Counters, len(lays))
	for i, lay := range lays {
		got[lay.Name] = res[i].Counters
	}
	return sampledErr(got, g.Reference)
}

// generateGolden measures every workload's sweep and the exact reference,
// and writes the golden file. The sweeps run on every CPU: results are
// identical at any parallelism.
func generateGolden(path, workdir string) error {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, "golden-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sweep := func(s sweepSpec) ([]*experiment.Dataset, error) {
		ws, err := s.newWorkloads()
		if err != nil {
			return nil, err
		}
		r := s.runner(dir)
		r.Parallelism = runtime.GOMAXPROCS(0)
		return r.CollectAll(ws, s.plats, nil)
	}

	g := &golden{
		Pairs:         make(map[string]map[string]string),
		MaxErrPct:     make(map[string]float64),
		SampledErrPct: make(map[string]float64),
	}
	exact := sampledSpec
	exact.sampling = sim.Sampling{}
	ref, err := sweep(exact)
	if err != nil {
		return err
	}
	g.Reference = ref[0].Counters

	for _, s := range []sweepSpec{exactSpec, sampledSpec, trainSpec} {
		dss, err := sweep(s)
		if err != nil {
			return err
		}
		g.Pairs[s.name] = make(map[string]string, len(dss))
		for _, ds := range dss {
			if g.Pairs[s.name][ds.Key()], err = digest(ds); err != nil {
				return err
			}
		}
		if g.MaxErrPct[s.name], err = maxErrPct(dss); err != nil {
			return err
		}
		if s.sampling.Enabled() {
			if g.SampledErrPct[s.name], err = g.sampledErrPct(dss[0]); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d datasets, max_err_pct %.4f\n", s.name, len(dss), g.MaxErrPct[s.name])
	}
	if g.SampledErrPct["probe"], err = g.probe(); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
