package main

import (
	"reflect"
	"testing"

	"mosaic/internal/arch"
	"mosaic/internal/experiment"
	"mosaic/internal/sim"
)

// TestPipelineMatchesCollect checks that the traced run's rebuilt sweep
// produces the datasets Runner.CollectAll produces: exact replay with a
// phased trace, and sampled replay through the fused kernel.
func TestPipelineMatchesCollect(t *testing.T) {
	exact := exactSpec
	exact.workloads = []string{"gups/8GB", "dbindex/btree-point-zipf"}
	exact.plats = []arch.Platform{arch.SandyBridge, arch.Broadwell}
	sampled := sampledSpec
	sampled.stretch = 16
	sampled.proto = experiment.Quick

	for _, s := range []sweepSpec{exact, sampled} {
		t.Run(s.name, func(t *testing.T) {
			if s.sampling.Enabled() {
				defer func(v int) { sim.FuseMinBytes = v }(sim.FuseMinBytes)
				sim.FuseMinBytes = 1
			}
			dir := t.TempDir()
			ws, err := s.newWorkloads()
			if err != nil {
				t.Fatal(err)
			}
			wds, err := s.prepare(dir, ws, nil, -1)
			if err != nil {
				t.Fatal(err)
			}
			inputs, err := cachedTraces(dir, wds)
			if err != nil {
				t.Fatal(err)
			}
			p := newPipeline(s, nil, 0)
			got, err := p.sweep(-1, inputs, s.plats)
			if err != nil {
				t.Fatal(err)
			}
			want, err := s.runner(dir).CollectAll(ws, s.plats, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d datasets, CollectAll gives %d", len(got), len(want))
			}
			byKey := make(map[string]*experiment.Dataset, len(want))
			for _, ds := range want {
				byKey[ds.Key()] = ds
			}
			for _, ds := range got {
				if !reflect.DeepEqual(ds, byKey[ds.Key()]) {
					t.Errorf("%s: rebuilt dataset differs from CollectAll's", ds.Key())
				}
			}
			if s.sampling.Enabled() && p.stats.measured >= p.stats.covered {
				t.Errorf("sampled sweep measured %d of %d accesses", p.stats.measured, p.stats.covered)
			}
		})
	}
}
