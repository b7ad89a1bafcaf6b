package main

import (
	"testing"

	"mosaic/internal/arch"
	"mosaic/internal/cpu"
	"mosaic/internal/experiment"
	"mosaic/internal/sim"
	"mosaic/internal/workloads"
)

// TestStackMatchesMachine checks the layer split's premise on every
// experimental platform: the stack reproduces cpu.Machine's counters and
// its TLB, cache and walker statistics exactly, and so does each layer's
// stream replayed alone.
func TestStackMatchesMachine(t *testing.T) {
	for _, name := range []string{"gups/8GB", "spec06/mcf", "dbindex/btree-point-zipf"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r := experiment.NewRunner()
		wd, err := r.Prepare(w)
		if err != nil {
			t.Fatal(err)
		}
		tr := wd.Trace
		cols := tr.Columns()
		for _, plat := range arch.Experimental {
			lays := r.ProtocolLayouts(wd, plat)
			for _, lay := range []int{0, len(lays) / 2, len(lays) - 1} {
				lay := lays[lay]
				space, err := sim.BuildSpace(physMem, lay.Cfg)
				if err != nil {
					t.Fatal(err)
				}
				scaled := plat.Scaled()
				m, err := cpu.New(scaled, space)
				if err != nil {
					t.Fatal(err)
				}
				want, err := m.Run(tr)
				if err != nil {
					t.Fatal(err)
				}
				st, err := newStack(scaled, space)
				if err != nil {
					t.Fatal(err)
				}
				var rec streams
				got, err := st.replay(tr, &rec)
				if err != nil {
					t.Fatal(err)
				}
				where := name + "@" + plat.Name + "/" + lay.Name
				if got != want {
					t.Errorf("%s: stack counters %v, machine %v", where, got, want)
				}
				if st.tlb.Counts() != m.TLB().Counts() {
					t.Errorf("%s: stack TLB %+v, machine %+v", where, st.tlb.Counts(), m.TLB().Counts())
				}
				if st.hier.Stats() != m.Hierarchy().Stats() {
					t.Errorf("%s: stack caches %+v, machine %+v", where, st.hier.Stats(), m.Hierarchy().Stats())
				}
				if st.walk.Stats() != m.Walker().Stats() {
					t.Errorf("%s: stack walker %+v, machine %+v", where, st.walk.Stats(), m.Walker().Stats())
				}

				st.replayTLB(cols, &rec)
				if st.tlb.Counts() != m.TLB().Counts() {
					t.Errorf("%s: TLB stream %+v, machine %+v", where, st.tlb.Counts(), m.TLB().Counts())
				}
				st.replayHierarchy(&rec)
				if st.hier.Stats() != m.Hierarchy().Stats() {
					t.Errorf("%s: cache stream %+v, machine %+v", where, st.hier.Stats(), m.Hierarchy().Stats())
				}
				st.replayWalks(cols, &rec)
				if st.walk.Stats() != m.Walker().Stats() || st.hier.Stats() != m.Hierarchy().Stats() {
					t.Errorf("%s: walker stream %+v, machine %+v", where, st.walk.Stats(), m.Walker().Stats())
				}
			}
		}
	}
}

// TestTracerSelfTime checks that a span's self time excludes its
// children.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "op", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "load", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "replay", ID: 2, Parent: 0, Start: 40, End: 90},
		{Name: "load", ID: 3, Parent: -1, Start: 200, End: 205},
	}
	got := tr.times()
	if op := got["op"]; op.Total != 100 || op.Self != 20 {
		t.Errorf("op: %+v, want total 100 self 20", op)
	}
	if load := got["load"]; load.Count != 2 || load.Total != 35 || load.Self != 35 {
		t.Errorf("load: %+v, want 2 spans, total and self 35", load)
	}
}
