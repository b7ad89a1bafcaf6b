package main

import (
	"testing"
	"time"

	"mosaic/internal/arch"
)

// TestServePhase drives a traced predict phase end to end: both clients'
// requests must come back equal to the registry's in-process answers, and
// the serving layers' metrics must be set. Run it with -race: the clients
// share the tracer and the server.
func TestServePhase(t *testing.T) {
	s := trainSpec
	s.workloads = []string{"gups/8GB"}
	s.plats = []arch.Platform{arch.SandyBridge}
	ws, err := s.newWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	dss, _, err := s.collect(t.TempDir(), ws, s.plats)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{seed: 3, tr: newTracer(), metrics: make(map[string]metric)}
	reg, err := trainRegistry(b, dss)
	if err != nil {
		t.Fatal(err)
	}
	if err := servePhase(b, reg, time.Second, true); err != nil {
		t.Fatal(err)
	}
	if b.attempted == 0 || b.failed != 0 {
		t.Fatalf("%d of %d predict requests failed", b.failed, b.attempted)
	}
	for _, name := range []string{"serve.batcher_us", "serve.http_us", "serve.batch_size", "registry.predict_us", "trace.overhead_pct"} {
		if _, ok := b.metrics[name]; !ok {
			t.Errorf("metric %s not set", name)
		}
	}
	if got := b.tr.times()["serve.http"].Count; got == 0 {
		t.Error("no serve.http spans recorded")
	}
}
