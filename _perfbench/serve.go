package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mosaic/internal/experiment"
	"mosaic/internal/serve"
	"mosaic/internal/serve/registry"
)

// serveModels are the models the registry is trained with; requests pick
// among those that fit each pair.
var serveModels = []string{"mosmodel", "poly1", "poly3", "yaniv"}

// predictClients is the number of closed-loop HTTP clients.
const predictClients = 2

// predictCases is how many distinct requests the seed draws; clients cycle
// through them.
const predictCases = 512

// runServe runs the serve-predict workload: set-up trains an in-memory
// registry from Quick-protocol sweeps, then two closed-loop clients post
// /v1/predict for the run's seconds.
func runServe(b *bench) error {
	s := trainSpec
	ws, err := s.newWorkloads()
	if err != nil {
		return err
	}
	var (
		reg           *registry.Registry
		dss           []*experiment.Dataset
		setups, rates []float64
		dir           string
		inputs        []cachedTrace
		p             = newPipeline(s, b.tr, 0)
	)
	for b.moreSetUps(setups) {
		d, err := newTraceDir(b)
		if err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		root := b.tr.start("workloads.prepare_cold", 0, -1)
		wds, err := s.prepare(d, ws, b.tr, root)
		b.tr.finish(root)
		if err != nil {
			return err
		}
		t1 := time.Now()
		var covered uint64
		if b.tr != nil {
			if inputs, err = cachedTraces(d, wds); err != nil {
				return err
			}
			t1 = time.Now()
			if dss, err = p.sweep(-1, inputs, s.plats); err != nil {
				return err
			}
			covered = p.stats.covered
		} else if dss, covered, err = s.collect(d, ws, s.plats); err != nil {
			return err
		}
		rates = append(rates, float64(covered)/1e6/time.Since(t1).Seconds())
		if reg, err = trainRegistry(b, dss); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		b.op("serve-predict training sweep", b.golden.checkPairs(s.name, dss))
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = d
	}

	var pct float64
	err = b.tr.do("models.fit", 0, -1, func() error {
		var err error
		pct, err = maxErrPct(dss)
		return err
	})
	if err != nil {
		return err
	}
	b.op("serve-predict cross-validation", b.golden.checkMaxErr(s.name, pct))
	if b.tr != nil {
		b.reportPipeline(p)
		cases, err := splitCases(s, dss, inputs, s.plats)
		if err != nil {
			return err
		}
		tot, err := runSplit(b, cases)
		if err != nil {
			return err
		}
		tot.report(b)
	} else {
		b.set("setup_s", "s", median(setups))
		b.set("sweep_maccess_per_s", "M/s", median(rates))
		b.set("max_err_pct", "%", pct)
	}
	if err := servePhase(b, reg, b.duration(), true); err != nil || b.tr != nil {
		return err
	}
	// The peak covers set-up and serving; the probe below would dominate it.
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.set("peak_rss_mb", "MB", rss)
	probe, err := b.sampledErrMetric(s, dss)
	if err != nil {
		return err
	}
	b.set("sampled_err_pct", "%", probe)
	return nil
}

// trainRegistry fits serveModels on every dataset into a fresh in-memory
// registry.
func trainRegistry(b *bench, dss []*experiment.Dataset) (*registry.Registry, error) {
	reg, err := registry.Open("")
	if err != nil {
		return nil, err
	}
	for _, ds := range dss {
		err := b.tr.do("models.fit", 0, -1, func() error { return reg.Train(ds, serveModels) })
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", ds.Key(), err)
		}
	}
	return reg, nil
}

// wireRequest is the /v1/predict request body.
type wireRequest struct {
	Workload string   `json:"workload"`
	Platform string   `json:"platform"`
	Model    string   `json:"model,omitempty"`
	Layout   string   `json:"layout,omitempty"`
	H        *float64 `json:"h,omitempty"`
	M        *float64 `json:"m,omitempty"`
	C        *float64 `json:"c,omitempty"`
}

// predictCase is one prebuilt request with the prediction the registry
// gives for it in process.
type predictCase struct {
	req  registry.Request
	body []byte
	want registry.Prediction
}

// buildCases draws the request mix from the seed: a pair, one of its
// trained models, and either a training layout's name or explicit h, m, c
// inputs scaled around one of its samples.
func buildCases(reg *registry.Registry, seed int64) ([]predictCase, error) {
	rng := rand.New(rand.NewSource(seed))
	pairs := reg.Pairs()
	if len(pairs) == 0 {
		return nil, errors.New("registry has no trained pairs")
	}
	out := make([]predictCase, 0, predictCases)
	for len(out) < predictCases {
		p := pairs[rng.Intn(len(pairs))]
		names := make([]string, 0, len(p.Models))
		for name := range p.Models {
			names = append(names, name)
		}
		sort.Strings(names)
		req := registry.Request{Workload: p.Workload, Platform: p.Platform, Model: names[rng.Intn(len(names))]}
		layout := p.Layouts[rng.Intn(len(p.Layouts))]
		wire := wireRequest{Workload: req.Workload, Platform: req.Platform, Model: req.Model}
		if rng.Intn(2) == 0 {
			req.Layout, wire.Layout = layout, layout
		} else {
			base, err := reg.Predict(registry.Request{Workload: req.Workload, Platform: req.Platform, Model: req.Model, Layout: layout})
			if err != nil {
				return nil, err
			}
			req.H = base.H * (0.5 + rng.Float64())
			req.M = base.M * (0.5 + rng.Float64())
			req.C = base.C * (0.5 + rng.Float64())
			wire.H, wire.M, wire.C = &req.H, &req.M, &req.C
		}
		want, err := reg.Predict(req)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(wire)
		if err != nil {
			return nil, err
		}
		out = append(out, predictCase{req: req, body: body, want: want})
	}
	return out, nil
}

// predictServer is an in-process serve.Server on a loopback listener.
type predictServer struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer(reg *registry.Registry) (*predictServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.ServerConfig{Registry: reg})
	ps := &predictServer{
		srv:  srv,
		hs:   &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String() + "/v1/predict",
		done: make(chan error, 1),
	}
	go func() { ps.done <- ps.hs.Serve(ln) }()
	return ps, nil
}

// stop shuts the listener and the server down and waits for both.
func (ps *predictServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ps.hs.Shutdown(ctx)
	if serr := <-ps.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := ps.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// scrape reads the server's unlabelled metrics.
func (ps *predictServer) scrape() map[string]float64 {
	var buf bytes.Buffer
	ps.srv.Metrics().WritePrometheus(&buf)
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// phase is one closed-loop predict phase's outcome.
type phase struct {
	lat               []time.Duration // of the requests answered correctly, sorted
	attempted, failed int
	elapsed           time.Duration
	// Server-side deltas over the phase: batcher time and count, and the
	// batch counters.
	batcherSec, batcherN float64
	batches, batched     float64
	firstErr             error
}

// mean returns the mean latency of the phase's correct requests.
func (p *phase) mean() time.Duration {
	var sum time.Duration
	for _, d := range p.lat {
		sum += d
	}
	return sum / time.Duration(max(len(p.lat), 1))
}

// runPhase drives the server with predictClients closed-loop clients for
// dur. A request fails on a transport error, a non-200 status or a
// prediction that differs from the registry's in-process answer.
func (ps *predictServer) runPhase(cases []predictCase, dur time.Duration, tr *tracer, op int) *phase {
	before := ps.scrape()
	results := make([]phase, predictClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < predictClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = ps.client(cases, c, deadline, tr, op)
		}(c)
	}
	wg.Wait()
	out := &phase{elapsed: time.Since(start)}
	for _, r := range results {
		out.lat = append(out.lat, r.lat...)
		out.attempted += r.attempted
		out.failed += r.failed
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	slices.Sort(out.lat)
	after := ps.scrape()
	delta := func(name string) float64 { return after[name] - before[name] }
	out.batcherSec = delta("mosd_predict_duration_seconds_sum")
	out.batcherN = delta("mosd_predict_duration_seconds_count")
	out.batches = delta("mosd_predict_batches_total")
	out.batched = delta("mosd_predict_batched_requests_total")
	return out
}

// client is one closed-loop client: it sends its next request only after
// the previous one is answered. Client c starts at case c and strides by
// the client count.
func (ps *predictServer) client(cases []predictCase, c int, deadline time.Time, tr *tracer, op int) phase {
	transport := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport, Timeout: 10 * time.Second}
	var res phase
	for i := c; time.Now().Before(deadline); i += predictClients {
		pc := &cases[i%len(cases)]
		id := tr.start("serve.http", op, -1)
		t0 := time.Now()
		got, err := post(hc, ps.url, pc.body)
		d := time.Since(t0)
		tr.finish(id)
		res.attempted++
		if err == nil && got != pc.want {
			err = fmt.Errorf("prediction %+v, registry gives %+v", got, pc.want)
		}
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
			continue
		}
		res.lat = append(res.lat, d)
	}
	return res
}

// post sends one /v1/predict request and decodes the answer.
func post(hc *http.Client, url string, body []byte) (registry.Prediction, error) {
	var p registry.Prediction
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return p, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return p, err
	}
	if resp.StatusCode != http.StatusOK {
		return p, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	err = json.Unmarshal(raw, &p)
	return p, err
}

// servePhase serves reg's models over loopback HTTP for dur and reports
// the predict metrics. Traced, it reports the serving layers instead; with
// overhead set it first serves dur/2 untraced, then dur/2 traced, and
// reports the tracing overhead on mean latency.
func servePhase(b *bench, reg *registry.Registry, dur time.Duration, overhead bool) error {
	cases, err := buildCases(reg, b.seed)
	if err != nil {
		return err
	}
	ps, err := startServer(reg)
	if err != nil {
		return err
	}
	const op = 2
	// Return freed memory now, so the scavenger does not compete with the
	// server and clients for the CPUs during the phase.
	debug.FreeOSMemory()
	var base *phase
	if b.tr != nil && overhead {
		dur /= 2
		base = ps.runPhase(cases, dur, nil, op)
	}
	alloc := readAlloc()
	ph := ps.runPhase(cases, dur, b.tr, op)
	if overhead && b.tr != nil {
		b.setAllocPerOp(alloc, ph.attempted)
	}
	if err := ps.stop(); err != nil {
		return err
	}
	for _, p := range []*phase{base, ph} {
		if p == nil {
			continue
		}
		b.attempted += p.attempted
		b.failed += p.failed
		if p.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %d of %d predict requests failed, first: %v\n", p.failed, p.attempted, p.firstErr)
		}
	}
	if len(ph.lat) == 0 {
		return errors.New("no predict request succeeded")
	}
	fmt.Fprintf(os.Stderr, "perfbench: predict: %d requests in %.2fs, p50 %v p90 %v p99 %v\n",
		len(ph.lat), ph.elapsed.Seconds(), quantile(ph.lat, 0.5), quantile(ph.lat, 0.9), quantile(ph.lat, 0.99))
	if b.tr == nil {
		b.set("predict_per_s", "1/s", float64(len(ph.lat))/ph.elapsed.Seconds())
		b.set("predict_p50_ms", "ms", float64(quantile(ph.lat, 0.5).Nanoseconds())/1e6)
		b.set("predict_p90_ms", "ms", float64(quantile(ph.lat, 0.9).Nanoseconds())/1e6)
		return nil
	}

	batcherUS := 1e6 * ph.batcherSec / max(ph.batcherN, 1)
	b.set("serve.batcher_us", "us", batcherUS)
	b.set("serve.http_us", "us", float64(ph.mean().Nanoseconds())/1e3-batcherUS)
	b.set("serve.batch_size", "count", ph.batched/max(ph.batches, 1))
	if base != nil {
		b.set("trace.overhead_pct", "%", 100*(ph.mean().Seconds()/base.mean().Seconds()-1))
	}
	// Registry.Predict takes about a microsecond, so a clock read pair
	// (~140ns) around each call would distort it; one span covers a loop
	// over every case instead.
	const rounds = 40
	err = b.tr.do("registry.predict", op, -1, func() error {
		for r := 0; r < rounds; r++ {
			for i := range cases {
				if _, err := reg.Predict(cases[i].req); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t := b.tr.times()["registry.predict"]
	b.set("registry.predict_us", "us", float64(t.Total.Nanoseconds())/1e3/float64(rounds*len(cases)))
	return nil
}
