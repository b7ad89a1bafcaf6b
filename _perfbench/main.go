// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three workloads in-process against the mosaic packages and prints, as
// the last line of standard output, one JSON object with the run's
// correctness, operation counts and metrics:
//
//	perfbench -workload sweep-exact|sweep-sampled-x64|serve-predict \
//	          -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics, measured with tracing
// off. With -trace 1 it rebuilds each operation from the packages' public
// functions, records a span around every call, and reports per-layer
// metrics instead. README.md explains the workloads and every metric.
//
// -write-golden PATH regenerates the committed golden digests, expected
// accuracy figures and the exact-replay reference counters, then exits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one run's settings and accumulates its outcome.
type bench struct {
	seed    int64
	seconds float64
	workdir string
	golden  *golden
	tr      *tracer // nil when untraced

	attempted, failed int
	metrics           map[string]metric
}

// duration is the run's measuring time.
func (b *bench) duration() time.Duration {
	return time.Duration(b.seconds * float64(time.Second))
}

// set records one metric.
func (b *bench) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one operation; a non-nil err marks it failed.
func (b *bench) op(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if b.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what, err)
		}
	}
}

// moreSetUps reports whether a run repeats its set-up again, given the
// times of the repetitions so far; setup_s is their median. A traced run
// sets up once. Otherwise at least three repetitions run, and short
// set-ups repeat until ten seconds are spent, up to fifteen times. Set-ups
// and timed operations start from a collected heap, as testing.B's do, so
// earlier work's garbage is not charged to them.
func (b *bench) moreSetUps(times []float64) bool {
	if b.tr != nil {
		return len(times) < 1
	}
	var total float64
	for _, t := range times {
		total += t
	}
	return len(times) < 3 || total < 10 && len(times) < 15
}

// tailSeconds is how long a sweep workload serves the models its last
// sweep trained, so every workload reports the predict metrics.
const tailSeconds = 4

func main() {
	workload := flag.String("workload", "", "sweep-exact, sweep-sampled-x64 or serve-predict")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measuring time per run")
	traced := flag.Int("trace", 0, "1 rebuilds operations from public calls and reports per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for trace caches and spans")
	writeGolden := flag.String("write-golden", "", "regenerate the golden file at this path and exit")
	flag.Parse()

	if *writeGolden != "" {
		if err := generateGolden(*writeGolden, *workdir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(*workload, *seed, *seconds, *traced == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(raw))
}

func run(workload string, seed int64, seconds float64, traced bool, workdir string) (*result, error) {
	if seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := &bench{seed: seed, seconds: seconds, workdir: dir, golden: g, metrics: make(map[string]metric)}
	if traced {
		b.tr = newTracer()
	}
	switch workload {
	case exactSpec.name:
		err = runSweep(b, exactSpec)
	case sampledSpec.name:
		err = runSweep(b, sampledSpec)
	case trainSpec.name:
		err = runServe(b)
	default:
		return nil, fmt.Errorf("unknown -workload %q (want %s, %s or %s)",
			workload, exactSpec.name, sampledSpec.name, trainSpec.name)
	}
	if err != nil {
		return nil, err
	}
	if traced {
		path := filepath.Join(filepath.Dir(workdir), "spans", fmt.Sprintf("%s-seed%d.json", workload, seed))
		if err := b.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(b.tr.spans), path)
	}
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}, nil
}

// resetPeakRSS restarts the kernel's peak resident set tracking (VmHWM) at
// the current resident set, so a peak can be read per operation.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM) since the
// last resetPeakRSS.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// median returns the middle value (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// allocSnap reads the Go heap counters an operation is charged for.
type allocSnap struct{ bytes, gcs uint64 }

func readAlloc() allocSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocSnap{bytes: ms.TotalAlloc, gcs: uint64(ms.NumGC)}
}

// setAllocPerOp reports the heap allocation and GC cycles per operation
// since from.
func (b *bench) setAllocPerOp(from allocSnap, ops int) {
	to := readAlloc()
	n := float64(max(ops, 1))
	b.set("go.alloc_mb_per_op", "MB", float64(to.bytes-from.bytes)/1e6/n)
	b.set("go.gc_cycles_per_op", "count", float64(to.gcs-from.gcs)/n)
}
