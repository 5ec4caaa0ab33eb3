// Command perfbench is the simulator's benchmark. It runs one workload as a
// closed loop of passes for a fixed host-time budget, checks every simulated
// output against the repository's reference results, and prints each metric
// by name with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 68, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (host time, set-up time,
// allocation, peak RSS). With -trace 1 a separate run interleaves untraced
// and traced passes, records spans around each call into a simulator layer,
// runs the layer probes once, and reports the per-layer metrics.
//
// Host time (wall clock of the machine running the simulator) and simulated
// time (the modelled GPU's clock, in picoseconds) are kept apart throughout:
// every metric ending in _s is host seconds, every one ending in _ps is
// simulated picoseconds.
//
// Run it through run.sh, which builds it from the surrounding source tree:
//
//	bash perfbench/run.sh --workload multi-sparse --seed 3 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"t3sim"
)

// workload is one benchmark workload after set-up.
type workload interface {
	// pass runs every operation of the workload once, in an order drawn
	// from rng. tr is nil in untraced passes.
	pass(rng *rand.Rand, tr *tracer) passResult
	// probe runs the traced run's layer probes once and records their
	// metrics into m.
	probe(tr *tracer, m map[string]float64) opCount
	// derive computes ratio metrics from the aggregated per-layer values.
	derive(m map[string]float64)
	// manifest adds workload facts (worker counts, resolved sync modes).
	manifest(m map[string]any)
	close()
}

// opCount counts checked operations: one case, shape or replayed
// experiment each. An operation fails if it errors or its output differs
// from the reference.
type opCount struct{ attempted, failed int }

func (c *opCount) add(o opCount) { c.attempted += o.attempted; c.failed += o.failed }

// record counts one operation; a non-nil err marks it failed and is logged
// to standard error.
func (c *opCount) record(what string, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %v\n", what, err)
	}
}

// passResult is what one pass reports besides its host time.
type passResult struct {
	ops opCount
	// requests is the number of simulated DRAM requests the pass issued,
	// summed from the results' memory counters.
	requests int64
	// counts holds per-layer values taken from the returned results.
	counts map[string]float64
}

type workloadDef struct {
	name string
	// setup builds the workload's inputs; tr is nil unless tracing.
	setup func(root string, rng *rand.Rand, tr *tracer) (workload, opCount, error)
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
}

var workloads = []workloadDef{
	{"fused-sweep", setupFusedSweep, 2001},
	{"multi-sparse", setupMultiSparse, 2001},
	{"multi-dense", setupMultiDense, 2001},
	{"warm-replay", setupWarmReplay, 3},
}

func main() {
	var (
		root     = flag.String("root", ".", "repository root holding testdata/golden")
		name     = flag.String("workload", "", "workload: fused-sweep | multi-sparse | multi-dense | warm-replay")
		seed     = flag.Int64("seed", 1, "seed permuting the order of cases, shapes or experiments")
		seconds  = flag.Int("seconds", 20, "host seconds to keep starting passes")
		traceArg = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceArg)
		os.Exit(2)
	}
	res, err := run(*def, *root, *seed, time.Duration(*seconds)*time.Second, *traceArg == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// passSample is one pass's host-side measurements.
type passSample struct {
	wall     float64 // host seconds
	allocMB  float64 // bytes allocated during the pass, in MB
	requests int64
	counts   map[string]float64
	spans    map[string]float64 // traced passes only: host seconds per span name
}

func run(def workloadDef, root string, seed int64, budget time.Duration, traced bool) (*result, error) {
	rng := rand.New(rand.NewSource(seed))
	var ops opCount
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	// Set-up runs several times so setup_s is a median; the last instance
	// is the one measured, and the only one traced.
	var w workload
	var setupTimes []float64
	var setupSpans map[string]float64
	for i := 0; i < def.setupReps; i++ {
		if w != nil {
			w.close()
		}
		str := (*tracer)(nil)
		if i == def.setupReps-1 {
			str = tr
		}
		runtime.GC()
		mark := str.mark()
		start := time.Now()
		var sops opCount
		var err error
		w, sops, err = def.setup(root, rng, str)
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		ops.add(sops)
		setupSpans = str.sumsSince(mark)
	}
	defer w.close()

	var plain, withTrace []passSample
	begin := time.Now()
	for i := 0; ; i++ {
		// The traced run alternates untraced and traced passes so the two
		// see the same machine state; trace_overhead_pct compares them.
		ptr := (*tracer)(nil)
		if traced && i%2 == 1 {
			ptr = tr
		}
		s, pops := measurePass(w, rng, ptr)
		ops.add(pops)
		if ptr != nil {
			withTrace = append(withTrace, s)
		} else {
			plain = append(plain, s)
		}
		if time.Since(begin) >= budget && (!traced || len(withTrace) > 0) {
			break
		}
	}

	var probeMetrics map[string]float64
	if traced {
		probeMetrics = map[string]float64{}
		runtime.GC()
		ops.add(w.probe(tr, probeMetrics))
	}
	peakRSS := peakRSSMB()

	res := &result{
		Correct:   ops.failed == 0,
		Attempted: ops.attempted,
		Failed:    ops.failed,
		Metrics:   map[string]metricValue{},
	}
	man := map[string]any{
		"workload":   def.name,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"build":      t3sim.ResultStoreVersion(),
		"trace":      traced,
		"pass_s":     pluck(plain, func(s passSample) float64 { return s.wall }),
	}
	w.manifest(man)
	if b, err := json.Marshal(man); err == nil {
		fmt.Printf("manifest %s\n", b)
	}

	plainWall := median(pluck(plain, func(s passSample) float64 { return s.wall }))
	if !traced {
		e2e := map[string]float64{
			"wall_s":      plainWall,
			"setup_s":     median(setupTimes),
			"alloc_mb":    median(pluck(plain, func(s passSample) float64 { return s.allocMB })),
			"peak_rss_mb": peakRSS,
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{e2e[d.name], d.unit}
		}
	} else {
		m := map[string]float64{}
		// Span totals and result counts: median over the traced passes.
		keys := map[string]bool{}
		for _, s := range withTrace {
			for k := range s.spans {
				keys[k] = true
			}
			for k := range s.counts {
				keys[k] = true
			}
		}
		for k := range keys {
			m[k] = median(pluck(withTrace, func(s passSample) float64 {
				if v, ok := s.spans[k]; ok {
					return v
				}
				return s.counts[k]
			}))
		}
		for k, v := range setupSpans {
			m[k] = v
		}
		for k, v := range probeMetrics {
			m[k] = v
		}
		m["sim_mreq_per_s"] = median(pluck(plain, func(s passSample) float64 {
			return float64(s.requests) / s.wall / 1e6
		}))
		if ops.attempted > 0 {
			m["fail_rate"] = float64(ops.failed) / float64(ops.attempted)
		}
		tracedWall := median(pluck(withTrace, func(s passSample) float64 { return s.wall }))
		m["bench.trace_overhead_pct"] = 100 * (tracedWall/plainWall - 1)
		w.derive(m)
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{m[d.name], d.unit}
		}
		if err := tr.write(filepath.Join(root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", def.name, seed))); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-44s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// measurePass runs one pass with the heap collected beforehand, so every
// pass starts from the same garbage-free state.
func measurePass(w workload, rng *rand.Rand, tr *tracer) (passSample, opCount) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mark := tr.mark()
	start := time.Now()
	r := w.pass(rng, tr)
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	return passSample{
		wall:     wall,
		allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		requests: r.requests,
		counts:   r.counts,
		spans:    tr.sumsSince(mark),
	}, r.ops
}

// peakRSSMB is the process's maximum resident set size so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}

func pluck(ss []passSample, f func(passSample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
