package main

import (
	"fmt"
	"math"
	"math/rand"

	"t3sim"
	"t3sim/internal/collective"
	"t3sim/internal/gpu"
	"t3sim/internal/memory"
	"t3sim/internal/sim"
)

// Paper-reported Figure 16 geomean speedups (§6.1).
const (
	paperT3  = 1.20
	paperMCA = 1.30
)

// fig14Sizes are the Figure 14 reduce-scatter sizes in MiB.
var fig14Sizes = []int64{6, 12, 24, 48, 96, 192}

// fig14Devices is the Figure 14 ring size.
const fig14Devices = 4

// fusedCase is one Fig 15/16 sub-layer with its reference cells.
type fusedCase struct {
	label string
	tp    int
	sl    t3sim.SubLayer
	small bool     // a Fig 16 (small-model) case, part of paper_err_pct
	fig16 []string // reference speedup cells: T3, T3-MCA, ideal, ideal+NMC
	gemm  string   // reference isolated GEMM time (Fig 15), small cases only
}

// rsCase is one Figure 14 size with its reference cells.
type rsCase struct {
	label string
	bytes t3sim.Bytes
	want  []string // simulated, reference
}

// fusedSweep is the single-device workload: the paper's mechanism on every
// Fig 15/16/16-large sub-layer, plus the Fig 14 timed reduce-scatter alone.
type fusedSweep struct {
	es    t3sim.ExperimentSetup
	cases []fusedCase
	rs    []rsCase
}

func setupFusedSweep(root string, _ *rand.Rand, tr *tracer) (workload, opCount, error) {
	f := &fusedSweep{es: t3sim.DefaultExperimentSetup()}
	small, err := goldenRows(root, "fig16")
	if err != nil {
		return nil, opCount{}, err
	}
	large, err := goldenRows(root, "fig16-large")
	if err != nil {
		return nil, opCount{}, err
	}
	fig15, err := goldenRows(root, "fig15")
	if err != nil {
		return nil, opCount{}, err
	}
	fig14, err := goldenRows(root, "fig14")
	if err != nil {
		return nil, opCount{}, err
	}
	for _, set := range []struct {
		cases []t3sim.SubCase
		rows  map[string][]string
		small bool
	}{{t3sim.SmallModelCases(), small, true}, {t3sim.LargeModelCases(), large, false}} {
		for _, c := range set.cases {
			id := tr.start("transformer.sublayer_s")
			sl, err := t3sim.SubLayerGEMM(c.Model, c.Kind, c.TP)
			tr.stop(id)
			if err != nil {
				return nil, opCount{}, err
			}
			fc := fusedCase{label: c.String(), tp: c.TP, sl: sl, small: set.small}
			row, ok := set.rows[fc.label]
			if !ok || len(row) != 5 {
				return nil, opCount{}, fmt.Errorf("no Figure 16 reference row for %s", fc.label)
			}
			fc.fig16 = row[1:]
			if set.small {
				row, ok := fig15[fc.label]
				if !ok {
					return nil, opCount{}, fmt.Errorf("no Figure 15 reference row for %s", fc.label)
				}
				fc.gemm = row[1]
			}
			f.cases = append(f.cases, fc)
		}
	}
	for _, mib := range fig14Sizes {
		b := t3sim.Bytes(mib) * t3sim.MiB
		row, ok := fig14[b.String()]
		if !ok || len(row) != 4 {
			return nil, opCount{}, fmt.Errorf("no Figure 14 reference row for %v", b)
		}
		f.rs = append(f.rs, rsCase{label: b.String(), bytes: b, want: row[1:3]})
	}
	return f, opCount{}, nil
}

// caseOutcome is one case's simulated speedups (T3, T3-MCA) for the
// paper-error geomeans.
type caseOutcome struct{ t3, mca float64 }

func (f *fusedSweep) pass(rng *rand.Rand, tr *tracer) passResult {
	r := passResult{counts: map[string]float64{}}
	outcomes := make([]caseOutcome, len(f.cases))
	var fusedReqs int64
	for _, i := range rng.Perm(len(f.cases) + len(f.rs)) {
		if i >= len(f.cases) {
			c := f.rs[i-len(f.cases)]
			r.ops.record("fig14 "+c.label, f.runRS(c, tr, &r))
			continue
		}
		c := f.cases[i]
		out, reqs, err := f.runCase(c, tr, &r)
		r.ops.record(c.label, err)
		outcomes[i] = out
		fusedReqs += reqs
	}
	// Geomeans in canonical case order, so the value does not depend on
	// the pass order.
	var lt3, lmca float64
	n := 0
	for i, c := range f.cases {
		if c.small && outcomes[i].t3 > 0 {
			lt3 += math.Log(outcomes[i].t3)
			lmca += math.Log(outcomes[i].mca)
			n++
		}
	}
	if n > 0 {
		gt3, gmca := math.Exp(lt3/float64(n)), math.Exp(lmca/float64(n))
		r.counts["paper_err_pct"] = 100 * (math.Abs(gt3/paperT3-1) + math.Abs(gmca/paperMCA-1)) / 2
	}
	r.counts["fused_requests"] = float64(fusedReqs)
	return r
}

// addDRAM folds one run's memory counters into the pass counts.
func addDRAM(r *passResult, c *memory.Counters) {
	n := requests(c)
	r.requests += n
	r.counts["memory.requests"] += float64(n)
	r.counts["memory.bytes"] += float64(c.TotalBytes())
	for k := range c.WaitTime {
		r.counts["memory.comm_wait_ps"] += float64(c.WaitTime[k][memory.StreamComm])
		r.counts["memory.compute_wait_ps"] += float64(c.WaitTime[k][memory.StreamCompute])
	}
}

// runCase simulates one sub-layer three ways — the GEMM alone, fused T3 and
// fused T3-MCA — and checks the derived Figure 15/16 cells against the
// snapshots. It returns the speedups and the fused runs' DRAM requests.
func (f *fusedSweep) runCase(c fusedCase, tr *tracer, r *passResult) (caseOutcome, int64, error) {
	es := f.es
	id := tr.start("gpu.gemm_alone_s")
	gemmT, counters, events, err := gemmAlone(es, c.sl)
	tr.stop(id)
	if err != nil {
		return caseOutcome{}, 0, err
	}
	addDRAM(r, &counters)
	r.counts["sim.events_gemm_alone"] += float64(events)

	opts := t3sim.FusedOptions{
		GPU:         es.GPU,
		Memory:      es.Memory,
		Link:        es.Link,
		Tracker:     es.Tracker,
		Devices:     c.tp,
		Grid:        c.sl.Grid,
		Collective:  t3sim.RingReduceScatterCollective,
		Arbitration: t3sim.ArbRoundRobin,
	}
	id = tr.start("t3core.fused_t3_s")
	t3, err := t3sim.RunFusedGEMMRS(opts)
	tr.stop(id)
	if err != nil {
		return caseOutcome{}, 0, err
	}
	opts.Arbitration = t3sim.ArbMCA
	id = tr.start("t3core.fused_mca_s")
	mca, err := t3sim.RunFusedGEMMRS(opts)
	tr.stop(id)
	if err != nil {
		return caseOutcome{}, 0, err
	}
	var reqs int64
	for _, res := range []*t3sim.FusedResult{&t3, &mca} {
		addDRAM(r, &res.DRAM)
		reqs += requests(&res.DRAM)
		r.counts["t3core.dma_triggered"] += float64(res.DMATriggered)
		r.counts["interconnect.link_bytes"] += float64(res.LinkBytes)
		r.counts["t3core.tracker_max_live"] = math.Max(r.counts["t3core.tracker_max_live"], float64(res.TrackerMaxLive))
	}

	// The sequential baseline's collectives come from the analytic model
	// Figure 14 validates, exactly as the evaluator prices them.
	col := t3sim.AnalyticCollectiveOptions{
		Devices:           c.tp,
		TotalBytes:        c.sl.ARBytes,
		Link:              es.Link,
		MemBandwidth:      es.Memory.TotalBandwidth,
		CUs:               es.CollectiveCUs,
		PerCUMemBandwidth: es.PerCUMemBandwidth,
	}
	rs, err := t3sim.AnalyticRingReduceScatterTime(col)
	if err != nil {
		return caseOutcome{}, reqs, err
	}
	ag, err := t3sim.AnalyticRingAllGatherTime(col)
	if err != nil {
		return caseOutcome{}, reqs, err
	}
	col.NMC = true
	rsNMC, err := t3sim.AnalyticRingReduceScatterTime(col)
	if err != nil {
		return caseOutcome{}, reqs, err
	}
	seq := float64(gemmT + rs + ag)
	out := caseOutcome{t3: seq / float64(t3.Done+ag), mca: seq / float64(mca.Done+ag)}
	got := []string{
		fmt.Sprintf("%.2fx", out.t3),
		fmt.Sprintf("%.2fx", out.mca),
		fmt.Sprintf("%.2fx", seq/float64(max(gemmT, rs)+ag)),
		fmt.Sprintf("%.2fx", seq/float64(max(gemmT, rsNMC)+ag)),
	}
	if err := compareCells(got, c.fig16); err != nil {
		return out, reqs, fmt.Errorf("figure 16 speedups: %w", err)
	}
	if c.gemm != "" && gemmT.String() != c.gemm {
		return out, reqs, fmt.Errorf("figure 15 GEMM time %v, want %s", gemmT, c.gemm)
	}
	return out, reqs, nil
}

// gemmAlone runs the producer GEMM alone on an engine the benchmark owns —
// the evaluator's isolated baseline — and returns its simulated duration,
// DRAM counters and the number of events the engine dispatched.
func gemmAlone(es t3sim.ExperimentSetup, sl t3sim.SubLayer) (t3sim.Time, memory.Counters, uint64, error) {
	eng := sim.NewEngine()
	mc, err := memory.NewController(eng, es.Memory, memory.ComputeFirst{})
	if err != nil {
		return 0, memory.Counters{}, 0, err
	}
	k := &gpu.GEMMKernel{Eng: eng, Mem: mc, GPU: es.GPU, Grid: sl.Grid}
	if err := k.Start(nil); err != nil {
		return 0, memory.Counters{}, 0, err
	}
	eng.Run()
	return k.Finished(), *mc.Counters(), eng.Processed(), nil
}

// runRS times one Figure 14 ring reduce-scatter alone through the
// topology-general collective engine and checks the simulated and analytic
// cells against the snapshot.
func (f *fusedSweep) runRS(c rsCase, tr *tracer, r *passResult) error {
	es := f.es
	id := tr.start("collective.timed_rs_s")
	eng := sim.NewEngine()
	topo, err := t3sim.RingTopo(fig14Devices, es.Link).Build(eng)
	if err != nil {
		tr.stop(id)
		return err
	}
	devs := make([]*collective.Device, fig14Devices)
	for i := range devs {
		mc, err := memory.NewController(eng, es.Memory, memory.ComputeFirst{})
		if err != nil {
			tr.stop(id)
			return err
		}
		devs[i] = &collective.Device{ID: i, Mem: mc}
	}
	var done t3sim.Time
	err = collective.StartTopoCollective(eng, collective.AlgoRing, collective.ReduceScatterOp, collective.TopoOptions{
		Topo:              topo,
		Devices:           devs,
		TotalBytes:        c.bytes,
		BlockBytes:        es.BlockBytes,
		CUs:               es.CollectiveCUs,
		PerCUMemBandwidth: es.PerCUMemBandwidth,
		Stream:            memory.StreamComm,
	}, func() { done = eng.Now() })
	if err == nil {
		eng.Run()
	}
	tr.stop(id)
	if err != nil {
		return err
	}
	r.counts["sim.events_collective_alone"] += float64(eng.Processed())
	for _, d := range devs {
		addDRAM(r, d.Mem.Counters())
	}
	ref, err := t3sim.AnalyticRingReduceScatterTime(t3sim.AnalyticCollectiveOptions{
		Devices:           fig14Devices,
		TotalBytes:        c.bytes,
		Link:              es.Link,
		MemBandwidth:      es.Memory.TotalBandwidth,
		CUs:               es.CollectiveCUs,
		PerCUMemBandwidth: es.PerCUMemBandwidth,
	})
	if err != nil {
		return err
	}
	if err := compareCells([]string{done.String(), ref.String()}, c.want); err != nil {
		return fmt.Errorf("figure 14 row: %w", err)
	}
	return nil
}

func (f *fusedSweep) probe(*tracer, map[string]float64) opCount { return opCount{} }

func (f *fusedSweep) derive(m map[string]float64) {
	if ev := m["sim.events_gemm_alone"] + m["sim.events_collective_alone"]; ev > 0 {
		m["sim.ns_per_event"] = 1e9 * (m["gpu.gemm_alone_s"] + m["collective.timed_rs_s"]) / ev
	}
	if reqs := m["fused_requests"]; reqs > 0 {
		m["t3core.ns_per_dram_req"] = 1e9 * (m["t3core.fused_t3_s"] + m["t3core.fused_mca_s"]) / reqs
	}
}

func (f *fusedSweep) manifest(m map[string]any) {
	m["cases"] = len(f.cases)
	m["fig14_sizes"] = len(f.rs)
}

func (f *fusedSweep) close() {}
