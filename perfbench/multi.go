package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"t3sim"
	"t3sim/internal/collective"
	"t3sim/internal/memory"
	"t3sim/internal/sim"
)

// syncProbeRounds is how many coordinator rounds the no-op cluster probe
// runs: each engine holds one event per round.
const syncProbeRounds = 400

// multiShape is one interconnect graph with its reference output: the
// golden multi256 row cells, or a recorded digest where no snapshot exists.
type multiShape struct {
	name   string
	spec   t3sim.TopoSpec
	want   []string
	digest string
}

// multiDevice runs the explicit fused GEMM→reduce-scatter (the multi256
// grid) on every device of each shape, on the parallel cluster with one
// worker per available CPU and automatic sync-mode selection.
type multiDevice struct {
	es      t3sim.ExperimentSetup
	grid    t3sim.GEMMGrid
	shapes  []multiShape
	workers int
	modes   map[string]string // resolved sync mode per shape
}

func setupMultiSparse(root string, _ *rand.Rand, _ *tracer) (workload, opCount, error) {
	return setupMulti(root, "ring-256", "torus-16x16")
}

func setupMultiDense(root string, _ *rand.Rand, _ *tracer) (workload, opCount, error) {
	return setupMulti(root, "hier-2x128", "hier-2x32")
}

func setupMulti(root string, names ...string) (workload, opCount, error) {
	m := &multiDevice{
		es:      t3sim.DefaultExperimentSetup(),
		workers: runtime.GOMAXPROCS(0),
		modes:   map[string]string{},
	}
	var err error
	m.grid, err = t3sim.NewGrid(t3sim.GEMMShape{M: 2048, N: 2048, K: 512, ElemBytes: 2}, t3sim.DefaultTiling())
	if err != nil {
		return nil, opCount{}, err
	}
	golden, err := goldenRows(root, "multi256")
	if err != nil {
		return nil, opCount{}, err
	}
	for _, name := range names {
		for _, s := range multiShapes {
			if s.name != name {
				continue
			}
			spec, err := t3sim.TopoSpecFor(s.kind, s.devices, m.es.Link)
			if err != nil {
				return nil, opCount{}, err
			}
			sh := multiShape{name: name, spec: spec, want: golden[name], digest: hierDigests[name]}
			if sh.want == nil && sh.digest == "" {
				return nil, opCount{}, fmt.Errorf("no reference output for %s", name)
			}
			m.shapes = append(m.shapes, sh)
		}
	}
	return m, opCount{}, nil
}

// run executes one shape at the given worker count and checks its output.
func (m *multiDevice) run(sh multiShape, workers int, stats *t3sim.ClusterStats) (t3sim.MultiDeviceResult, error) {
	res, err := t3sim.RunFusedGEMMRSMultiDevice(t3sim.FusedOptions{
		GPU:          m.es.GPU,
		Memory:       m.es.Memory,
		Link:         sh.spec.Link,
		Topo:         sh.spec,
		Tracker:      m.es.Tracker,
		Devices:      sh.spec.Devices,
		Grid:         m.grid,
		Collective:   t3sim.RingReduceScatterCollective,
		Arbitration:  t3sim.ArbRoundRobin,
		ParWorkers:   workers,
		ClusterStats: stats,
	})
	if err != nil {
		return res, err
	}
	return res, sh.check(res)
}

// cells renders a result the way the multi256 experiment prints its row.
func (sh multiShape) cells(res t3sim.MultiDeviceResult) []string {
	spread := func(ts []t3sim.Time) string {
		lo, hi := ts[0], ts[0]
		for _, t := range ts {
			lo, hi = min(lo, t), max(hi, t)
		}
		return fmt.Sprintf("%v / %v", lo, hi)
	}
	return []string{
		sh.name,
		spread(res.GEMMDone),
		spread(res.CollectiveDone),
		res.Done.String(),
		res.Skew().String(),
		res.LinkBytes.String(),
		res.DRAM.TotalBytes().String(),
		fmt.Sprintf("%d", res.TrackerMaxLive),
	}
}

func (sh multiShape) check(res t3sim.MultiDeviceResult) error {
	if len(res.GEMMDone) == 0 || len(res.CollectiveDone) == 0 {
		return fmt.Errorf("%s: empty result", sh.name)
	}
	got := sh.cells(res)
	if sh.want != nil {
		return compareCells(got, sh.want)
	}
	if d := rowDigest(got); d != sh.digest {
		return fmt.Errorf("%s: output digest %s, want %s (cells %q)", sh.name, d, sh.digest, got)
	}
	return nil
}

func requests(c *memory.Counters) int64 {
	var n int64
	for k := range c.Requests {
		for s := range c.Requests[k] {
			n += c.Requests[k][s]
		}
	}
	return n
}

func (m *multiDevice) pass(rng *rand.Rand, tr *tracer) passResult {
	r := passResult{counts: map[string]float64{}}
	for _, i := range rng.Perm(len(m.shapes)) {
		sh := m.shapes[i]
		var cs t3sim.ClusterStats
		id := tr.start("t3core.multi_s." + sh.name)
		res, err := m.run(sh, m.workers, &cs)
		tr.stop(id)
		r.ops.record(sh.name, err)
		m.modes[sh.name] = cs.Mode.String()
		reqs := requests(&res.DRAM)
		r.requests += reqs
		for k, v := range map[string]float64{
			"memory.requests":        float64(reqs),
			"cluster.windows":        float64(cs.Windows),
			"cluster.engine_windows": float64(cs.EngineWindows),
			"cluster.avg_window_ps":  float64(cs.AvgWindowWidth()),
			"cluster.null_msgs":      float64(cs.NullMessages),
			"cluster.stall_windows":  float64(cs.StalledEngineWindows),
			"cluster.stall_ps":       float64(cs.StallTime),
		} {
			r.counts[k+"."+sh.name] = v
		}
	}
	return r
}

// probe times each shape's layers apart: the reduce-scatter alone on the
// same cluster graph, the coordinator alone on no-op engines, and the whole
// run on the serial cluster (ParWorkers 1) and on one shared engine
// (ParWorkers 0) — the baselines parallel speedup is quoted against. The
// serial and shared runs are checked like any other.
func (m *multiDevice) probe(tr *tracer, out map[string]float64) opCount {
	var ops opCount
	for _, sh := range m.shapes {
		t, err := m.collectiveAlone(sh, tr)
		ops.record(sh.name+" collective alone", err)
		out["collective.cluster_rs_s."+sh.name] = t

		us, err := m.syncCost(sh, tr)
		ops.record(sh.name+" sync probe", err)
		out["cluster.sync_us_per_round."+sh.name] = us

		for _, p := range []struct {
			metric  string
			workers int
		}{{"cluster.serial_s.", 1}, {"sim.shared_engine_s.", 0}} {
			id := tr.start(p.metric + sh.name)
			start := time.Now()
			_, err := m.run(sh, p.workers, nil)
			out[p.metric+sh.name] = time.Since(start).Seconds()
			tr.stop(id)
			ops.record(fmt.Sprintf("%s at ParWorkers %d", sh.name, p.workers), err)
		}
	}
	return ops
}

// collectiveAlone runs the shape's reduce-scatter of the GEMM output alone,
// on a cluster over the same link graph, and returns its host seconds.
func (m *multiDevice) collectiveAlone(sh multiShape, tr *tracer) (float64, error) {
	id := tr.start("collective.cluster_rs_s." + sh.name)
	defer tr.stop(id)
	start := time.Now()
	n := sh.spec.Devices
	cl := sim.NewCluster(n, sh.spec.MinLinkLatency())
	topo, err := sh.spec.BuildCluster(cl)
	if err != nil {
		return 0, err
	}
	devs := make([]*collective.Device, n)
	for i := range devs {
		mc, err := memory.NewController(cl.Engine(i), m.es.Memory, memory.ComputeFirst{})
		if err != nil {
			return 0, err
		}
		devs[i] = &collective.Device{ID: i, Mem: mc}
	}
	run, err := collective.StartClusterTopoCollective(cl, collective.AlgoRing, collective.ReduceScatterOp, collective.TopoOptions{
		Topo:              topo,
		Devices:           devs,
		TotalBytes:        t3sim.Bytes(m.grid.Shape.M*m.grid.Shape.N) * m.grid.Shape.ElemBytes,
		BlockBytes:        m.es.BlockBytes,
		CUs:               m.es.CollectiveCUs,
		PerCUMemBandwidth: m.es.PerCUMemBandwidth,
		Stream:            memory.StreamComm,
	})
	if err != nil {
		return 0, err
	}
	cl.Run(m.workers)
	run.Finish()
	el := time.Since(start).Seconds()
	for d := 0; d < n; d++ {
		if run.DeviceDone(d) <= 0 {
			return el, fmt.Errorf("device %d never finished the reduce-scatter", d)
		}
	}
	return el, nil
}

// syncCost runs a cluster of engines that do nothing but hold one event per
// lookahead interval, over the shape's link graph, and returns the host
// microseconds per coordinator round: the pure cost of synchronization.
func (m *multiDevice) syncCost(sh multiShape, tr *tracer) (float64, error) {
	id := tr.start("cluster.sync_us_per_round." + sh.name)
	defer tr.stop(id)
	lat := sh.spec.MinLinkLatency()
	cl := sim.NewCluster(sh.spec.Devices, lat)
	if _, err := sh.spec.BuildCluster(cl); err != nil {
		return 0, err
	}
	for i := 0; i < sh.spec.Devices; i++ {
		eng := cl.Engine(i)
		left := syncProbeRounds
		var tick sim.Handler
		tick = func() {
			left--
			if left > 0 {
				eng.After(lat, tick)
			}
		}
		eng.At(0, tick)
	}
	start := time.Now()
	cl.Run(m.workers)
	el := time.Since(start)
	st := cl.Stats()
	if st.Windows < syncProbeRounds {
		return 0, fmt.Errorf("sync probe ran %d rounds, want at least %d", st.Windows, syncProbeRounds)
	}
	return el.Seconds() * 1e6 / float64(st.Windows), nil
}

func (m *multiDevice) derive(out map[string]float64) {
	for _, sh := range m.shapes {
		if par := out["t3core.multi_s."+sh.name]; par > 0 {
			out["cluster.par_speedup."+sh.name] = out["cluster.serial_s."+sh.name] / par
		}
	}
}

func (m *multiDevice) manifest(out map[string]any) {
	out["par_workers"] = m.workers
	out["sync_mode"] = m.modes
}

func (m *multiDevice) close() {}
