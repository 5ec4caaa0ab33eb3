package experiments

import (
	"fmt"
	"testing"

	"t3sim/internal/check"
	"t3sim/internal/collective"
	"t3sim/internal/interconnect"
	"t3sim/internal/memory"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// The topology differential battery: the graph timed engine
// (internal/collective/topotimed.go) versus the chunk-recurrence analytic
// model (internal/collective/analytic_topo.go) over every (topology ×
// algorithm) cell, in both the tolerance regime (Table 1 machine) and the
// exact-link-bound regime the ring sweep pioneered — plus byte-identity of
// the cluster runs against the shared engine at every worker count.

// topoDiffSpecs returns the four 8-device topologies the battery sweeps —
// the same ladder the topo-sweep experiment runs — so every algorithm
// (including halving-doubling) is a candidate on each.
func topoDiffSpecs(link interconnect.Config) []interconnect.TopoSpec {
	return DefaultTopoSpecs(link)
}

// topoDiameter is the worst-case route length on a built topology.
func topoDiameter(t *testing.T, spec interconnect.TopoSpec) int {
	t.Helper()
	topo, err := spec.Build(sim.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	diam := 0
	for s := 0; s < spec.Devices; s++ {
		for d := 0; d < spec.Devices; d++ {
			if s != d && topo.Hops(s, d) > diam {
				diam = topo.Hops(s, d)
			}
		}
	}
	return diam
}

// runTimedTopoCollective runs one timed graph collective to completion with
// the invariant checker attached. workers == 0 uses a single shared engine;
// workers > 0 builds a cluster and runs it at that parallelism.
func runTimedTopoCollective(t *testing.T, setup Setup, spec interconnect.TopoSpec,
	algo collective.Algorithm, op collective.Op, size units.Bytes, nmc bool, workers int) units.Time {
	t.Helper()
	checker := check.New()
	buildDevs := func(engOf func(int) *sim.Engine) []*collective.Device {
		devs := make([]*collective.Device, spec.Devices)
		for i := range devs {
			memCfg := setup.Memory
			memCfg.Check = checker
			mc, err := memory.NewController(engOf(i), memCfg, memory.ComputeFirst{})
			if err != nil {
				t.Fatal(err)
			}
			devs[i] = &collective.Device{ID: i, Mem: mc}
		}
		return devs
	}
	opts := collective.TopoOptions{
		TotalBytes:        size,
		BlockBytes:        setup.BlockBytes,
		CUs:               setup.CollectiveCUs,
		PerCUMemBandwidth: setup.PerCUMemBandwidth,
		NMC:               nmc,
		Stream:            memory.StreamComm,
		Check:             checker,
	}
	var done units.Time
	if workers == 0 {
		eng := sim.NewEngine()
		eng.AttachChecker(checker)
		topo, err := spec.Build(eng)
		if err != nil {
			t.Fatal(err)
		}
		topo.AttachChecker(checker)
		opts.Topo = topo
		opts.Devices = buildDevs(func(int) *sim.Engine { return eng })
		if err := collective.StartTopoCollective(eng, algo, op, opts, func() { done = eng.Now() }); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	} else {
		cl := sim.NewCluster(spec.Devices, spec.MinLinkLatency())
		for _, e := range cl.Engines() {
			e.AttachChecker(checker)
		}
		topo, err := spec.BuildCluster(cl)
		if err != nil {
			t.Fatal(err)
		}
		topo.AttachChecker(checker)
		opts.Topo = topo
		opts.Devices = buildDevs(cl.Engine)
		cr, err := collective.StartClusterTopoCollective(cl, algo, op, opts)
		if err != nil {
			t.Fatal(err)
		}
		cl.Run(workers)
		cr.Finish()
		done = cr.Done()
	}
	if done == 0 {
		t.Fatalf("%v/%v/%v never completed", spec.Kind, algo, op)
	}
	for _, v := range checker.Violations() {
		t.Errorf("invariant violation: %s", v)
	}
	return done
}

func topoAnalyticOpts(setup Setup, size units.Bytes, nmc bool) collective.AnalyticOptions {
	return collective.AnalyticOptions{
		TotalBytes:        size,
		MemBandwidth:      setup.Memory.TotalBandwidth,
		CUs:               setup.CollectiveCUs,
		PerCUMemBandwidth: setup.PerCUMemBandwidth,
		NMC:               nmc,
	}
}

// topoStepSlack bounds the fixed per-round costs the chunk recurrence only
// partially charges, generalizing differentialStepSlack to multi-hop routes:
// each round's critical path may store-and-forward a trailing block across
// up to diam links (a block's wire time plus the link latency per hop) and
// wait out a DRAM read before the next round's kernel.
func topoStepSlack(setup Setup, spec interconnect.TopoSpec, diam int) units.Time {
	perHop := spec.Link.LinkLatency + spec.Link.LinkBandwidth.TransferTime(setup.BlockBytes)
	if i := spec.InterLink; i.LinkBandwidth > 0 {
		interHop := i.LinkLatency + i.LinkBandwidth.TransferTime(setup.BlockBytes)
		if interHop > perHop {
			perHop = interHop
		}
	}
	return units.Time(diam)*perHop + setup.Memory.ReadLatency
}

// TestDifferentialTopoCollectives sweeps every (topology × algorithm) cell
// over sizes and ops on the Table 1 machine: the shared-engine DES must
// match the analytic recurrence within tolerance, and the cluster runs must
// be byte-identical to the shared engine at workers 1, 2 and 4.
func TestDifferentialTopoCollectives(t *testing.T) {
	setup := DefaultSetup()
	for _, spec := range topoDiffSpecs(setup.Link) {
		diam := topoDiameter(t, spec)
		for _, algo := range collective.CandidateAlgorithms(spec) {
			for _, tc := range []struct {
				op   collective.Op
				size units.Bytes
				nmc  bool
			}{
				{collective.AllReduceOp, 2 * units.MiB, false},
				{collective.AllReduceOp, 32 * units.MiB, false},
				{collective.ReduceScatterOp, 8*units.MiB + 4096, false},
				{collective.ReduceScatterOp, 8 * units.MiB, true},
				{collective.AllGatherOp, 8 * units.MiB, false},
			} {
				spec, algo, tc := spec, algo, tc
				name := fmt.Sprintf("%v/%v/%v/%v", spec.Kind, algo, tc.op, tc.size)
				if tc.nmc {
					name += "/nmc"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					simT := runTimedTopoCollective(t, setup, spec, algo, tc.op, tc.size, tc.nmc, 0)
					lo, hi, err := collective.AnalyticTopoTimeBounds(algo, tc.op, spec, topoAnalyticOpts(setup, tc.size, tc.nmc))
					if err != nil {
						t.Fatal(err)
					}
					rounds, _, _, err := collective.ScheduleStats(algo, tc.op, spec.Devices, tc.size, setup.BlockBytes, tc.nmc)
					if err != nil {
						t.Fatal(err)
					}
					// The DES must land inside the [lower, upper] analytic
					// envelope, up to tolerance; on single-hop topologies the
					// envelope collapses to a point and this is the same
					// check the ring battery runs.
					var diff units.Time
					switch {
					case simT < lo:
						diff = lo - simT
					case simT > hi:
						diff = simT - hi
					}
					rel := float64(diff) / float64(lo)
					allow := units.Time(rounds) * topoStepSlack(setup, spec, diam)
					if rel > differentialTolerance && diff > allow {
						t.Errorf("DES %v outside analytic envelope [%v, %v] by %v (%.2f%%), exceeds both %.0f%% and the %v fixed-cost allowance",
							simT, lo, hi, diff, 100*rel, 100*differentialTolerance, allow)
					}

					// Cluster byte-identity at every worker count, on the
					// smaller size to keep the battery fast.
					if tc.size <= 8*units.MiB {
						for _, workers := range []int{1, 2, 4} {
							if got := runTimedTopoCollective(t, setup, spec, algo, tc.op, tc.size, tc.nmc, workers); got != simT {
								t.Errorf("cluster workers=%d: done %v, want shared-engine %v", workers, got, simT)
							}
						}
					}
				})
			}
		}
	}
}

// TestDifferentialTopoLinkBoundExact pins the exact regime on every cell:
// with zero link latency and memory/CU throughput inflated three orders of
// magnitude, wire serialization is the only real cost. The work-conserving
// lower bound may never be beaten by the DES, the store-and-forward upper
// bound may only be exceeded by counted costs — a trailing block's
// store-and-forward per hop per round, plus per-block feed reads and
// picosecond rounding across at most diam hops — and on single-hop
// topologies the two bounds coincide, so the DES is pinned exactly there.
func TestDifferentialTopoLinkBoundExact(t *testing.T) {
	setup := DefaultSetup()
	setup.Link.LinkLatency = 0
	setup.Memory.TotalBandwidth = 4096 * units.TBps
	setup.Memory.ReadLatency = 0
	setup.PerCUMemBandwidth = 64 * units.TBps
	const perBlockSlack = 32 // picoseconds, see TestDifferentialLinkBoundExact
	for _, spec := range topoDiffSpecs(setup.Link) {
		diam := topoDiameter(t, spec)
		for _, algo := range collective.CandidateAlgorithms(spec) {
			for _, op := range []collective.Op{collective.ReduceScatterOp, collective.AllReduceOp} {
				spec, algo, op := spec, algo, op
				t.Run(fmt.Sprintf("%v/%v/%v", spec.Kind, algo, op), func(t *testing.T) {
					t.Parallel()
					const size = 4 * units.MiB
					simT := runTimedTopoCollective(t, setup, spec, algo, op, size, true, 0)
					lo, hi, err := collective.AnalyticTopoTimeBounds(algo, op, spec, topoAnalyticOpts(setup, size, true))
					if err != nil {
						t.Fatal(err)
					}
					if simT < lo {
						t.Errorf("DES %v beats the work-conserving wire lower bound %v: the link model is undercharging", simT, lo)
					}
					rounds, _, blocks, err := collective.ScheduleStats(algo, op, spec.Devices, size, setup.BlockBytes, true)
					if err != nil {
						t.Fatal(err)
					}
					// Counted slack runs over the slowest link a route can
					// cross (the hierarchy's inter-node links are slower than
					// spec.Link).
					blockT := spec.Link.LinkBandwidth.TransferTime(setup.BlockBytes)
					if i := spec.InterLink; i.LinkBandwidth > 0 {
						if t2 := i.LinkBandwidth.TransferTime(setup.BlockBytes); t2 > blockT {
							blockT = t2
						}
					}
					slack := units.Time(rounds*diam)*blockT + units.Time(blocks*diam)*perBlockSlack
					if simT > hi+slack {
						t.Errorf("link-bound DES %v exceeds the store-and-forward upper bound %v by %v (allowed %v)",
							simT, hi, simT-hi, slack)
					}
				})
			}
		}
	}
}
