package main

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run, reported by every workload.
var endToEnd = []metricDef{
	{"wall_s", "s"},       // host seconds per pass (median)
	{"setup_s", "s"},      // host seconds of set-up before the first pass (median)
	{"alloc_mb", "MB"},    // host bytes allocated per pass (median)
	{"peak_rss_mb", "MB"}, // process maximum resident set size
}

// multiShapes are the interconnect graphs of the multi-device workloads, as
// the t3sim.TopoSpecFor family name and device count.
var multiShapes = []struct {
	name, kind string
	devices    int
}{
	{"ring-256", "ring", 256},
	{"torus-16x16", "torus", 256},
	{"hier-2x128", "hier", 256},
	{"hier-2x32", "hier", 64},
}

// replaySlice is the catalogue slice warm-replay stores and replays.
var replaySlice = []string{
	"fig6", "fig14", "fig15", "fig16", "fig18", "fig19", "mirror", "multi64",
	"generation", "fig17", "ablation-arb", "serve-sweep", "serve-tenants",
}

// perLayer are the metrics of the traced run. Every workload reports all of
// them; a metric of a layer the workload does not call reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim_mreq_per_s", "Mreq/s"}, // simulated DRAM requests per host second (untraced passes)
		{"paper_err_pct", "%"},       // Fig 16 geomean speedups vs the paper's 1.20x / 1.30x
		{"fail_rate", "ratio"},
		{"bench.trace_overhead_pct", "%"},

		// fused-sweep: host seconds per pass in each layer call.
		{"gpu.gemm_alone_s", "s"},
		{"t3core.fused_t3_s", "s"},
		{"t3core.fused_mca_s", "s"},
		{"collective.timed_rs_s", "s"},
		{"transformer.sublayer_s", "s"},
		{"sim.events_gemm_alone", "count"},
		{"sim.events_collective_alone", "count"},
		{"sim.ns_per_event", "ns"},
		{"t3core.ns_per_dram_req", "ns"},
		// fused-sweep: simulated counts, identical under a host-speed change.
		{"memory.requests", "count"},
		{"memory.bytes", "bytes"},
		{"memory.comm_wait_ps", "ps"},
		{"memory.compute_wait_ps", "ps"},
		{"t3core.dma_triggered", "count"},
		{"t3core.tracker_max_live", "count"},
		{"interconnect.link_bytes", "bytes"},
	}
	for _, s := range multiShapes {
		for _, d := range []metricDef{
			{"t3core.multi_s", "s"},
			{"cluster.windows", "count"},
			{"cluster.engine_windows", "count"},
			{"cluster.avg_window_ps", "ps"},
			{"cluster.null_msgs", "count"},
			{"cluster.stall_windows", "count"},
			{"cluster.stall_ps", "ps"},
			{"cluster.sync_us_per_round", "us"},
			{"collective.cluster_rs_s", "s"},
			{"cluster.serial_s", "s"},
			{"sim.shared_engine_s", "s"},
			{"cluster.par_speedup", "x"},
			{"memory.requests", "count"},
		} {
			defs = append(defs, metricDef{d.name + "." + s.name, d.unit})
		}
	}
	for _, e := range replaySlice {
		defs = append(defs, metricDef{"experiments." + e + "_s", "s"})
	}
	return append(defs,
		metricDef{"experiments.uncached_share", "ratio"},
		metricDef{"experiments.memo_hits", "count"},
		metricDef{"experiments.memo_misses", "count"},
		metricDef{"store.hits", "count"},
		metricDef{"store.misses", "count"},
		metricDef{"store.corrupt", "count"},
		metricDef{"store.bytes_read", "bytes"},
		metricDef{"store.puts", "count"},
		metricDef{"store.bytes_written", "bytes"},
	)
}()
