package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd lists the metrics of untraced runs (--trace 0), the ones a
// user of the pipeline sees. Every workload reports every one. The time
// figures leave out the time the host stole from the VM (see served).
var endToEnd = []metricDef{
	{"wall_s", "s"},            // one iteration: set-up to the workload's last read
	{"setup_s", "s"},           // world, catalog, placement and selector build
	{"flows_per_s", "flows/s"}, // captured flows per second of ytcdn.Run
	{"cpu_s", "s"},             // process user+sys CPU of one iteration
	{"peak_rss_mb", "MB"},      // peak resident set of one iteration, set-up to last read
	{"alloc_mb", "MB"},         // bytes allocated by one iteration
}

// hostMetrics go to an untraced run's report beside the end-to-end
// metrics: the wall-clock figures as measured, stolen time included,
// and the median share of vCPU time the host served (see served).
var hostMetrics = []metricDef{
	{"raw.wall_s", "s"},
	{"raw.setup_s", "s"},
	{"raw.flows_per_s", "flows/s"},
	{"served", "ratio"},
}

// cpuModules are the repository modules a CPU profile sample can be
// charged to (the nearest frame of one of them, walking from the leaf,
// so geo's distance math counts for geoloc when geoloc calls it).
// Samples under the Go garbage collector go to runtime_gc, samples with
// no module frame to other.
var cpuModules = []string{
	"topology", "content", "workload", "des", "core", "cdn", "capture",
	"tracestore", "probe", "geoloc", "analysis", "experiments",
}

// suiteItems are the rendered tables and figures of the paper suite, in
// the order Harness.RunAll writes them.
var suiteItems = []string{
	"table1", "table2", "table3",
	"fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
	"fig17", "fig18",
}

// perLayer lists the metrics of traced runs (--trace 1). A layer that a
// workload does not run reports 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"topology.build_s", "s"},
		{"content.catalog_s", "s"},
		{"core.placement_s", "s"},
		{"core.selector_new_s", "s"},
		{"workload.arrivals", "count"},
		{"des.events", "count"},
		{"des.events_per_s", "events/s"},
		{"core.decisions", "count"},
		{"core.decision_busy_s", "s"},
		{"core.decisions_per_s", "decisions/s"},
		{"core.spills", "count"},
		{"core.hotspots", "count"},
		{"core.misses", "count"},
		{"cdn.sessions", "count"},
		{"cdn.flows", "count"},
		{"cdn.redirects", "count"},
		{"cdn.chains", "count"},
		{"cdn.redirects_per_chain", "ratio"},
		{"capture.records", "count"},
		{"capture.memsink_records_per_s", "records/s"},
		{"tracestore.write_records_per_s", "records/s"},
		{"tracestore.disk_bytes", "bytes"},
		{"tracestore.bytes_per_record", "bytes/record"},
		{"tracestore.scan_mb_per_s", "MB/s"},
		{"tracestore.scan_by_start_records_per_s", "records/s"},
		{"tracestore.peak_buffered_bytes", "bytes"},
		{"probe.cross_matrix_s", "s"},
		{"probe.landmark_rtts_s", "s"},
		{"probe.campaign_s", "s"},
		{"geoloc.calibrate_s", "s"},
		{"geoloc.locate_s", "s"},
		{"geoloc.locates", "count"},
		{"geoloc.locates_per_s", "locates/s"},
		{"geoloc.unlocated", "count"},
		{"analysis.dcmap_s", "s"},
		{"analysis.preferred_s", "s"},
		{"analysis.sessionize_s", "s"},
		{"analysis.nonpref_s", "s"},
		{"experiments.warm_s", "s"},
		{"experiments.localization_s", "s"},
		{"experiments.probing_s", "s"},
		{"experiments.analysis_s", "s"},
	}
	for _, item := range suiteItems[:18] {
		defs = append(defs, metricDef{"experiments." + item + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"experiments.fig17_18_s", "s"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_s", "s"},
	)
	for _, m := range cpuModules {
		defs = append(defs, metricDef{"cpu." + m, "ratio"})
	}
	return append(defs,
		metricDef{"cpu.runtime_gc", "ratio"},
		metricDef{"cpu.other", "ratio"},
		metricDef{"trace.wall_s", "s"},
		metricDef{"trace.overhead_s", "s"},
	)
}
