package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	ytcdn "github.com/ytcdn-sim/ytcdn"
	"github.com/ytcdn-sim/ytcdn/internal/obs/report"
)

// tiny shrinks a workload to a one-day run at 1 % scale.
func tiny(workload string, trace bool) config {
	return config{workload: workload, seed: 11, trace: trace, root: "..", scale: 0.01, span: 24 * time.Hour}
}

func mustRun(t *testing.T, cfg config) *result {
	t.Helper()
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	return res
}

// TestSmokeEveryWorkload runs every workload untraced and traced at a
// tiny scale: all checks pass and every metric is emitted with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res := mustRun(t, tiny(name, trace))
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer()
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
				// Every rendered item of the suite is timed.
				if name == "paper-suite" && strings.HasPrefix(d.name, "experiments.") && !(m.Value > 0) {
					t.Errorf("paper-suite traced: %s = %v, want > 0", d.name, m.Value)
				}
			}
		}
	}
}

// TestPlantedDigestMismatch pins a tiny store-week run's own digests,
// then plants one wrong digest: exactly that check must fail.
func TestPlantedDigestMismatch(t *testing.T) {
	cfg := tiny("store-week", false)
	e, w, err := newEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	it, err := runIteration(e, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string]string{}
	for _, o := range it.outputs {
		pins[o.name] = o.digest
	}
	if err := it.release(); err != nil {
		t.Fatal(err)
	}
	os.RemoveAll(e.scratch)

	cfg.pins = pinTable{"store-week": {"11": pins}}
	if res := mustRun(t, cfg); res.Failed != 0 {
		t.Fatalf("own digests pinned: %d of %d checks failed", res.Failed, res.Attempted)
	}
	planted := map[string]string{}
	for k, v := range pins {
		planted[k] = v
	}
	planted["trace.EU1-ADSL"] = "0:0000000000000000:0000000000000000"
	cfg.pins = pinTable{"store-week": {"11": planted}}
	res := mustRun(t, cfg)
	if res.Failed != 1 || res.Correct {
		t.Fatalf("planted mismatch: correct=%v failed=%d of %d, want exactly 1 failure", res.Correct, res.Failed, res.Attempted)
	}
}

// TestMetricsMatchBenchmarkJSON checks that BENCHMARK.json declares
// exactly the metrics the benchmark emits, and that every metric the
// benchmark's specification names is among them.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark emits %d", kind, len(got), len(want))
		}
		for i := range got {
			if i < len(want) && (got[i].Name != want[i].name || got[i].Unit != want[i].unit) {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], emitted %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer())
	for i, w := range spec.Workloads {
		if i >= len(workloadNames()) || w.Name != workloadNames()[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %v", i, w.Name, workloadNames())
		}
	}

	emitted := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer()...) {
		emitted[d.name] = true
	}
	named := []string{
		"wall_s", "setup_s", "flows_per_s", "cpu_s", "peak_rss_mb", "alloc_mb",
		"topology.build_s", "content.catalog_s", "core.placement_s", "core.selector_new_s",
		"workload.arrivals", "des.events", "des.events_per_s",
		"core.decisions", "core.decision_busy_s", "core.decisions_per_s", "core.spills", "core.hotspots", "core.misses",
		"cdn.sessions", "cdn.flows", "cdn.redirects", "cdn.chains", "cdn.redirects_per_chain",
		"capture.records", "capture.memsink_records_per_s",
		"tracestore.write_records_per_s", "tracestore.disk_bytes", "tracestore.bytes_per_record",
		"tracestore.scan_mb_per_s", "tracestore.scan_by_start_records_per_s", "tracestore.peak_buffered_bytes",
		"probe.cross_matrix_s", "probe.landmark_rtts_s", "probe.campaign_s",
		"geoloc.calibrate_s", "geoloc.locate_s", "geoloc.locates", "geoloc.locates_per_s", "geoloc.unlocated",
		"analysis.dcmap_s", "analysis.preferred_s", "analysis.sessionize_s", "analysis.nonpref_s",
		"experiments.warm_s", "experiments.table1_s", "experiments.table3_s", "experiments.fig02_s",
		"experiments.fig16_s", "experiments.fig17_18_s",
		"runtime.gc_cycles", "runtime.gc_pause_s", "cpu.runtime_gc", "trace.overhead_s",
	}
	for _, m := range cpuModules {
		named = append(named, "cpu."+m)
	}
	for _, n := range named {
		if !emitted[n] {
			t.Errorf("metric %s is not emitted", n)
		}
	}
}

// TestReportArtifact checks the run's ytcdn.report/v1 artifact: it
// validates, records the environment and carries fail_frac and the time
// figures as measured, before scaling to the reference host speed.
func TestReportArtifact(t *testing.T) {
	cfg := tiny("store-week", false)
	mustRun(t, cfg)
	r := readReport(t, cfg)
	for _, key := range []string{"nproc", "gomaxprocs", "go_version"} {
		if r.Config[key] == "" {
			t.Errorf("report config lacks %s", key)
		}
	}
	if r.Commit == "" {
		t.Error("report has no commit")
	}
	found := map[string]bool{}
	for _, m := range r.Metrics {
		found[m.Name] = true
	}
	for _, d := range append([]metricDef{{name: "fail_frac"}}, hostMetrics...) {
		if !found[d.name] {
			t.Errorf("report has no %s", d.name)
		}
	}
}

// TestStoreTracesEqualInMemory: the traces store-week reads back from
// the disk-backed store equal those of the same study captured in
// memory, so store-week's trace pins are the in-memory run's digests.
func TestStoreTracesEqualInMemory(t *testing.T) {
	e, w, err := newEnv(tiny("store-week", false))
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(e.scratch)
	it, err := runIteration(e, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.release()
	mem, err := ytcdn.Run(baseOptions(e))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := traceOutputs(mem, "trace.", true)
	got := map[string]string{}
	for _, o := range it.outputs {
		got[o.name] = o.digest
	}
	for _, o := range want {
		if got[o.name] != o.digest {
			t.Errorf("%s: store digest %q, in memory %q", o.name, got[o.name], o.digest)
		}
	}
}

func readReport(t *testing.T, cfg config) *report.Report {
	t.Helper()
	path := filepath.Join(cfg.root, ".bench_build", "perfbench", fmt.Sprintf("%s-seed%d-trace0.json", cfg.workload, cfg.seed))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.ValidateJSON(data); err != nil {
		t.Fatal(err)
	}
	var r report.Report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	return &r
}

// TestServed: the served share is busy / (busy + steal) between two
// readings, and 1 when nothing was stolen or nothing was read.
func TestServed(t *testing.T) {
	for _, c := range []struct {
		from, to vmTime
		want     float64
	}{
		{vmTime{100, 5}, vmTime{190, 15}, 0.9},
		{vmTime{100, 5}, vmTime{200, 5}, 1},
		{vmTime{}, vmTime{}, 1},
	} {
		if got := served(c.from, c.to); got != c.want {
			t.Errorf("served(%+v, %+v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if _, err := os.Stat("/proc/stat"); err == nil && readVMTime().busy <= 0 {
		t.Errorf("readVMTime() = %+v with /proc/stat present, want busy time > 0", readVMTime())
	}
}
