// Command perfbench is the repository's benchmark. It runs one named
// workload through the public API (ytcdn.Run, Study.Experiments and the
// exported functions of the probe, geoloc, analysis and tracestore
// packages), checks every output, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload store-week --seed 1 --seconds 48 --trace 0
//
// --trace 0 repeats untraced iterations for --seconds and reports the
// end-to-end metrics as medians. --trace 1 runs one untraced and one
// traced iteration, then replays single layers on the traced
// iteration's own data, and reports the per-layer metrics. Each run
// also writes a ytcdn.report/v1 report, and a traced run its spans,
// under .bench_build/perfbench/.
//
// The package is a module of its own, so the repository's go test ./...
// leaves it out; its smoke tests run with: cd perfbench && go test .
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/obs/report"
)

// config is one invocation. scale, span and pins are zero in normal
// runs; the smoke tests shrink the workloads and supply their own pins.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	scale    float64
	span     time.Duration
	pins     pinTable
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 20100904, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "how long the untraced iterations run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository root; results go to <root>/.bench_build/perfbench")
	printPins := flag.Bool("print-pins", false, "print the digests of one untraced iteration as pins.json entries and exit")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *printPins {
		if err := printDigests(cfg, os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}
	res, err := run(cfg, os.Stderr)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// newEnv resolves a config into the workload and its environment.
func newEnv(cfg config) (*env, workload, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, w, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	pins, standard := cfg.pins, cfg.scale == 0 && cfg.span == 0
	if pins == nil && standard {
		var err error
		if pins, err = loadPins(); err != nil {
			return nil, w, err
		}
	}
	e := &env{seed: cfg.seed, scale: cfg.scale, span: cfg.span, par: runtime.GOMAXPROCS(0)}
	if e.scale == 0 {
		e.scale = w.scale
	}
	if e.span == 0 {
		e.span = 7 * 24 * time.Hour
	}
	if pins != nil {
		e.pins = pins.pinsFor(cfg.workload, cfg.seed)
	}
	e.scratch = filepath.Join(cfg.root, ".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	return e, w, os.MkdirAll(e.scratch, 0o755)
}

// setupReps is how many times a run repeats the set-up; setup_s is the
// median. One set-up takes about 40 ms, mostly math in
// content.NewCatalog, and on a shared host its time swings between
// phases a few hundred milliseconds long; 41 repetitions span several
// of them, so one slow or fast phase does not decide the median.
const setupReps = 41

func run(cfg config, logw io.Writer) (*result, error) {
	e, w, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.scratch)
	c := &checker{pins: e.pins}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	v0 := readVMTime()
	setups := make([][]time.Duration, setupReps)
	totals := make([]float64, setupReps)
	for i := range setups {
		runtime.GC() // every repetition starts from the same heap
		if setups[i], err = setup(e, tr); err != nil {
			return nil, err
		}
		for _, d := range setups[i] {
			totals[i] += d.Seconds()
		}
	}
	metrics := map[string]float64{"setup_s": median(totals) * served(v0, readVMTime()), "raw.setup_s": median(totals)}

	defs, iterations := endToEnd, 0
	if cfg.trace {
		defs, iterations = perLayer(), 2
		err = traced(e, w, tr, setups, metrics, c)
	} else {
		iterations, err = untraced(e, w, cfg.seconds, metrics, c, logw)
	}
	if err != nil {
		return nil, err
	}

	res := &result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: metrics[d.name], Unit: d.unit}
	}
	for _, f := range c.failures {
		fmt.Fprintf(logw, "perfbench: check failed: %s\n", f)
	}
	if err := writeArtifacts(cfg, e, res, defs, metrics, iterations, tr); err != nil {
		return nil, err
	}
	return res, nil
}

// untraced repeats the workload while another iteration fits in
// seconds (at least once), then fills the rest of the run, and at
// least up to the workload's simSamples, with simulation-only passes,
// each of which adds a flows_per_s sample. It fills the end-to-end
// metrics with medians, the wall-clock ones with stolen time taken out
// (see served), and returns how many iterations ran.
func untraced(e *env, w workload, seconds float64, m map[string]float64, c *checker, logw io.Writer) (int, error) {
	var walls, rates, cpus, rss, allocs, rawWalls, rawRates, shares []float64
	budget := time.Duration(seconds * float64(time.Second))
	firstFlows := 0
	start := time.Now()
	var sim time.Duration // the latest simulation's time
	for {
		it, err := runIteration(e, w, nil)
		if err != nil {
			return 0, err
		}
		c.check(it.outputs)
		if err := it.release(); err != nil {
			return 0, err
		}
		if len(walls) == 0 {
			firstFlows = it.flows
		}
		walls = append(walls, it.wall.Seconds()*it.served)
		rates = append(rates, rate(float64(it.flows), it.sim)/it.simServed)
		cpus = append(cpus, it.cpu.Seconds())
		rss = append(rss, it.peakRSS)
		allocs = append(allocs, float64(it.alloc)/1e6)
		rawWalls = append(rawWalls, it.wall.Seconds())
		rawRates = append(rawRates, rate(float64(it.flows), it.sim))
		shares = append(shares, it.served)
		sim = it.sim
		fmt.Fprintf(logw, "perfbench: iteration %d: wall %.3fs, ytcdn.Run %.3fs, cpu %.3fs, checks %.3fs, served %.3f\n",
			len(walls), it.wall.Seconds(), it.sim.Seconds(), it.cpu.Seconds(), it.check.Seconds(), it.served)
		if time.Since(start)+it.wall > budget {
			break
		}
	}
	for len(rates) < w.simSamples || time.Since(start)+sim <= budget {
		flows, d, share, err := simulate(e, w)
		if err != nil {
			return 0, err
		}
		if flows != firstFlows {
			err = fmt.Errorf("captured %d flows, the first iteration %d", flows, firstFlows)
		}
		c.op("repeat_simulation", err)
		rates = append(rates, rate(float64(flows), d)/share)
		rawRates = append(rawRates, rate(float64(flows), d))
		shares = append(shares, share)
		sim = d
		fmt.Fprintf(logw, "perfbench: simulation %d: ytcdn.Run %.3fs, served %.3f\n", len(rates), d.Seconds(), share)
	}
	m["wall_s"] = median(walls)
	m["flows_per_s"] = median(rates)
	m["cpu_s"] = median(cpus)
	m["alloc_mb"] = median(allocs)
	m["peak_rss_mb"] = median(rss)
	m["raw.wall_s"] = median(rawWalls)
	m["raw.flows_per_s"] = median(rawRates)
	m["served"] = median(shares)
	return len(walls), nil
}

// traced runs one untraced iteration, then the traced one under a CPU
// profile, then the layer replays, and fills the per-layer metrics.
func traced(e *env, w workload, tr *tracer, setups [][]time.Duration, m map[string]float64, c *checker) error {
	for i, name := range setupSteps {
		ds := make([]float64, len(setups))
		for j := range setups {
			ds[j] = setups[j][i].Seconds()
		}
		m[name+"_s"] = median(ds)
	}

	plain, err := runIteration(e, w, nil)
	if err != nil {
		return err
	}
	c.check(plain.outputs)
	if err := plain.release(); err != nil {
		return err
	}

	pr := newProbes(tr)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	it, err := runIteration(e, w, pr)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	c.check(it.outputs)
	c.op("traced_equals_untraced", sameDigests(plain.outputs, it.outputs))
	defer it.release()

	shares, err := moduleShares(prof.Bytes())
	c.op("cpu_profile", err)
	for k, v := range shares {
		m[k] = v
	}
	m["trace.wall_s"] = it.wall.Seconds()
	m["trace.overhead_s"] = it.wall.Seconds() - plain.wall.Seconds()
	m["runtime.gc_cycles"] = float64(it.gcCycles)
	m["runtime.gc_pause_s"] = it.gcPause.Seconds()

	snap := pr.reg.Snapshot()
	val := func(name string) float64 {
		if v, ok := snap.Counters[name]; ok {
			return float64(v)
		}
		return snap.Gauges[name]
	}
	m["workload.arrivals"] = val("sim.workload.arrivals")
	m["des.events"] = val("sim.des.events")
	m["des.events_per_s"] = rate(m["des.events"], it.sim)
	m["core.decisions"] = float64(pr.policy.decisions.Load())
	m["core.decision_busy_s"] = float64(pr.policy.busyNs.Load()) / 1e9
	m["core.decisions_per_s"] = ratio(m["core.decisions"], m["core.decision_busy_s"])
	m["core.spills"] = val("sim.selector.spills")
	m["core.hotspots"] = val("sim.selector.hotspots")
	m["core.misses"] = val("sim.selector.misses")
	m["cdn.sessions"] = val("sim.cdn.sessions")
	m["cdn.flows"] = val("sim.cdn.flows")
	m["cdn.redirects"] = val("sim.cdn.redirects")
	m["cdn.chains"] = val("sim.cdn.chains")
	m["cdn.redirects_per_chain"] = ratio(m["cdn.redirects"], m["cdn.chains"])
	m["capture.records"] = float64(pr.sink.n.Load())
	m["tracestore.peak_buffered_bytes"] = val("store.scan.peak_buffered_bytes")
	for _, name := range append([]string{"warm", "fig17_18"}, suiteItems[:18]...) {
		m["experiments."+name+"_s"] = tr.seconds("experiments." + name)
	}
	for _, phase := range []string{"localization", "probing", "analysis"} {
		m["experiments."+phase+"_s"] = tr.seconds("experiments.phase." + phase)
	}
	m["analysis.sessionize_s"] = tr.seconds("analysis.sessionize")

	err = nil
	if n := int64(m["capture.records"]); n != int64(it.flows) {
		err = fmt.Errorf("extra sink saw %d records, study captured %d", n, it.flows)
	}
	c.op("capture.records", err)

	if it.study.StoreDir() == "" {
		replayMemSink(it.study, m, c)
	} else {
		replayStore(it.study, e.scratch, m, c)
	}
	if w.localizes {
		replayLocalization(e, it.study, tr, m, c)
	}
	return nil
}

// writeArtifacts writes the run's ytcdn.report/v1 report and, for a
// traced run, its spans.
func writeArtifacts(cfg config, e *env, res *result, defs []metricDef, metrics map[string]float64, iterations int, tr *tracer) error {
	dir := filepath.Join(cfg.root, ".bench_build", "perfbench")
	trace := 0
	if cfg.trace {
		trace = 1
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, trace)
	r := report.New("perfbench/" + cfg.workload)
	if r.Commit == "" {
		r.Commit = sourceDigest(cfg.root)
	}
	r.Set("workload", cfg.workload).
		Set("seed", strconv.FormatInt(cfg.seed, 10)).
		Set("scale", fmt.Sprint(e.scale)).
		Set("span", e.span.String()).
		Set("seconds", fmt.Sprint(cfg.seconds)).
		Set("trace", fmt.Sprint(cfg.trace)).
		Set("iterations", strconv.Itoa(iterations)).
		Set("nproc", strconv.Itoa(runtime.NumCPU())).
		Set("gomaxprocs", strconv.Itoa(runtime.GOMAXPROCS(0))).
		Set("go_version", runtime.Version()).
		Set("pinned_seed", fmt.Sprint(e.pins != nil))
	for _, d := range defs {
		r.Add(d.name, res.Metrics[d.name].Value, d.unit)
	}
	if !cfg.trace {
		for _, d := range hostMetrics {
			r.Add(d.name, metrics[d.name], d.unit)
		}
	}
	r.Add("checks.attempted", float64(res.Attempted), "count")
	r.Add("checks.failed", float64(res.Failed), "count")
	r.Add("fail_frac", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	if err := r.WriteFile(filepath.Join(dir, base+".json")); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	return tr.writeFile(filepath.Join(dir, base+"-spans.json"))
}

// sourceDigest stands in for the commit when the build carries none (a
// checkout that is not a git repository): a hash of the module's Go
// sources and go.mod files.
func sourceDigest(root string) string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries just drop out of the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// printDigests prints one untraced iteration's digests in pins.json
// shape.
func printDigests(cfg config, out io.Writer) error {
	e, w, err := newEnv(cfg)
	if err != nil {
		return err
	}
	defer os.RemoveAll(e.scratch)
	it, err := runIteration(e, w, nil)
	if err != nil {
		return err
	}
	defer it.release()
	pins := map[string]string{}
	for _, o := range it.outputs {
		if o.err != nil {
			return fmt.Errorf("%s: %v", o.name, o.err)
		}
		if o.digest != "" {
			pins[o.name] = o.digest
		}
	}
	data, err := json.MarshalIndent(pinTable{cfg.workload: {fmt.Sprint(cfg.seed): pins}}, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(data))
	return err
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

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
