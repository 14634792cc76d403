package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	ytcdn "github.com/ytcdn-sim/ytcdn"
	"github.com/ytcdn-sim/ytcdn/internal/analysis"
	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/core"
	"github.com/ytcdn-sim/ytcdn/internal/obs"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
	"github.com/ytcdn-sim/ytcdn/internal/tracestore"
)

// workload is one set of inputs the benchmark runs. The two differ in
// which layers do the work, and between them every layer works:
//
//   - paper-suite is what ytcdn-experiments -scale 0.25 does, the program
//     users run: simulate in memory, localize every server, probe,
//     analyse and render every table and figure. Localization dominates
//     it.
//   - store-week is the sequential simulation at paper scale captured
//     through the disk-backed store, then read back by streaming passes
//     (Tables I-II, Fig 4, one start-ordered sessionizing pass per
//     dataset): des, core, cdn, workload, capture and tracestore do the
//     work, geoloc none, and MemSink is bypassed.
type workload struct {
	scale float64
	// options returns the study options of one iteration.
	options func(e *env) ytcdn.Options
	// read runs the workload's own reads and renders over a finished
	// study, inside the timed window, and returns their outputs; nil
	// when the workload has none.
	read func(e *env, s *ytcdn.Study, tr *tracer) ([]output, error)
	// check digests and checks what the iteration produced, after the
	// timed window: it is the benchmark's work, not the program's.
	check func(e *env, s *ytcdn.Study) []output
	// localizes marks the workload that runs CBG localization.
	localizes bool
	// simSamples is the least number of simulations an untraced run
	// times for flows_per_s. paper-suite's iterations, one or two to a
	// run, each hold one simulation of about two seconds, too few to
	// take a median of, so its runs add simulation-only passes.
	simSamples int
}

var workloads = map[string]workload{
	"paper-suite": {scale: 0.25, options: baseOptions, read: readSuite, check: checkRegions, localizes: true, simSamples: 5},
	"store-week":  {scale: 1, options: storeOptions, read: readStore, check: checkStore},
}

func workloadNames() []string {
	return []string{"paper-suite", "store-week"}
}

// env is what one run knows about its workload.
type env struct {
	seed    int64
	scale   float64
	span    time.Duration
	par     int
	pins    map[string]string // nil when the seed is not pinned
	scratch string            // directory for this run's stores
	iter    int               // iterations started, for unique store directories
}

func baseOptions(e *env) ytcdn.Options {
	return ytcdn.Options{Seed: e.seed, Scale: e.scale, Span: e.span, Parallelism: e.par}
}

func storeOptions(e *env) ytcdn.Options {
	o := baseOptions(e)
	o.Store = &ytcdn.StoreOptions{Dir: filepath.Join(e.scratch, fmt.Sprintf("store-%d", e.iter))}
	return o
}

// setupSteps are what ytcdn.Run builds before the first simulated
// event, through the same public constructors; the names are the spans
// and, with "_s", the per-layer metrics.
var setupSteps = []string{"topology.build", "content.catalog", "core.placement", "core.selector_new"}

// setup runs setupSteps once and returns the time of each.
func setup(e *env, tr *tracer) ([]time.Duration, error) {
	var w *topology.World
	var cat *content.Catalog
	var pl *core.Placement
	run := []func() error{
		func() (err error) {
			w, err = topology.BuildPaperWorld(topology.PaperConfig{Seed: e.seed, Scale: e.scale})
			return err
		},
		func() (err error) { cat, err = content.NewCatalog(content.DefaultConfig()); return err },
		func() (err error) {
			pl, err = core.NewPlacement(w, cat, core.OriginPolicy{CopiesPerVideo: 2})
			return err
		},
		func() error { _, err := core.NewSelector(w, pl, core.DefaultConfig()); return err },
	}
	d := make([]time.Duration, len(run))
	for i, step := range run {
		end := tr.begin(setupSteps[i])
		t := time.Now()
		err := step()
		d[i] = time.Since(t)
		end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", setupSteps[i], err)
		}
	}
	return d, nil
}

// probes are the instruments of a traced iteration, all passed in
// through Options: a metrics registry, the timed paper policy, a
// counting extra sink and the tracer as the harness's profiler.
type probes struct {
	tr     *tracer
	reg    *obs.Registry
	policy *timedPolicy
	sink   *countingSink
}

func newProbes(tr *tracer) *probes {
	return &probes{tr: tr, reg: obs.NewRegistry(), policy: &timedPolicy{inner: core.DefaultPaperPolicy()}, sink: &countingSink{}}
}

// iteration is one measured pass of a workload.
type iteration struct {
	wall, sim, cpu time.Duration
	// served and simServed are the shares of vCPU time the host served
	// during the iteration and during its simulation (see served).
	served, simServed float64
	check             time.Duration // the output checks, outside wall
	peakRSS           float64       // MB, up to the end of the timed window
	alloc             uint64
	gcCycles          uint32
	gcPause           time.Duration
	flows             int
	outputs           []output
	study             *ytcdn.Study
}

// runIteration runs the workload once: ytcdn.Run (set-up and
// simulation) and the workload's reads and renders, which the wall,
// CPU and allocation figures cover, then the output checks, which they
// do not. With pr non-nil the run is traced.
func runIteration(e *env, w workload, pr *probes) (*iteration, error) {
	e.iter++
	opts := w.options(e)
	var tr *tracer
	if pr != nil {
		tr = pr.tr
		opts.Metrics, opts.Policy, opts.ExtraSink, opts.Profiler = pr.reg, pr.policy, pr.sink, pr.tr
	}
	// Start from a collected heap, so that no iteration pays for the
	// garbage of the set-up or of the iteration before it, nor counts it
	// in its peak resident set.
	debug.FreeOSMemory()
	resetPeakRSS()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	v0 := readVMTime()
	t0 := time.Now()

	end := tr.begin("ytcdn.Run")
	study, err := ytcdn.Run(opts)
	end()
	sim := time.Since(t0)
	vSim := readVMTime()
	if err != nil {
		return nil, err
	}
	var outs []output
	if w.read != nil {
		if outs, err = w.read(e, study, tr); err != nil {
			return nil, err
		}
	}

	it := &iteration{wall: time.Since(t0), sim: sim, cpu: cpuTime() - cpu0, peakRSS: peakRSSMB(), study: study, flows: study.TotalFlows()}
	it.served, it.simServed = served(v0, readVMTime()), served(v0, vSim)
	runtime.ReadMemStats(&ms1)
	it.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	it.gcCycles = ms1.NumGC - ms0.NumGC
	it.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	t1 := time.Now()
	it.outputs = append(outs, w.check(e, study)...)
	it.check = time.Since(t1)
	return it, nil
}

// simulate times one ytcdn.Run of the workload alone and returns the
// flows it captured and the share of vCPU time the host served.
func simulate(e *env, w workload) (int, time.Duration, float64, error) {
	e.iter++
	opts := w.options(e)
	debug.FreeOSMemory()
	v0 := readVMTime()
	t := time.Now()
	s, err := ytcdn.Run(opts)
	d := time.Since(t)
	share := served(v0, readVMTime())
	if err != nil {
		return 0, d, share, err
	}
	if dir := s.StoreDir(); dir != "" {
		err = os.RemoveAll(dir)
	}
	return s.TotalFlows(), d, share, err
}

// release drops an iteration's study and its store, if any.
func (it *iteration) release() error {
	dir := it.study.StoreDir()
	it.study = nil
	if dir == "" {
		return nil
	}
	return os.RemoveAll(dir)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the process's resident-set high-water mark
// from the current resident set (Linux 4.0 and later), so that
// peakRSSMB covers what ran since. Where that fails, peakRSSMB reads
// the peak of the whole process.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB is the resident-set high-water mark (VmHWM; getrusage
// Maxrss without /proc). Both are in KiB.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kib float64
				if _, err := fmt.Sscanf(v, "%g kB", &kib); err == nil {
					return kib / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// chunkWriter keeps every Write separately with the time it arrived:
// Harness.RunAll writes each rendered table or figure with one
// Fprintln, so the gap between two writes is the time of one item.
type chunkWriter struct {
	chunks []string
	at     []time.Time
}

func (c *chunkWriter) Write(p []byte) (int, error) {
	c.chunks = append(c.chunks, string(p))
	c.at = append(c.at, time.Now())
	return len(p), nil
}

type renderer interface{ Render() string }

// readSuite renders the paper suite exactly as ytcdn-experiments does,
// with Harness.RunAll. Warm runs first under its own span (RunAll's own
// Warm then finds everything cached); a traced run times each rendered
// item from the gaps between RunAll's writes.
func readSuite(e *env, s *ytcdn.Study, tr *tracer) ([]output, error) {
	h := s.Experiments()
	end := tr.begin("experiments.warm")
	_ = h.Warm() // as in RunAll: a failing step re-surfaces the error
	end()
	cw := chunkWriter{at: []time.Time{time.Now()}}
	runErr := h.RunAll(&cw)
	for i, name := range suiteItems[:18] {
		if i+1 < len(cw.at) {
			tr.record("experiments."+name, cw.at[i], cw.at[i+1])
		}
	}
	if len(cw.at) > len(suiteItems) {
		tr.record("experiments.fig17_18", cw.at[18], cw.at[20])
	}

	outs := make([]output, 0, len(suiteItems)+1)
	for i, name := range suiteItems {
		o := output{name: "item." + name}
		switch {
		case i < len(cw.chunks):
			o.digest = textDigest(cw.chunks[i])
			if strings.TrimSpace(cw.chunks[i]) == "" {
				o.err = errors.New("rendered empty")
			}
		case runErr != nil:
			o.err = runErr
		default:
			o.err = errors.New("not rendered")
		}
		outs = append(outs, o)
	}
	text := output{name: "text", digest: textDigest(strings.Join(cw.chunks, ""))}
	if len(cw.chunks) != len(suiteItems) {
		text.err = fmt.Errorf("%d rendered items, want %d", len(cw.chunks), len(suiteItems))
	}
	return append(outs, text), nil
}

// checkRegions digests the per-server CBG regions the suite computed
// (the harness caches them, so nothing is localized again).
func checkRegions(e *env, s *ytcdn.Study) []output {
	regions, err := s.Experiments().Geolocate()
	if err != nil {
		return []output{{name: "regions", err: err}}
	}
	return []output{regionsOutput(regions)}
}

// traceOutputs digests every dataset's trace and checks its records;
// counts holds each dataset's record count.
func traceOutputs(s *ytcdn.Study, prefix string, digest bool) (outs []output, counts []int) {
	for _, ds := range ytcdn.DatasetNames() {
		n, d, err := traceStats(s.TraceIter(ds), s.Span)
		if !digest {
			d = ""
		}
		outs = append(outs, output{name: prefix + ds, digest: d, err: err})
		counts = append(counts, n)
	}
	return outs, counts
}

// readStore runs the store-backed reads: Tables I-II and Fig 4 through
// the harness and one start-ordered ScanByStart + StreamSessions pass
// per dataset.
func readStore(e *env, s *ytcdn.Study, tr *tracer) ([]output, error) {
	h := s.Experiments()
	var outs []output
	for _, st := range []struct {
		name string
		run  func() (renderer, error)
	}{
		{"table1", func() (renderer, error) { return h.TableI() }},
		{"table2", func() (renderer, error) { return h.TableII() }},
		{"fig04", func() (renderer, error) { return h.Fig04FlowSizes() }},
	} {
		end := tr.begin("experiments." + st.name)
		res, err := st.run()
		end()
		o := output{name: st.name, err: err}
		if err == nil {
			o.digest = textDigest(res.Render())
		}
		outs = append(outs, o)
	}

	rd, err := tracestore.OpenReader(s.StoreDir())
	if err != nil {
		return nil, err
	}
	for _, ds := range ytcdn.DatasetNames() {
		vp := s.World.VantagePoints[s.World.VPIndex(ds)]
		tally := analysis.NewSessionTally(10)
		flows := 0
		end := tr.begin("analysis.sessionize")
		err := analysis.StreamSessions(analysis.GoogleIter(rd.ScanByStart(ds), s.World.Registry, vp.AS.Number),
			time.Second, func(ses analysis.Session) {
				tally.Add(ses, nil, 0)
				flows += len(ses.Flows)
			})
		end()
		o := output{name: "sessions." + ds, err: err}
		if err == nil {
			o.digest = textDigest(fmt.Sprint(tally.Sessions(), flows, tally.Histogram()))
			if tally.Sessions() == 0 {
				o.err = errors.New("no sessions")
			}
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// checkStore digests each dataset's trace as read back from the store
// (its pins are the digests of the same study run in memory) and checks
// the record counts against the store's own.
func checkStore(e *env, s *ytcdn.Study) []output {
	traces, counts := traceOutputs(s, "trace.", true)
	rd, err := tracestore.OpenReader(s.StoreDir())
	if err != nil {
		return append(traces, output{name: "store.records", err: err})
	}
	for i, ds := range ytcdn.DatasetNames() {
		if n := int64(counts[i]); n != rd.Records(ds) && traces[i].err == nil {
			traces[i].err = fmt.Errorf("read %d records, store holds %d", n, rd.Records(ds))
		}
	}
	return traces
}
