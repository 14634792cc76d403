package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	ytcdn "github.com/ytcdn-sim/ytcdn"
	"github.com/ytcdn-sim/ytcdn/internal/analysis"
	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/geoloc"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
	"github.com/ytcdn-sim/ytcdn/internal/par"
	"github.com/ytcdn-sim/ytcdn/internal/probe"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
	"github.com/ytcdn-sim/ytcdn/internal/tracestore"
)

// The replays below re-run one layer on the data the traced iteration
// itself captured or measured, timing the layer alone. Each records its
// figures into m and its correctness checks into c.

// replayMemSink feeds the study's records into a fresh MemSink, one
// dataset after another in emission order.
func replayMemSink(s *ytcdn.Study, m map[string]float64, c *checker) {
	sink := capture.NewMemSink()
	n := 0
	var busy time.Duration
	for _, ds := range ytcdn.DatasetNames() {
		recs, err := capture.Collect(s.TraceIter(ds))
		if err != nil {
			c.op("replay.memsink", err)
			return
		}
		t := time.Now()
		for _, r := range recs {
			sink.Record(ds, r)
		}
		busy += time.Since(t)
		n += len(recs)
	}
	m["capture.memsink_records_per_s"] = rate(float64(n), busy)
	var err error
	if got := sink.TotalRecords(); got != s.TotalFlows() {
		err = fmt.Errorf("replayed %d records, captured %d", got, s.TotalFlows())
	}
	c.op("replay.memsink", err)
}

// replayStore measures the disk-backed store of a store-week study: the
// store's own size, a write replay of its records into a second store,
// a full segment scan and a start-ordered k-way merge scan.
func replayStore(s *ytcdn.Study, scratch string, m map[string]float64, c *checker) {
	disk, err := dirBytes(s.StoreDir())
	if err != nil {
		c.op("replay.store", err)
		return
	}
	m["tracestore.disk_bytes"] = float64(disk)
	m["tracestore.bytes_per_record"] = float64(disk) / float64(s.TotalFlows())

	dir := filepath.Join(scratch, "store-replay")
	defer os.RemoveAll(dir)
	w, err := tracestore.NewWriter(dir, tracestore.Options{})
	if err != nil {
		c.op("replay.store", err)
		return
	}
	n := 0
	var busy time.Duration
	for _, ds := range ytcdn.DatasetNames() {
		recs, err := capture.Collect(s.TraceIter(ds))
		if err != nil {
			c.op("replay.store", err)
			return
		}
		t := time.Now()
		for _, r := range recs {
			w.Record(ds, r)
		}
		busy += time.Since(t)
		n += len(recs)
	}
	t := time.Now()
	err = w.Close()
	busy += time.Since(t)
	if err != nil {
		c.op("replay.store", err)
		return
	}
	m["tracestore.write_records_per_s"] = rate(float64(n), busy)

	rd, err := tracestore.OpenReader(s.StoreDir())
	if err != nil {
		c.op("replay.store", err)
		return
	}
	t = time.Now()
	scanned := 0
	for _, ds := range ytcdn.DatasetNames() {
		k, err := drain(rd.Iter(ds))
		if err != nil {
			c.op("replay.store", err)
			return
		}
		scanned += k
	}
	m["tracestore.scan_mb_per_s"] = rate(float64(rd.BytesScanned())/1e6, time.Since(t))

	t = time.Now()
	merged := 0
	for _, ds := range ytcdn.DatasetNames() {
		k, err := drain(rd.ScanByStart(ds))
		if err != nil {
			c.op("replay.store", err)
			return
		}
		merged += k
	}
	m["tracestore.scan_by_start_records_per_s"] = rate(float64(merged), time.Since(t))
	if peak := float64(rd.PeakBufferedBytes()); peak > m["tracestore.peak_buffered_bytes"] {
		m["tracestore.peak_buffered_bytes"] = peak
	}

	if total := s.TotalFlows(); scanned != total || merged != total || n != total {
		err = fmt.Errorf("store holds %d records: replayed %d, scanned %d, merged %d", total, n, scanned, merged)
	}
	c.op("replay.store", err)
}

func drain(it capture.Iterator) (int, error) {
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			return n, it.Err()
		}
		n++
	}
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// replayLocalization repeats the harness's measurement pipeline step by
// step through the probe, geoloc and analysis packages, with the
// harness's worker-pool size and measurement streams: landmark cross
// matrix, CBG calibration, landmark sweeps and Locate for every server,
// the per-dataset ping campaigns, and the per-dataset analysis passes.
// The located regions must equal Harness.Geolocate()'s.
func replayLocalization(e *env, s *ytcdn.Study, tr *tracer, m map[string]float64, c *checker) {
	prober := probe.New(s.World, stats.NewRNG(s.Seed).Fork("probe"))
	timed := func(name string, f func()) {
		end := tr.begin(name)
		t := time.Now()
		f()
		m[name+"_s"] += time.Since(t).Seconds()
		end()
	}

	var cross [][]time.Duration
	timed("probe.cross_matrix", func() { cross = prober.CrossRTTMatrixParallel(5, e.par) })
	var cbg *geoloc.CBG
	var err error
	timed("geoloc.calibrate", func() {
		cbg, err = geoloc.Calibrate(prober.LandmarkInfos(), func(i, j int) time.Duration { return cross[i][j] })
	})
	if err != nil {
		c.op("replay.locate", err)
		return
	}

	// The harness localizes every distinct server of every trace and
	// pings, per dataset, the servers that dataset saw.
	servers := map[string][]ipnet.Addr{}
	union := map[ipnet.Addr]bool{}
	for _, ds := range ytcdn.DatasetNames() {
		set := map[ipnet.Addr]bool{}
		it := s.TraceIter(ds)
		for r, ok := it.Next(); ok; r, ok = it.Next() {
			set[r.Server] = true
			union[r.Server] = true
		}
		if err := it.Err(); err != nil {
			c.op("replay.locate", err)
			return
		}
		servers[ds] = sortedAddrs(set)
	}
	all := sortedAddrs(union)

	rtts := make([][]time.Duration, len(all))
	ok := make([]bool, len(all))
	timed("probe.landmark_rtts", func() {
		par.ForEach(len(all), e.par, func(i int) {
			var err error
			rtts[i], err = prober.LandmarkRTTs(all[i], 3)
			ok[i] = err == nil
		})
	})
	regions := make([]geoloc.Region, len(all))
	timed("geoloc.locate", func() {
		par.ForEach(len(all), e.par, func(i int) {
			if ok[i] {
				regions[i] = cbg.Locate(rtts[i])
			}
		})
	})
	located := map[ipnet.Addr]geoloc.Region{}
	for i, a := range all {
		if ok[i] {
			located[a] = regions[i]
		}
	}
	m["geoloc.locates"] = float64(len(located))
	m["geoloc.unlocated"] = float64(len(all) - len(located))
	m["geoloc.locates_per_s"] = rate(float64(len(located)), time.Duration(m["geoloc.locate_s"]*1e9))

	want, err := s.Experiments().Geolocate()
	if err == nil {
		err = sameRegions(located, want)
	}
	c.op("replay.locate", err)

	locs := make(map[ipnet.Addr]geo.Point, len(located))
	for a, r := range located {
		locs[a] = r.Centroid
	}
	for _, ds := range ytcdn.DatasetNames() {
		var campaign map[ipnet.Addr]float64
		timed("probe.campaign", func() {
			campaign, err = prober.CampaignFromVPParallel(ds, servers[ds], 10, e.par)
		})
		if err == nil {
			err = replayAnalysis(s, ds, locs, campaign, timed)
		}
		c.op("replay.analysis."+ds, err)
	}
}

// replayAnalysis repeats one dataset's analysis passes: clustering the
// dataset's Google servers into data centers, finding the preferred
// one, sessionizing the start-ordered Google subset and the per-video
// non-preferred accounting.
func replayAnalysis(s *ytcdn.Study, ds string, locs map[ipnet.Addr]geo.Point, rtts map[ipnet.Addr]float64, timed func(string, func())) error {
	vp := s.World.VantagePoints[s.World.VPIndex(ds)]
	google := func() capture.Iterator { return analysis.GoogleIter(s.TraceIter(ds), s.World.Registry, vp.AS.Number) }
	recs, err := capture.Collect(google())
	if err != nil {
		return err
	}
	dsLocs := map[ipnet.Addr]geo.Point{}
	for _, r := range recs {
		if loc, ok := locs[r.Server]; ok {
			dsLocs[r.Server] = loc
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })

	var dcmap *analysis.DCMap
	timed("analysis.dcmap", func() { dcmap = analysis.BuildDCMap(dsLocs, 100) })
	var pref analysis.PreferredResult
	timed("analysis.preferred", func() {
		pref, err = analysis.FindPreferredIter(analysis.VideoIter(google()), dcmap, rtts, vp.City.Point)
	})
	if err != nil {
		return err
	}
	tally := analysis.NewSessionTally(10)
	timed("analysis.sessionize", func() {
		err = analysis.StreamSessions(capture.IterSlice(recs), time.Second, func(ses analysis.Session) {
			tally.Add(ses, dcmap, pref.Preferred)
		})
	})
	if err != nil {
		return err
	}
	timed("analysis.nonpref", func() {
		_, err = analysis.NonPreferredPerVideoIter(analysis.VideoIter(google()), dcmap, pref.Preferred)
	})
	if err == nil && tally.Sessions() == 0 {
		err = fmt.Errorf("%s: no sessions", ds)
	}
	return err
}

func sameRegions(got, want map[ipnet.Addr]geoloc.Region) error {
	if len(got) != len(want) {
		return fmt.Errorf("replay located %d servers, harness %d", len(got), len(want))
	}
	for a, r := range want {
		if got[a] != r {
			return fmt.Errorf("server %v: replay %+v, harness %+v", a, got[a], r)
		}
	}
	return nil
}

func sortedAddrs(set map[ipnet.Addr]bool) []ipnet.Addr {
	out := make([]ipnet.Addr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func rate(n float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return n / d.Seconds()
}
