package geoloc_test

import (
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/geoloc"
	"github.com/ytcdn-sim/ytcdn/internal/geoloc/geoloctest"
	"github.com/ytcdn-sim/ytcdn/internal/probe"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

// randomPoint draws a point uniformly over the sphere.
func randomPoint(g *rand.Rand) geo.Point {
	return geo.Point{
		Lat: math.Asin(2*g.Float64()-1) * 180 / math.Pi,
		Lon: 360*g.Float64() - 180,
	}
}

// synthRTT is a round trip over a path inflated 1–2.5× beyond the
// great circle at the physical 100 km/ms, plus up to 3 ms of queueing:
// loose enough that some disc sets intersect only after relaxation.
func synthRTT(a, b geo.Point, g *rand.Rand) time.Duration {
	ms := geo.Distance(a, b)/100*(1+1.5*g.Float64()) + 3*g.Float64()
	return time.Duration(ms * float64(time.Millisecond))
}

// TestLocateMatchesHaversineOracle holds the grid kernel to the
// full-haversine reference on random 215-landmark sets: every target,
// including ones near a pole and on the antimeridian, must get the
// reference's Region bit for bit.
func TestLocateMatchesHaversineOracle(t *testing.T) {
	g := rand.New(rand.NewSource(13))
	const sets, landmarks = 4, 215
	for set := 0; set < sets; set++ {
		pts := make([]geo.Point, landmarks)
		lms := make([]geoloc.LandmarkInfo, landmarks)
		for i := range lms {
			pts[i] = randomPoint(g)
			lms[i] = geoloc.LandmarkInfo{Name: "lm", Loc: pts[i]}
		}
		cbg, err := geoloc.Calibrate(lms, func(i, j int) time.Duration { return synthRTT(pts[i], pts[j], g) })
		if err != nil {
			t.Fatal(err)
		}
		var targets []geo.Point
		for k := 0; k < 16; k++ {
			targets = append(targets, randomPoint(g))
		}
		for _, sign := range []float64{-1, 1} {
			targets = append(targets,
				geo.Point{Lat: sign * (85 + 5*g.Float64()), Lon: 360*g.Float64() - 180},
				geo.Point{Lat: 120*g.Float64() - 60, Lon: sign * (178 + 2*g.Float64())})
		}
		for _, target := range targets {
			rtts := make([]time.Duration, landmarks)
			for i := range rtts {
				rtts[i] = synthRTT(pts[i], target, g)
			}
			// Drop a few landmarks, as unreachable ones are in sweeps.
			for k := 0; k < 5; k++ {
				rtts[g.Intn(landmarks)] = 0
			}
			got, want := cbg.Locate(rtts), geoloctest.Locate(cbg, rtts)
			if !geoloctest.Same(got, want) {
				t.Fatalf("set %d target %v: Locate = %+v, oracle = %+v", set, target, got, want)
			}
		}
	}
}

// TestLocateAntimeridian pins a search box that straddles the
// antimeridian: its cells run past 180°E, and the centroid (180.94°
// before the fix) must come back into range, matching the oracle.
func TestLocateAntimeridian(t *testing.T) {
	pts := []geo.Point{{Lat: -18, Lon: 178.5}, {Lat: -21, Lon: -175.2}, {Lat: -14, Lon: -171.8}, {Lat: -36.8, Lon: 174.7}}
	target := geo.Point{Lat: -17, Lon: -179}
	// Round trips at exactly the physical 100 km/ms.
	rtt := func(a, b geo.Point) time.Duration {
		return time.Duration(geo.Distance(a, b) / 100 * float64(time.Millisecond))
	}
	lms := make([]geoloc.LandmarkInfo, len(pts))
	for i, p := range pts {
		lms[i] = geoloc.LandmarkInfo{Name: "lm", Loc: p}
	}
	cbg, err := geoloc.Calibrate(lms, func(i, j int) time.Duration { return rtt(pts[i], pts[j]) })
	if err != nil {
		t.Fatal(err)
	}
	rtts := make([]time.Duration, len(pts))
	for i, p := range pts {
		rtts[i] = rtt(p, target)
	}
	got := cbg.Locate(rtts)
	if !got.Centroid.Valid() {
		t.Fatalf("centroid %v out of range", got.Centroid)
	}
	if math.Abs(got.Centroid.Lon-(180.9412-360)) > 1e-3 {
		t.Errorf("centroid lon %.4f, want %.4f", got.Centroid.Lon, 180.9412-360)
	}
	if d := geo.Distance(got.Centroid, target); d > 200 {
		t.Errorf("centroid %v is %.0f km from the target", got.Centroid, d)
	}
	if want := geoloctest.Locate(cbg, rtts); !geoloctest.Same(got, want) {
		t.Errorf("Locate = %+v, oracle = %+v", got, want)
	}
}

// paperFixture is a calibrated CBG over the paper world's 215
// landmarks, with the landmark RTT vectors of one server per data
// center as Locate inputs.
func paperFixture(tb testing.TB) (*geoloc.CBG, [][]time.Duration) {
	tb.Helper()
	const seed = 20100904
	w, err := topology.BuildPaperWorld(topology.PaperConfig{Scale: 0.05, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	prober := probe.New(w, stats.NewRNG(seed))
	cross := prober.CrossRTTMatrix(5)
	cbg, err := geoloc.Calibrate(prober.LandmarkInfos(), func(i, j int) time.Duration { return cross[i][j] })
	if err != nil {
		tb.Fatal(err)
	}
	var inputs [][]time.Duration
	seen := map[topology.DataCenterID]bool{}
	for _, srv := range w.Servers {
		if seen[srv.DC] {
			continue
		}
		seen[srv.DC] = true
		rtts, err := prober.LandmarkRTTs(srv.Addr, 3)
		if err != nil {
			tb.Fatal(err)
		}
		inputs = append(inputs, rtts)
	}
	return cbg, inputs
}

// BenchmarkLocate measures one CBG localization over the paper
// world's 215 landmarks.
func BenchmarkLocate(b *testing.B) {
	cbg, inputs := paperFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cbg.Locate(inputs[i%len(inputs)])
	}
}

// BenchmarkLocateHaversine is the same work done by the full-haversine
// oracle, the comparison baseline for BenchmarkLocate.
func BenchmarkLocateHaversine(b *testing.B) {
	cbg, inputs := paperFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = geoloctest.Locate(cbg, inputs[i%len(inputs)])
	}
}

// TestLocateAllocs pins Locate's per-call allocations: the disc slice
// and the sort, never per-pass or per-disc tables. Opt-in via
// PERF_ASSERT=1 (the CI perfgate job).
func TestLocateAllocs(t *testing.T) {
	if os.Getenv("PERF_ASSERT") != "1" {
		t.Skip("set PERF_ASSERT=1 to assert Locate allocation counts")
	}
	cbg, inputs := paperFixture(t)
	for _, rtts := range inputs {
		if allocs := testing.AllocsPerRun(20, func() { _ = cbg.Locate(rtts) }); allocs > 4 {
			t.Fatalf("Locate allocates %.1f times per call, want at most 4", allocs)
		}
	}
}
