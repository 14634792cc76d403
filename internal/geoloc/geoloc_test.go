package geoloc

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
	"github.com/ytcdn-sim/ytcdn/internal/netmodel"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
)

// synthetic landmark set around Europe and the US.
func testLandmarks() []LandmarkInfo {
	cities := []geo.City{
		geo.London, geo.Paris, geo.Amsterdam, geo.Frankfurt, geo.Milan,
		geo.Madrid, geo.Zurich, geo.Vienna, geo.Stockholm, geo.Dublin,
		geo.NewYork, geo.Chicago, geo.Dallas, geo.Seattle, geo.MountainView,
		geo.Atlanta, geo.Miami, geo.Denver, geo.WashingtonDC, geo.LosAngeles,
	}
	var out []LandmarkInfo
	for i, c := range cities {
		out = append(out, LandmarkInfo{Name: c.Name + string(rune('a'+i%26)), Loc: c.Point})
	}
	return out
}

// modelRTT builds a cross-RTT function from the net model.
func modelRTT(lms []LandmarkInfo, m *netmodel.Model, g *stats.RNG) func(i, j int) time.Duration {
	ep := func(i int) netmodel.Endpoint {
		return netmodel.Endpoint{ID: "lm-" + lms[i].Name, Loc: lms[i].Loc, Access: netmodel.AccessBackbone}
	}
	return func(i, j int) time.Duration {
		return m.MinRTT(ep(i), ep(j), 5, g)
	}
}

func TestCalibrateNeedsLandmarks(t *testing.T) {
	if _, err := Calibrate(testLandmarks()[:2], func(i, j int) time.Duration { return time.Millisecond }); err == nil {
		t.Error("fewer than 3 landmarks must fail")
	}
}

func TestBestlinesSound(t *testing.T) {
	lms := testLandmarks()
	m := netmodel.New(netmodel.DefaultConfig())
	g := stats.NewRNG(1)
	rtt := modelRTT(lms, m, g)
	// Freeze measurements so soundness is checked against the same
	// values calibration saw.
	n := len(lms)
	mat := make([][]time.Duration, n)
	for i := range mat {
		mat[i] = make([]time.Duration, n)
		for j := range mat[i] {
			if i != j {
				mat[i][j] = rtt(i, j)
			}
		}
	}
	cbg, err := Calibrate(lms, func(i, j int) time.Duration { return mat[i][j] })
	if err != nil {
		t.Fatal(err)
	}
	// Soundness: every calibration point lies under its landmark's
	// bestline.
	for i := range lms {
		line := cbg.Line(i)
		if line.SlopeKmPerMs <= 0 || line.SlopeKmPerMs > 100 {
			t.Fatalf("landmark %d slope %f out of (0, 100]", i, line.SlopeKmPerMs)
		}
		for j := range lms {
			if i == j {
				continue
			}
			ms := mat[i][j].Seconds() * 1000
			dist := geo.Distance(lms[i].Loc, lms[j].Loc)
			if dist > line.SlopeKmPerMs*ms+line.InterceptKm+1e-6 {
				t.Fatalf("bestline of landmark %d underestimates pair (%d,%d): %f > %f",
					i, i, j, dist, line.SlopeKmPerMs*ms+line.InterceptKm)
			}
		}
	}
}

func TestLocateFindsTarget(t *testing.T) {
	lms := testLandmarks()
	m := netmodel.New(netmodel.DefaultConfig())
	g := stats.NewRNG(2)
	cbg, err := Calibrate(lms, modelRTT(lms, m, g))
	if err != nil {
		t.Fatal(err)
	}
	targets := []geo.City{geo.Brussels, geo.Turin, geo.CouncilBluffs, geo.Warsaw}
	for _, city := range targets {
		ep := netmodel.Endpoint{ID: "target-" + city.Name, Loc: city.Point, Access: netmodel.AccessDataCenter}
		rtts := make([]time.Duration, len(lms))
		for i, lm := range lms {
			rtts[i] = m.MinRTT(netmodel.Endpoint{ID: "lm-" + lm.Name, Loc: lm.Loc, Access: netmodel.AccessBackbone}, ep, 5, g)
		}
		region := cbg.Locate(rtts)
		errKm := geo.Distance(region.Centroid, city.Point)
		if errKm > 400 {
			t.Errorf("%s: CBG error %f km (radius %f)", city.Name, errKm, region.RadiusKm)
		}
		if region.RadiusKm <= 0 {
			t.Errorf("%s: non-positive radius", city.Name)
		}
	}
}

func TestLocateDistinguishesContinents(t *testing.T) {
	lms := testLandmarks()
	m := netmodel.New(netmodel.DefaultConfig())
	g := stats.NewRNG(3)
	cbg, err := Calibrate(lms, modelRTT(lms, m, g))
	if err != nil {
		t.Fatal(err)
	}
	for _, city := range []geo.City{geo.Milan, geo.Dallas} {
		ep := netmodel.Endpoint{ID: "t-" + city.Name, Loc: city.Point, Access: netmodel.AccessDataCenter}
		rtts := make([]time.Duration, len(lms))
		for i, lm := range lms {
			rtts[i] = m.MinRTT(netmodel.Endpoint{ID: "lm-" + lm.Name, Loc: lm.Loc, Access: netmodel.AccessBackbone}, ep, 5, g)
		}
		region := cbg.Locate(rtts)
		if got, want := geo.ContinentOf(region.Centroid), city.Continent; got != want {
			t.Errorf("%s located on %v, want %v", city.Name, got, want)
		}
	}
}

func TestLocateEmptyInput(t *testing.T) {
	lms := testLandmarks()
	m := netmodel.New(netmodel.DefaultConfig())
	g := stats.NewRNG(4)
	cbg, err := Calibrate(lms, modelRTT(lms, m, g))
	if err != nil {
		t.Fatal(err)
	}
	region := cbg.Locate(nil)
	if region.Feasible {
		t.Error("empty RTT vector cannot be feasible")
	}
	// Negative RTTs are skipped.
	rtts := make([]time.Duration, len(lms))
	region = cbg.Locate(rtts)
	if region.Feasible {
		t.Error("all-zero RTT vector cannot be feasible")
	}
}

// TestOutsideMatchesDistance holds the threshold test to
// geo.Distance's verdict where the two can disagree: radii equal to the
// exact distance and its float neighbours put h inside the guard band,
// where the exact fallback decides. Pairs include near-antipodal ones,
// whose thresholds sit next to 1.
func TestOutsideMatchesDistance(t *testing.T) {
	g := rand.New(rand.NewSource(5))
	point := func() geo.Point {
		return geo.Point{Lat: math.Asin(2*g.Float64()-1) * 180 / math.Pi, Lon: 360*g.Float64() - 180}
	}
	inBand := 0
	for k := 0; k < 20000; k++ {
		p, c := point(), point()
		if k%4 == 0 { // near-antipodal
			c = geo.Point{Lat: -p.Lat + g.Float64() - 0.5, Lon: p.Lon + 180 + g.Float64() - 0.5}
		}
		d := geo.Distance(p, c)
		latP, latC := geo.Radians(p.Lat), geo.Radians(c.Lat)
		h := geo.HaversineTerm(math.Sin((latC-latP)/2), math.Sin((geo.Radians(c.Lon)-geo.Radians(p.Lon))/2),
			math.Cos(latP), math.Cos(latC))
		for _, rs := range []float64{
			math.Nextafter(d, 0), d, math.Nextafter(d, math.Inf(1)),
			d * (1 - 1e-8), d * (1 + 1e-8), 1 + g.Float64()*(maxArcKm-1),
		} {
			if rs >= maxArcKm {
				continue
			}
			lo, hi := band(rs)
			if got, want := outside(h, lo, hi, rs), d > rs; got != want {
				t.Fatalf("p=%v c=%v rs=%v: outside=%t, Distance %v > rs is %t", p, c, rs, got, d, want)
			}
			if h > lo && h <= hi {
				inBand++
			}
		}
	}
	if inBand == 0 {
		t.Fatal("no case reached the guard band")
	}
}

func TestWrapLon(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{180, 180}, {-180, -180}, {179.99, 179.99}, {180.94, 180.94 - 360}, {-181, 179}, {725, 5}, {-545, 175},
	} {
		if got := wrapLon(tc.in); got != tc.want {
			t.Errorf("wrapLon(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestFitBestlineSimple(t *testing.T) {
	// Points on the line y = 50x + 10 with one lower outlier: the
	// bestline must stay above all points and track the envelope.
	pts := []point2{
		{x: 1, y: 60}, {x: 2, y: 110}, {x: 4, y: 210}, {x: 8, y: 410},
		{x: 5, y: 100}, // well under the envelope
	}
	line, err := fitBestline(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.y > line.SlopeKmPerMs*p.x+line.InterceptKm+1e-6 {
			t.Fatalf("point (%f,%f) above bestline", p.x, p.y)
		}
	}
	if math.Abs(line.SlopeKmPerMs-50) > 1 || math.Abs(line.InterceptKm-10) > 5 {
		t.Errorf("bestline = %+v, want ~{50, 10}", line)
	}
}

func TestFitBestlineTooFewPoints(t *testing.T) {
	if _, err := fitBestline([]point2{{1, 1}}); err == nil {
		t.Error("single point must fail")
	}
}

func TestFitBestlineSlopeClamp(t *testing.T) {
	// Points implying a super-luminal slope must clamp to 100 km/ms.
	pts := []point2{{x: 1, y: 500}, {x: 2, y: 1000}, {x: 3, y: 1500}}
	line, err := fitBestline(pts)
	if err != nil {
		t.Fatal(err)
	}
	if line.SlopeKmPerMs > 100 {
		t.Errorf("slope %f exceeds physical limit", line.SlopeKmPerMs)
	}
	for _, p := range pts {
		if p.y > line.SlopeKmPerMs*p.x+line.InterceptKm+1e-6 {
			t.Error("clamped line must still cover all points")
		}
	}
}

func TestUpperHullConcave(t *testing.T) {
	pts := []point2{{0, 0}, {1, 3}, {2, 4}, {3, 4.5}, {4, 4.6}, {2, 1}}
	hull := upperHull(pts)
	if len(hull) < 2 {
		t.Fatal("hull too small")
	}
	// Slopes must be non-increasing along the upper hull.
	for i := 2; i < len(hull); i++ {
		s1 := (hull[i-1].y - hull[i-2].y) / (hull[i-1].x - hull[i-2].x)
		s2 := (hull[i].y - hull[i-1].y) / (hull[i].x - hull[i-1].x)
		if s2 > s1+1e-9 {
			t.Fatalf("hull slopes increase: %f then %f", s1, s2)
		}
	}
}

func TestStaticDB(t *testing.T) {
	db := NewStaticDB()
	if _, ok := db.Locate(ipnet.MustParseAddr("8.8.8.8")); ok {
		t.Error("empty DB must miss")
	}
	db.Register(ipnet.MustParsePrefix("173.194.0.0/16"), geo.MountainView.Point)
	db.Register(ipnet.MustParsePrefix("173.194.5.0/24"), geo.Dublin.Point)
	db.SetDefault(geo.London.Point)

	if loc, ok := db.Locate(ipnet.MustParseAddr("173.194.1.1")); !ok || loc != geo.MountainView.Point {
		t.Errorf("coarse prefix: %v %v", loc, ok)
	}
	if loc, ok := db.Locate(ipnet.MustParseAddr("173.194.5.7")); !ok || loc != geo.Dublin.Point {
		t.Errorf("longest prefix must win: %v %v", loc, ok)
	}
	if loc, ok := db.Locate(ipnet.MustParseAddr("9.9.9.9")); !ok || loc != geo.London.Point {
		t.Errorf("default: %v %v", loc, ok)
	}
}

func TestMountainViewDBIsWrongForDistributedServers(t *testing.T) {
	// The paper's §V negative result in miniature: the static database
	// puts every server at Mountain View, so a European server's
	// database position disagrees with its true position by thousands
	// of kilometers.
	db := NewMountainViewDB()
	loc, ok := db.Locate(ipnet.MustParseAddr("173.194.77.1"))
	if !ok {
		t.Fatal("default DB must always answer")
	}
	if d := geo.Distance(loc, geo.Milan.Point); d < 5000 {
		t.Errorf("DB location only %f km from Milan; expected transatlantic error", d)
	}
}
