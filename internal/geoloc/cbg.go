// Package geoloc implements the two geolocation approaches the paper
// contrasts in §V: a static IP-to-location database (which places
// every Google server in Mountain View and is therefore useless for
// this infrastructure) and CBG — Constraint-Based Geolocation (Gueye
// et al., IEEE/ACM ToN 2006) — the delay-based multilateration the
// authors actually use.
//
// CBG works in two phases. Calibration: each landmark measures RTTs to
// all other landmarks (whose positions are known) and fits its
// "bestline" — the lowest line lying above every (RTT, distance)
// point, found on the upper convex hull. Location: the landmark's
// bestline converts a measured RTT to the target into a distance upper
// bound, i.e. a disc around the landmark; the target must lie in the
// intersection of all discs. The centroid of the intersection is the
// position estimate and sqrt(area/π) its confidence radius (Fig 3).
package geoloc

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/geo"
)

// LandmarkInfo is a measurement host with known position.
type LandmarkInfo struct {
	Name string
	Loc  geo.Point
}

// Bestline is a landmark's calibrated RTT→distance conversion:
// distance_km <= Slope * rtt_ms + InterceptKm.
type Bestline struct {
	SlopeKmPerMs float64
	InterceptKm  float64
}

// maxSlopeKmPerMs is the physical limit: light in fiber covers ~100 km
// per millisecond of RTT (200 km/ms one-way over half the RTT).
const maxSlopeKmPerMs = 100.0

// CBG is a calibrated constraint-based geolocator.
type CBG struct {
	landmarks []LandmarkInfo
	lines     []Bestline
	// sites holds each landmark's disc-centre terms of the haversine,
	// computed once so Locate never recomputes them.
	sites []site
}

// site is a landmark position in radians plus the cosine of its
// latitude, computed exactly as geo.Distance computes them.
type site struct {
	latR, lonR, cosLat float64
}

// Calibrate fits each landmark's bestline from the cross-RTT matrix
// crossRTT(i, j), the measured (minimum) RTT between landmarks i and j.
func Calibrate(landmarks []LandmarkInfo, crossRTT func(i, j int) time.Duration) (*CBG, error) {
	if len(landmarks) < 3 {
		return nil, fmt.Errorf("geoloc: CBG needs at least 3 landmarks, got %d", len(landmarks))
	}
	c := &CBG{landmarks: landmarks, lines: make([]Bestline, len(landmarks)), sites: make([]site, len(landmarks))}
	for i := range landmarks {
		latR := geo.Radians(landmarks[i].Loc.Lat)
		c.sites[i] = site{latR: latR, lonR: geo.Radians(landmarks[i].Loc.Lon), cosLat: math.Cos(latR)}
		pts := make([]point2, 0, len(landmarks)-1)
		for j := range landmarks {
			if i == j {
				continue
			}
			rtt := crossRTT(i, j).Seconds() * 1000
			dist := geo.Distance(landmarks[i].Loc, landmarks[j].Loc)
			if rtt <= 0 {
				continue
			}
			pts = append(pts, point2{x: rtt, y: dist})
		}
		line, err := fitBestline(pts)
		if err != nil {
			return nil, fmt.Errorf("geoloc: landmark %s: %w", landmarks[i].Name, err)
		}
		c.lines[i] = line
	}
	return c, nil
}

// Landmarks returns the calibrated landmark set.
func (c *CBG) Landmarks() []LandmarkInfo { return c.landmarks }

// Line returns landmark i's bestline.
func (c *CBG) Line(i int) Bestline { return c.lines[i] }

type point2 struct{ x, y float64 }

// fitBestline solves the CBG linear program: minimize the total
// overshoot sum(m*x_j + b - y_j) subject to every point lying on or
// below the line and 0 < m <= maxSlope. The optimum is supported by an
// edge of the upper convex hull (or by the slope clamp), so only hull
// edges need to be evaluated.
func fitBestline(pts []point2) (Bestline, error) {
	if len(pts) < 2 {
		return Bestline{}, fmt.Errorf("need at least 2 calibration points, got %d", len(pts))
	}
	hull := upperHull(pts)

	var sumX, sumY float64
	for _, p := range pts {
		sumX += p.x
		sumY += p.y
	}
	n := float64(len(pts))
	// objective(m, b) = m*sumX + n*b - sumY (all constraints satisfied
	// means every term non-negative).
	objective := func(m, b float64) float64 { return m*sumX + n*b - sumY }
	feasible := func(m, b float64) bool {
		for _, p := range hull { // hull points dominate all others
			if p.y > m*p.x+b+1e-9 {
				return false
			}
		}
		return true
	}

	best := Bestline{SlopeKmPerMs: maxSlopeKmPerMs, InterceptKm: 0}
	bestObj := math.Inf(1)
	if feasible(best.SlopeKmPerMs, best.InterceptKm) {
		bestObj = objective(best.SlopeKmPerMs, best.InterceptKm)
	}
	consider := func(m, b float64) {
		if m <= 0 || m > maxSlopeKmPerMs {
			return
		}
		if !feasible(m, b) {
			return
		}
		if obj := objective(m, b); obj < bestObj {
			bestObj = obj
			best = Bestline{SlopeKmPerMs: m, InterceptKm: b}
		}
	}
	// Hull edges.
	for i := 1; i < len(hull); i++ {
		p, q := hull[i-1], hull[i]
		if q.x == p.x {
			continue
		}
		m := (q.y - p.y) / (q.x - p.x)
		b := p.y - m*p.x
		consider(m, b)
	}
	// Slope clamp through each hull vertex (binding m = maxSlope).
	for _, p := range hull {
		consider(maxSlopeKmPerMs, p.y-maxSlopeKmPerMs*p.x)
	}
	if math.IsInf(bestObj, 1) {
		return Bestline{}, fmt.Errorf("no feasible bestline")
	}
	return best, nil
}

// upperHull returns the upper convex hull of pts, left to right
// (Andrew's monotone chain).
func upperHull(pts []point2) []point2 {
	sorted := make([]point2, len(pts))
	copy(sorted, pts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].x != sorted[j].x {
			return sorted[i].x < sorted[j].x
		}
		return sorted[i].y < sorted[j].y
	})
	var hull []point2
	for _, p := range sorted {
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// Keep the chain turning clockwise (concave down).
			if (b.x-a.x)*(p.y-a.y)-(b.y-a.y)*(p.x-a.x) >= 0 {
				hull = hull[:len(hull)-1]
				continue
			}
			break
		}
		hull = append(hull, p)
	}
	return hull
}

// Region is a CBG location estimate.
type Region struct {
	// Centroid is the position estimate.
	Centroid geo.Point
	// RadiusKm is the confidence radius: the radius of a circle with
	// the same area as the feasible intersection region.
	RadiusKm float64
	// Feasible is false when the discs had no common intersection even
	// after relaxation (the estimate falls back to the tightest disc).
	Feasible bool
}

// disc is one landmark's distance constraint: the target lies within
// radius km of landmark lm.
type disc struct {
	lm     int
	radius float64
}

// Locate estimates the position of a target from its per-landmark
// measured RTTs. Entries with non-positive RTT are skipped (landmark
// unreachable).
func (c *CBG) Locate(rtts []time.Duration) Region {
	discs := make([]disc, 0, len(rtts))
	for i, rtt := range rtts {
		if i >= len(c.landmarks) || rtt <= 0 {
			continue
		}
		ms := rtt.Seconds() * 1000
		r := c.lines[i].SlopeKmPerMs*ms + c.lines[i].InterceptKm
		// The physical bound always applies.
		if phys := ms * maxSlopeKmPerMs; r > phys {
			r = phys
		}
		if r < 1 {
			r = 1
		}
		discs = append(discs, disc{lm: i, radius: r})
	}
	if len(discs) == 0 {
		return Region{Feasible: false}
	}
	// Tightest discs first: they prune the grid fastest and define the
	// search box.
	sort.Slice(discs, func(i, j int) bool { return discs[i].radius < discs[j].radius })
	center := c.landmarks[discs[0].lm].Loc

	// Relaxation loop: CBG underestimation can make the intersection
	// empty; inflate radii until points qualify.
	for _, slack := range []float64{1.0, 1.1, 1.25, 1.5, 2.0} {
		region, ok := c.gridRegion(boxAround(center, discs[0].radius*slack), discs, slack)
		if ok {
			region.Feasible = slack == 1.0
			return region
		}
	}
	return Region{Centroid: center, RadiusKm: discs[0].radius, Feasible: false}
}

// guard is the relative half-width of the band around a disc's
// haversine threshold inside which a cell is decided by the exact
// distance instead. Rounding in h, the threshold and the distance is
// orders of magnitude smaller.
const guard = 1e-9

// maxArcKm is the largest distance geo.Distance returns; a disc at
// least this wide contains every point.
var maxArcKm = geo.ArcKm(1)

// gridRegion grid-samples the search box, keeping the cells inside
// every disc inflated by slack, and returns the centroid and
// equivalent radius of those cells. Two passes: a coarse pass over the
// box, then a refined pass over the feasible sub-box.
//
// A cell is inside a disc when geo.Distance(cell, centre) <= r*slack,
// and every decision here is that comparison's, bit for bit, at a
// fraction of its cost. The distance grows with the haversine term h,
// so the test compares h against t = sin²(r*slack/2R) and computes the
// distance only when h falls within guard of t. h itself is
// geo.HaversineTerm over sines and cosines hoisted per row, per column
// and per disc: the grid is separable, so a pass takes 26 cosines, then
// at most 52 sines per disc, instead of six trig calls per cell and
// disc.
//
//perf:hot
//perf:noalloc
func (c *CBG) gridRegion(box latLonBox, discs []disc, slack float64) (Region, bool) {
	const n = 26
	for pass := 0; pass < 2; pass++ {
		dLat := (box.maxLat - box.minLat) / n
		dLon := (box.maxLon - box.minLon) / n
		if dLat <= 0 || dLon <= 0 {
			return Region{}, false
		}
		// Cell centres: row latitudes and column longitudes, in degrees
		// and radians, and the cosine of each row's latitude.
		var lat, latR, cosLat, lon, lonR [n]float64
		for i := 0; i < n; i++ {
			lat[i] = box.minLat + (float64(i)+0.5)*dLat
			latR[i] = geo.Radians(lat[i])
			cosLat[i] = math.Cos(latR[i])
			lon[i] = box.minLon + (float64(i)+0.5)*dLon
			lonR[i] = geo.Radians(lon[i])
		}
		// Cut the grid disc by disc; rowLeft and colLeft count each
		// row's and column's live cells, so dead ones cost no sine.
		var dead [n * n]bool
		var rowLeft, colLeft [n]int
		for i := range rowLeft {
			rowLeft[i], colLeft[i] = n, n
		}
		left := n * n
		for _, d := range discs {
			rs := d.radius * slack
			if rs >= maxArcKm {
				continue
			}
			lo, hi := band(rs)
			ctr := c.sites[d.lm]
			var sinLon [n]float64
			for j := 0; j < n; j++ {
				if colLeft[j] > 0 {
					sinLon[j] = math.Sin((ctr.lonR - lonR[j]) / 2)
				}
			}
			for i := 0; i < n; i++ {
				if rowLeft[i] == 0 {
					continue
				}
				sinLat := math.Sin((ctr.latR - latR[i]) / 2)
				for j := 0; j < n; j++ {
					if dead[i*n+j] {
						continue
					}
					h := geo.HaversineTerm(sinLat, sinLon[j], cosLat[i], ctr.cosLat)
					if outside(h, lo, hi, rs) {
						dead[i*n+j] = true
						rowLeft[i]--
						colLeft[j]--
						left--
					}
				}
			}
			if left == 0 {
				return Region{}, false
			}
		}

		var latSum, lonSum float64
		var minLat, maxLat, minLon, maxLon float64
		count := 0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if dead[i*n+j] {
					continue
				}
				if count == 0 {
					minLat, maxLat, minLon, maxLon = lat[i], lat[i], lon[j], lon[j]
				} else {
					minLat = math.Min(minLat, lat[i])
					maxLat = math.Max(maxLat, lat[i])
					minLon = math.Min(minLon, lon[j])
					maxLon = math.Max(maxLon, lon[j])
				}
				latSum += lat[i]
				lonSum += lon[j]
				count++
			}
		}
		centroid := geo.Point{Lat: latSum / float64(count), Lon: wrapLon(lonSum / float64(count))}
		// Cell area in km²: lat cell × lon cell at the centroid.
		cellKm2 := (dLat * 111.19) * (dLon * 111.19 * math.Cos(centroid.Lat*math.Pi/180))
		area := float64(count) * math.Abs(cellKm2)
		region := Region{Centroid: centroid, RadiusKm: math.Sqrt(area / math.Pi), Feasible: true}
		if pass == 1 || count > n*n/4 {
			return region, true
		}
		// Refine around the feasible cells.
		box = latLonBox{
			minLat: minLat - dLat, maxLat: maxLat + dLat,
			minLon: minLon - dLon, maxLon: maxLon + dLon,
		}
	}
	return Region{}, false
}

// band returns the guard band [lo, hi] around the haversine threshold
// t = sin²(rs/2R) of a disc of radius rs < maxArcKm.
func band(rs float64) (lo, hi float64) {
	s := math.Sin(rs / (2 * geo.EarthRadiusKm))
	t := s * s
	return t * (1 - guard), t * (1 + guard)
}

// outside reports whether a point with haversine term h to a disc's
// centre lies outside the disc, given the disc's radius rs and band:
// geo.Distance's own verdict, computing the distance only inside the
// band.
//
//perf:inline
//perf:noalloc
func outside(h, lo, hi, rs float64) bool {
	return h > lo && (h > hi || farther(h, rs))
}

// farther is outside's exact test for h inside the band, where the
// threshold alone cannot decide. Only cells within about 1e-9 of a
// disc's edge get here, so it is kept out of line to keep the asin
// off outside's inlining budget.
//
//go:noinline
func farther(h, rs float64) bool { return geo.ArcKm(h) > rs }

// wrapLon brings a longitude that a search box straddling the
// antimeridian pushed past ±180° back into range. In-range values pass
// through untouched, bits included.
func wrapLon(lon float64) float64 {
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return lon
}

type latLonBox struct {
	minLat, maxLat, minLon, maxLon float64
}

// boxAround returns the lat/lon bounding box of a disc.
func boxAround(center geo.Point, radiusKm float64) latLonBox {
	dLat := radiusKm / 111.19
	cos := math.Cos(center.Lat * math.Pi / 180)
	if cos < 0.05 {
		cos = 0.05
	}
	dLon := radiusKm / (111.19 * cos)
	return latLonBox{
		minLat: center.Lat - dLat, maxLat: center.Lat + dLat,
		minLon: center.Lon - dLon, maxLon: center.Lon + dLon,
	}
}
