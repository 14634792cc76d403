// Package geoloctest holds the reference implementation that tests
// hold geoloc.(*CBG).Locate to. It is imported by tests only.
package geoloctest

import (
	"math"
	"sort"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/geoloc"
)

// maxSlopeKmPerMs is geoloc's physical RTT→distance bound.
const maxSlopeKmPerMs = 100.0

// Locate is CBG localization with every grid-cell membership decided
// by a full geo.Distance call: the straightforward form of
// (*geoloc.CBG).Locate, which must return the same Region bit for bit.
func Locate(c *geoloc.CBG, rtts []time.Duration) geoloc.Region {
	type disc struct {
		center geo.Point
		radius float64
	}
	landmarks := c.Landmarks()
	discs := make([]disc, 0, len(rtts))
	for i, rtt := range rtts {
		if i >= len(landmarks) || rtt <= 0 {
			continue
		}
		ms := rtt.Seconds() * 1000
		line := c.Line(i)
		r := line.SlopeKmPerMs*ms + line.InterceptKm
		if phys := ms * maxSlopeKmPerMs; r > phys {
			r = phys
		}
		if r < 1 {
			r = 1
		}
		discs = append(discs, disc{center: landmarks[i].Loc, radius: r})
	}
	if len(discs) == 0 {
		return geoloc.Region{Feasible: false}
	}
	sort.Slice(discs, func(i, j int) bool { return discs[i].radius < discs[j].radius })

	inAll := func(p geo.Point, slack float64) bool {
		for _, d := range discs {
			if geo.Distance(p, d.center) > d.radius*slack {
				return false
			}
		}
		return true
	}
	for _, slack := range []float64{1.0, 1.1, 1.25, 1.5, 2.0} {
		region, ok := gridRegion(discs[0].center, discs[0].radius*slack, func(p geo.Point) bool {
			return inAll(p, slack)
		})
		if ok {
			region.Feasible = slack == 1.0
			return region
		}
	}
	return geoloc.Region{Centroid: discs[0].center, RadiusKm: discs[0].radius, Feasible: false}
}

// Same reports whether two regions agree bit for bit: centroid,
// radius and feasibility.
func Same(a, b geoloc.Region) bool {
	return math.Float64bits(a.Centroid.Lat) == math.Float64bits(b.Centroid.Lat) &&
		math.Float64bits(a.Centroid.Lon) == math.Float64bits(b.Centroid.Lon) &&
		math.Float64bits(a.RadiusKm) == math.Float64bits(b.RadiusKm) &&
		a.Feasible == b.Feasible
}

// gridRegion samples a 26×26 grid over the disc's bounding box, then
// once more over the feasible sub-box, testing each cell on its own.
func gridRegion(center geo.Point, radius float64, feasible func(geo.Point) bool) (geoloc.Region, bool) {
	const n = 26
	minLat, maxLat, minLon, maxLon := box(center, radius)
	for pass := 0; pass < 2; pass++ {
		var latSum, lonSum float64
		var fMinLat, fMaxLat, fMinLon, fMaxLon float64
		count := 0
		dLat := (maxLat - minLat) / n
		dLon := (maxLon - minLon) / n
		if dLat <= 0 || dLon <= 0 {
			return geoloc.Region{}, false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				p := geo.Point{
					Lat: minLat + (float64(i)+0.5)*dLat,
					Lon: minLon + (float64(j)+0.5)*dLon,
				}
				if !feasible(p) {
					continue
				}
				if count == 0 {
					fMinLat, fMaxLat, fMinLon, fMaxLon = p.Lat, p.Lat, p.Lon, p.Lon
				} else {
					fMinLat = math.Min(fMinLat, p.Lat)
					fMaxLat = math.Max(fMaxLat, p.Lat)
					fMinLon = math.Min(fMinLon, p.Lon)
					fMaxLon = math.Max(fMaxLon, p.Lon)
				}
				latSum += p.Lat
				lonSum += p.Lon
				count++
			}
		}
		if count == 0 {
			return geoloc.Region{}, false
		}
		lon := lonSum / float64(count)
		for lon > 180 {
			lon -= 360
		}
		for lon < -180 {
			lon += 360
		}
		centroid := geo.Point{Lat: latSum / float64(count), Lon: lon}
		cellKm2 := (dLat * 111.19) * (dLon * 111.19 * math.Cos(centroid.Lat*math.Pi/180))
		area := float64(count) * math.Abs(cellKm2)
		region := geoloc.Region{Centroid: centroid, RadiusKm: math.Sqrt(area / math.Pi), Feasible: true}
		if pass == 1 || count > n*n/4 {
			return region, true
		}
		minLat, maxLat = fMinLat-dLat, fMaxLat+dLat
		minLon, maxLon = fMinLon-dLon, fMaxLon+dLon
	}
	return geoloc.Region{}, false
}

// box is the lat/lon bounding box of a disc.
func box(center geo.Point, radiusKm float64) (minLat, maxLat, minLon, maxLon float64) {
	dLat := radiusKm / 111.19
	cos := math.Cos(center.Lat * math.Pi / 180)
	if cos < 0.05 {
		cos = 0.05
	}
	dLon := radiusKm / (111.19 * cos)
	return center.Lat - dLat, center.Lat + dLat, center.Lon - dLon, center.Lon + dLon
}
