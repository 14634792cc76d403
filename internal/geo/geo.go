// Package geo provides geographic primitives used throughout the
// simulator: latitude/longitude points, great-circle (haversine)
// distances, continents, and a small gazetteer of the cities hosting
// data centers, vantage points, and measurement landmarks.
//
// All distances are in kilometers. The Earth is modelled as a sphere of
// radius 6371 km, the same approximation used by CBG-style geolocation
// tools.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used for great-circle math.
const EarthRadiusKm = 6371.0

// Point is a geographic position in decimal degrees.
type Point struct {
	Lat float64 // degrees, positive north
	Lon float64 // degrees, positive east
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.4f, %.4f)", p.Lat, p.Lon)
}

// Valid reports whether the point lies in the usual coordinate ranges.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180
}

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }

// Distance returns the great-circle distance in kilometers between a
// and b using the haversine formula, which is numerically stable for
// small distances.
func Distance(a, b Point) float64 {
	lat1, lon1 := Radians(a.Lat), Radians(a.Lon)
	lat2, lon2 := Radians(b.Lat), Radians(b.Lon)
	dLat := lat2 - lat1
	dLon := lon2 - lon1
	return ArcKm(HaversineTerm(math.Sin(dLat/2), math.Sin(dLon/2), math.Cos(lat1), math.Cos(lat2)))
}

// HaversineTerm returns Distance's h, the haversine of the central
// angle, from the sines of half the latitude and longitude differences
// and the cosines of both latitudes. Callers that hoist those sines
// and cosines out of a loop get Distance's h bit for bit.
func HaversineTerm(sinHalfDLat, sinHalfDLon, cosLat1, cosLat2 float64) float64 {
	return sinHalfDLat*sinHalfDLat + cosLat1*cosLat2*sinHalfDLon*sinHalfDLon
}

// ArcKm converts a haversine term h to the great-circle distance in
// kilometers, exactly as Distance does. No h gives more than ArcKm(1),
// half the Earth's circumference.
func ArcKm(h float64) float64 {
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// Destination returns the point reached by travelling distanceKm from
// start along the given initial bearing (degrees clockwise from north).
// It is used to synthesize landmark positions around seed cities.
func Destination(start Point, bearingDeg, distanceKm float64) Point {
	ang := distanceKm / EarthRadiusKm // angular distance
	brg := Radians(bearingDeg)
	lat1 := Radians(start.Lat)
	lon1 := Radians(start.Lon)

	sinLat2 := math.Sin(lat1)*math.Cos(ang) + math.Cos(lat1)*math.Sin(ang)*math.Cos(brg)
	lat2 := math.Asin(sinLat2)
	y := math.Sin(brg) * math.Sin(ang) * math.Cos(lat1)
	x := math.Cos(ang) - math.Sin(lat1)*sinLat2
	lon2 := lon1 + math.Atan2(y, x)

	// Normalize longitude to [-180, 180).
	lonDeg := math.Mod(lon2*180/math.Pi+540, 360) - 180
	return Point{Lat: lat2 * 180 / math.Pi, Lon: lonDeg}
}

// Midpoint returns the great-circle midpoint of a and b. It is used as
// a cheap centroid for pairs when intersecting constraint regions.
func Midpoint(a, b Point) Point {
	lat1, lon1 := Radians(a.Lat), Radians(a.Lon)
	lat2, lon2 := Radians(b.Lat), Radians(b.Lon)
	dLon := lon2 - lon1

	bx := math.Cos(lat2) * math.Cos(dLon)
	by := math.Cos(lat2) * math.Sin(dLon)
	lat3 := math.Atan2(math.Sin(lat1)+math.Sin(lat2),
		math.Sqrt((math.Cos(lat1)+bx)*(math.Cos(lat1)+bx)+by*by))
	lon3 := lon1 + math.Atan2(by, math.Cos(lat1)+bx)

	lonDeg := math.Mod(lon3*180/math.Pi+540, 360) - 180
	return Point{Lat: lat3 * 180 / math.Pi, Lon: lonDeg}
}

// Continent identifies a continental region. The paper buckets server
// locations into North America, Europe, and "Others" (Table III); we
// keep the finer breakdown and collapse when rendering.
type Continent int

// Continents, starting at 1 so the zero value is invalid
// (ContinentUnknown).
const (
	ContinentUnknown Continent = iota
	NorthAmerica
	Europe
	Asia
	SouthAmerica
	Oceania
	Africa
)

var continentNames = map[Continent]string{
	ContinentUnknown: "Unknown",
	NorthAmerica:     "N. America",
	Europe:           "Europe",
	Asia:             "Asia",
	SouthAmerica:     "S. America",
	Oceania:          "Oceania",
	Africa:           "Africa",
}

// String implements fmt.Stringer.
func (c Continent) String() string {
	if s, ok := continentNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Continent(%d)", int(c))
}

// IsOther reports whether the continent falls in the paper's "Others"
// bucket (anything but North America and Europe).
func (c Continent) IsOther() bool {
	return c != NorthAmerica && c != Europe
}

// City is a named location with a continent tag.
type City struct {
	Name      string
	Country   string
	Continent Continent
	Point     Point
}

// String implements fmt.Stringer.
func (c City) String() string {
	return fmt.Sprintf("%s, %s", c.Name, c.Country)
}
