// Package geo provides geographic primitives used throughout the
// ride-sharing market framework: latitude/longitude points, distance
// computation, bounding boxes, and uniform grids used for surge-pricing
// zones.
//
// Distances are returned in kilometers. Two distance functions are
// provided: exact haversine and a faster equirectangular approximation
// that is accurate to well under 1% at city scale (the scale at which the
// paper's market operates).
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius in kilometers.
const EarthRadiusKm = 6371.0088

// Point is a geographic location. Following the paper's notation
// (§III-A), a point is the tuple (u, v) of latitude and longitude in
// degrees.
type Point struct {
	Lat float64 // latitude in degrees, in [-90, 90]
	Lon float64 // longitude in degrees, in [-180, 180]
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.5f, %.5f)", p.Lat, p.Lon)
}

// Valid reports whether the point lies within the legal
// latitude/longitude ranges.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// degToRad converts degrees to radians.
func degToRad(d float64) float64 { return d * math.Pi / 180 }

// Haversine returns the great-circle distance between a and b in
// kilometers using the haversine formula. It is exact on the spherical
// Earth model and numerically stable for small distances.
func Haversine(a, b Point) float64 {
	lat1 := degToRad(a.Lat)
	lat2 := degToRad(b.Lat)
	dLat := lat2 - lat1
	dLon := degToRad(b.Lon - a.Lon)

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// Equirectangular returns the approximate distance between a and b in
// kilometers using the equirectangular projection. At city scale (tens of
// kilometers) the error versus haversine is negligible, and it is roughly
// 3x faster; the market simulator uses it on hot paths.
func Equirectangular(a, b Point) float64 {
	meanLat := degToRad((a.Lat + b.Lat) / 2)
	x := degToRad(b.Lon-a.Lon) * math.Cos(meanLat)
	y := degToRad(b.Lat - a.Lat)
	return EarthRadiusKm * math.Hypot(x, y)
}

// kmPerDeg is the length of one degree of latitude.
const kmPerDeg = EarthRadiusKm * math.Pi / 180

// CosLat returns the cosine of a latitude in degrees, computed the way
// Equirectangular computes the cosine of a mean latitude.
func CosLat(lat float64) float64 { return math.Cos(degToRad(lat)) }

// EquirectangularSqAt returns Equirectangular(a, b) squared with cosLat
// standing in for the cosine of the mean latitude: three multiplications
// and no trigonometry, for callers that can decide a comparison from a
// bound and take the exact distance only when they cannot. The cosine is
// unimodal on [-90°, 90°], so over any band of latitudes that holds both
// points — and with them their mean — it is least at an end of the band
// and greatest at the equator or, failing that, at the other end. Up to
// float rounding (a few parts in 10¹⁶: the coordinate differences are
// the very subtractions Equirectangular performs), a cosLat no greater
// than the least makes the result a lower bound on Equirectangular(a,
// b)², one no less than the greatest an upper bound; a caller that
// scales the result by 1 ∓ 1e-9 before comparing has the inequality in
// floats too.
func EquirectangularSqAt(a, b Point, cosLat float64) float64 {
	x := (b.Lon - a.Lon) * (cosLat * kmPerDeg)
	y := (b.Lat - a.Lat) * kmPerDeg
	return x*x + y*y
}

// DistanceFunc computes the distance in kilometers between two points.
type DistanceFunc func(a, b Point) float64

// Snap is a point resolved onto a routing graph: the node nearest to it
// and the straight-line access leg between the two. A metric that
// routes between graph nodes (internal/roadnet) computes it once per
// point, so a caller holding a point that does not move can hold its
// Snap instead of paying the nearest-node search on every distance. A
// Snap means something only to the router that produced it.
type Snap struct {
	P        Point   // the point that was snapped
	Node     int32   // nearest graph node, -1 on an empty graph
	AccessKm float64 // straight-line distance from P to Node
}

// Midpoint returns the arithmetic midpoint of a and b. It is adequate at
// city scale where the projection distortion is negligible.
func Midpoint(a, b Point) Point {
	return Point{Lat: (a.Lat + b.Lat) / 2, Lon: (a.Lon + b.Lon) / 2}
}

// BoundingBox is an axis-aligned latitude/longitude rectangle.
type BoundingBox struct {
	MinLat, MinLon float64
	MaxLat, MaxLon float64
}

// PortoBox approximates the metropolitan area of Porto, Portugal — the
// city whose taxi trace the paper evaluates on (§VI-A).
var PortoBox = BoundingBox{
	MinLat: 41.10, MinLon: -8.70,
	MaxLat: 41.25, MaxLon: -8.50,
}

// Contains reports whether p lies inside the box (inclusive).
func (b BoundingBox) Contains(p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat &&
		p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// Center returns the center point of the box.
func (b BoundingBox) Center() Point {
	return Point{Lat: (b.MinLat + b.MaxLat) / 2, Lon: (b.MinLon + b.MaxLon) / 2}
}

// Valid reports whether the box is non-degenerate and within legal
// coordinate ranges.
func (b BoundingBox) Valid() bool {
	min := Point{Lat: b.MinLat, Lon: b.MinLon}
	max := Point{Lat: b.MaxLat, Lon: b.MaxLon}
	return min.Valid() && max.Valid() && b.MinLat < b.MaxLat && b.MinLon < b.MaxLon
}

// WidthKm returns the east-west extent of the box in kilometers measured
// along its central latitude.
func (b BoundingBox) WidthKm() float64 {
	mid := (b.MinLat + b.MaxLat) / 2
	return Equirectangular(Point{Lat: mid, Lon: b.MinLon}, Point{Lat: mid, Lon: b.MaxLon})
}

// HeightKm returns the north-south extent of the box in kilometers.
func (b BoundingBox) HeightKm() float64 {
	return Equirectangular(Point{Lat: b.MinLat, Lon: b.MinLon}, Point{Lat: b.MaxLat, Lon: b.MinLon})
}

// Clamp returns p moved to the nearest point inside the box.
func (b BoundingBox) Clamp(p Point) Point {
	return Point{
		Lat: math.Min(math.Max(p.Lat, b.MinLat), b.MaxLat),
		Lon: math.Min(math.Max(p.Lon, b.MinLon), b.MaxLon),
	}
}

// Lerp returns the point at fractional position (fLat, fLon) inside the
// box, where (0,0) is the south-west corner and (1,1) the north-east
// corner. It is the primitive used by deterministic Monte-Carlo samplers.
func (b BoundingBox) Lerp(fLat, fLon float64) Point {
	return Point{
		Lat: b.MinLat + fLat*(b.MaxLat-b.MinLat),
		Lon: b.MinLon + fLon*(b.MaxLon-b.MinLon),
	}
}

// Offset returns the point reached by traveling distKm kilometers from p
// at the given bearing (radians clockwise from north), using a local
// flat-Earth approximation that is accurate at city scale. The trace
// generator uses it to place a trip destination at a sampled distance and
// random direction from the pickup.
func Offset(p Point, bearingRad, distKm float64) Point {
	dLat := distKm / EarthRadiusKm * math.Cos(bearingRad) * 180 / math.Pi
	cosLat := math.Cos(degToRad(p.Lat))
	if math.Abs(cosLat) < 1e-9 {
		cosLat = 1e-9
	}
	dLon := distKm / EarthRadiusKm * math.Sin(bearingRad) / cosLat * 180 / math.Pi
	return Point{Lat: p.Lat + dLat, Lon: p.Lon + dLon}
}
