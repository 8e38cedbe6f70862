// Package trace generates synthetic Porto-like taxi traces.
//
// The paper evaluates on the ECML/PKDD'15 Porto dataset: a year of
// trajectories for the 442 taxis of Porto, Portugal, from which it draws
// (a) trip records with publish/start/end times, sources and
// destinations, and (b) driver shifts derived from driver IDs and trip
// timestamps. That dataset is not redistributable here, so this package
// is the substitution documented in DESIGN.md: a deterministic generator
// that reproduces the properties the evaluation actually consumes —
//
//   - travel-time and travel-distance distributions with power-law shape
//     (paper Figs 3–4), via bounded-Pareto trip lengths;
//   - a daily demand curve with morning and evening rush peaks, via a
//     non-homogeneous Poisson arrival process (thinning);
//   - driver shifts of ~4 hours (the paper cites 4h average Uber working
//     periods), with the two working models of §VI-A: "home-work-home"
//     (source == destination) and "hitchhiking" (distinct endpoints);
//   - spatial concentration around city hotspots, via a Gaussian-mixture
//     pickup model over the Porto bounding box.
//
// All sampling is driven by a seeded *rand.Rand, so traces are fully
// reproducible.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/pricing"
)

// DriverModel selects how driver sources/destinations are generated
// (§VI-A of the paper).
type DriverModel int

const (
	// HomeWorkHome: the driver leaves a fixed place and returns to it
	// after the working period — the full-time (Uber) model.
	HomeWorkHome DriverModel = iota
	// Hitchhiking: the driver has distinct source and destination — the
	// part-time commuter (Waze Rider) model.
	Hitchhiking
)

// String implements fmt.Stringer.
func (m DriverModel) String() string {
	switch m {
	case HomeWorkHome:
		return "home-work-home"
	case Hitchhiking:
		return "hitchhiking"
	default:
		return fmt.Sprintf("DriverModel(%d)", int(m))
	}
}

// Config parameterizes trace generation. NewConfig returns the defaults
// used by the experiment harness; zero values elsewhere are invalid.
type Config struct {
	Seed    int64
	Box     geo.BoundingBox
	Market  model.Market
	Tasks   int // number of customer tasks (orders)
	Drivers int // number of drivers
	Model   DriverModel

	// Day window in seconds; tasks are published within it.
	DayStart, DayEnd float64

	// Trip-length distribution: bounded Pareto on
	// [TripMinKm, TripMaxKm] with *tail* (CCDF) exponent TripAlpha,
	// i.e. Pr[X > x] ∝ x^(−TripAlpha) and pdf ∝ x^(−TripAlpha−1).
	// Alpha ≈ 2.2 matches the heavy-tailed shape of the Porto trips in
	// Figs 3–4.
	TripAlpha            float64
	TripMinKm, TripMaxKm float64

	// PickupWindow bounds on t̄−_m − t̄_m: how far ahead of the pickup
	// deadline customers publish. Porto taxi rides are near-immediate
	// hails, so the default notice is short (1–6 min); this is also what
	// gives the offline algorithm its information advantage in Fig. 5 —
	// it can pre-position drivers toward pickups that online dispatchers
	// have not seen yet.
	PickupWindowMin, PickupWindowMax float64

	// SlackMin/Max multiply the direct service time to produce the
	// dropoff deadline window t̄+_m − t̄−_m. The Porto trace records
	// *actual* trip start/finish timestamps, so the paper's windows
	// equal the realized ride duration; keep the slack close to 1 to
	// preserve that property (large slack makes the offline
	// deadline-based model artificially conservative relative to the
	// real-time online simulator).
	SlackMin, SlackMax float64

	// Driver shifts: start uniform over the day (biased toward rush
	// hours), length normal with the given mean/std, clamped.
	ShiftMean, ShiftStd      float64
	ShiftMinLen, ShiftMaxLen float64

	// Hotspots is the Gaussian mixture for pickup locations. Empty
	// means PortoHotspots.
	Hotspots []Hotspot

	// WTPMarkup sets customer willingness-to-pay at
	// price·(1+markup·U) with U uniform in [0,1].
	WTPMarkup float64
}

// Hotspot is one component of the pickup-location mixture.
type Hotspot struct {
	Center geo.Point
	StdKm  float64 // spatial standard deviation, kilometers
	Weight float64 // relative mixture weight
}

// PortoHotspots models downtown Porto, the riverside and the airport.
func PortoHotspots() []Hotspot {
	return []Hotspot{
		{Center: geo.Point{Lat: 41.1496, Lon: -8.6109}, StdKm: 1.5, Weight: 0.5}, // city center
		{Center: geo.Point{Lat: 41.1621, Lon: -8.5830}, StdKm: 2.0, Weight: 0.2}, // east / Campanhã
		{Center: geo.Point{Lat: 41.2371, Lon: -8.6700}, StdKm: 1.2, Weight: 0.1}, // airport
		{Center: geo.Point{Lat: 41.1400, Lon: -8.6400}, StdKm: 2.5, Weight: 0.2}, // riverside/west
	}
}

// NewConfig returns the default generator configuration used throughout
// the experiments: one day, Porto bounding box, heavy-tailed trips.
func NewConfig(seed int64, tasks, drivers int, dm DriverModel) Config {
	return Config{
		Seed:            seed,
		Box:             geo.PortoBox,
		Market:          model.DefaultMarket(),
		Tasks:           tasks,
		Drivers:         drivers,
		Model:           dm,
		DayStart:        0,
		DayEnd:          24 * 3600,
		TripAlpha:       2.2,
		TripMinKm:       0.5,
		TripMaxKm:       25,
		PickupWindowMin: 1 * 60,
		PickupWindowMax: 6 * 60,
		SlackMin:        1.0,
		SlackMax:        1.1,
		ShiftMean:       4 * 3600,
		ShiftStd:        1 * 3600,
		ShiftMinLen:     2 * 3600,
		ShiftMaxLen:     8 * 3600,
		Hotspots:        PortoHotspots(),
		WTPMarkup:       0.4,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Tasks < 0 || c.Drivers < 0:
		return fmt.Errorf("trace: negative counts tasks=%d drivers=%d", c.Tasks, c.Drivers)
	case !c.Box.Valid():
		return fmt.Errorf("trace: invalid box %+v", c.Box)
	case c.DayStart >= c.DayEnd:
		return fmt.Errorf("trace: empty day window [%g, %g]", c.DayStart, c.DayEnd)
	case c.TripAlpha <= 1:
		return fmt.Errorf("trace: trip alpha %.2f must exceed 1", c.TripAlpha)
	case c.TripMinKm <= 0 || c.TripMaxKm <= c.TripMinKm:
		return fmt.Errorf("trace: bad trip range [%g, %g]", c.TripMinKm, c.TripMaxKm)
	case c.PickupWindowMin <= 0 || c.PickupWindowMax < c.PickupWindowMin:
		return fmt.Errorf("trace: bad pickup window [%g, %g]", c.PickupWindowMin, c.PickupWindowMax)
	case c.SlackMin < 1 || c.SlackMax < c.SlackMin:
		return fmt.Errorf("trace: bad slack range [%g, %g]", c.SlackMin, c.SlackMax)
	case c.ShiftMinLen <= 0 || c.ShiftMaxLen < c.ShiftMinLen:
		return fmt.Errorf("trace: bad shift length range [%g, %g]", c.ShiftMinLen, c.ShiftMaxLen)
	}
	return c.Market.Validate()
}

// Generator produces reproducible synthetic traces.
type Generator struct {
	cfg Config
	rng *rand.Rand

	// Constants of cfg the samplers read on every draw: TripMinKm and
	// TripMaxKm raised to TripAlpha, and the hotspots' total weight.
	minPowA, maxPowA float64
	totalW           float64
}

// NewGenerator returns a generator for cfg. It panics if cfg is invalid,
// since configurations are static test/experiment inputs.
func NewGenerator(cfg Config) *Generator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(cfg.Hotspots) == 0 {
		cfg.Hotspots = PortoHotspots()
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g.minPowA = math.Pow(cfg.TripMinKm, cfg.TripAlpha)
	g.maxPowA = math.Pow(cfg.TripMaxKm, cfg.TripAlpha)
	for _, h := range cfg.Hotspots {
		g.totalW += h.Weight
	}
	return g
}

// Generate produces the full instance: tasks priced with the given
// pricer (nil means the default Linear pricer with α=1) plus drivers.
func (g *Generator) Generate(p pricing.Pricer) model.Trace {
	tasks := g.GenerateTasks()
	if p == nil {
		p = pricing.NewLinear(g.cfg.Market, 1)
	}
	for i := range tasks {
		tasks[i].Price = p.Price(tasks[i])
		tasks[i].WTP = tasks[i].Price * (1 + g.cfg.WTPMarkup*g.rng.Float64())
	}
	return model.Trace{Drivers: g.GenerateDrivers(), Tasks: tasks}
}

// GenerateTasks produces cfg.Tasks unpriced tasks ordered by publish
// time (the arrival order the online algorithms consume).
func (g *Generator) GenerateTasks() []model.Task {
	arrivals := g.arrivalTimes(g.cfg.Tasks)
	tasks := make([]model.Task, 0, len(arrivals))
	for i, at := range arrivals {
		src := g.samplePickup()
		distKm := g.boundedPareto()
		bearing := g.rng.Float64() * 2 * math.Pi
		dst := g.cfg.Box.Clamp(geo.Offset(src, bearing, distKm))

		pickupWin := g.uniform(g.cfg.PickupWindowMin, g.cfg.PickupWindowMax)
		startBy := at + pickupWin
		service := g.cfg.Market.TravelTime(src, dst, 0)
		slack := g.uniform(g.cfg.SlackMin, g.cfg.SlackMax)
		window := service * slack
		// Clamping can collapse a trip onto the box boundary; every ride
		// still takes a strictly positive minute so the task window
		// stays valid (t̄− < t̄+).
		if window < 60 {
			window = 60
		}
		endBy := startBy + window

		tasks = append(tasks, model.Task{
			ID:      i,
			Publish: at,
			Source:  src,
			Dest:    dst,
			StartBy: startBy,
			EndBy:   endBy,
		})
	}
	return tasks
}

// GenerateDrivers produces cfg.Drivers drivers under the configured
// working model.
func (g *Generator) GenerateDrivers() []model.Driver {
	drivers := make([]model.Driver, 0, g.cfg.Drivers)
	day := g.cfg.DayEnd - g.cfg.DayStart
	for i := 0; i < g.cfg.Drivers; i++ {
		length := g.rng.NormFloat64()*g.cfg.ShiftStd + g.cfg.ShiftMean
		length = math.Min(math.Max(length, g.cfg.ShiftMinLen), g.cfg.ShiftMaxLen)
		latestStart := day - length
		if latestStart < 0 {
			latestStart = 0
			length = day
		}
		// Bias shift starts toward the demand curve so supply tracks
		// demand the way working drivers do in practice.
		start := g.cfg.DayStart + g.sampleByIntensity()*latestStart/day

		src := g.samplePickup()
		dst := src
		if g.cfg.Model == Hitchhiking {
			bearing := g.rng.Float64() * 2 * math.Pi
			dst = g.cfg.Box.Clamp(geo.Offset(src, bearing, g.boundedPareto()))
		}
		drivers = append(drivers, model.Driver{
			ID:     i,
			Source: src,
			Dest:   dst,
			Start:  start,
			End:    start + length,
		})
	}
	return drivers
}

// DemandIntensity is the relative arrival intensity at time-of-day t
// (seconds): a baseline plus morning (8–9am) and evening (6–7pm) rush
// peaks. Exposed so tests and the surge pricer can assert against it.
func DemandIntensity(t float64) float64 {
	hour := t / 3600
	return demandBase + demandPeaks[0].at(hour) + demandPeaks[1].at(hour) + demandPeaks[2].at(hour)
}

// demandBase and demandPeaks are DemandIntensity's terms: a constant and
// three Gaussian bumps, morning and evening rush and a midday shoulder.
const demandBase = 0.25

var demandPeaks = [3]demandPeak{{1.0, 8.5, 1.2}, {1.2, 18.5, 1.5}, {0.3, 13, 2.0}}

// demandPeak is the term amp·exp(−((hour−center)/width)²/2).
type demandPeak struct{ amp, center, width float64 }

func (p demandPeak) at(hour float64) float64 {
	d := (hour - p.center) / p.width
	return p.amp * math.Exp(-d*d/2)
}

// lambdaMax bounds DemandIntensity from above over the whole day: the
// majorant both thinning loops draw against.
const lambdaMax = 2.75

// The thinning loops (Lewis & Shedler 1979) decide x ≤ DemandIntensity(t)
// for a uniform x in [0, lambdaMax), and reject about three draws in four. A squeeze
// (Marsaglia 1977) answers most of them without an Exp: each minute b
// of the day has bounds lo[b] ≤ DemandIntensity(t) ≤ hi[b] for every t
// in it, so x > hi[b] rejects and x ≤ lo[b] accepts, and only an x
// between the two is evaluated. The decision is the exact comparison's
// in every case, so the trace keeps its bits.
const (
	envBinS = 60
	envBins = 24 * 3600 / envBinS
	// envSlack widens each bound by a relative 1e-9, far more than the
	// few ulps by which a rounded DemandIntensity can stray from the
	// real function it computes, or move within one ulp of a bin edge.
	envSlack = 1e-9
)

// envelope is the per-minute bound on DemandIntensity over [0, 24 h),
// built once per process.
var envelope = buildEnvelope()

type envBin struct{ lo, hi float64 }

// buildEnvelope bounds each term over each bin [a, e] (in hours): a
// Gaussian bump is unimodal, so its greatest value there is at its
// centre clamped into [a, e], and its least at whichever end lies
// farther from the centre. The sum of the terms' bounds bounds their sum.
func buildEnvelope() *[envBins]envBin {
	var env [envBins]envBin
	for b := range env {
		a, e := float64(b*envBinS)/3600, float64((b+1)*envBinS)/3600
		lo, hi := demandBase, demandBase
		for _, p := range demandPeaks {
			far := a
			if p.center-a < e-p.center {
				far = e
			}
			lo += p.at(far)
			hi += p.at(math.Min(math.Max(p.center, a), e))
		}
		env[b] = envBin{lo: lo * (1 - envSlack), hi: hi * (1 + envSlack)}
	}
	return &env
}

// accept reports x ≤ DemandIntensity(t), the thinning test, evaluating
// DemandIntensity only when the envelope cannot decide. A t outside
// [0, 24 h) is always evaluated.
func accept(t, x float64) bool {
	if e := envelopeAt(t); e != nil {
		if x > e.hi {
			return false
		}
		if x <= e.lo {
			return true
		}
	}
	return x <= DemandIntensity(t)
}

// envelopeAt returns the bin of the envelope that holds t, or nil if t
// is not in [0, 24 h).
func envelopeAt(t float64) *envBin {
	if t >= 0 && t < 24*3600 {
		if b := int(t / envBinS); b < envBins {
			return &envelope[b]
		}
	}
	return nil
}

// arrivalTimes draws n arrival times from the non-homogeneous Poisson
// process with intensity proportional to DemandIntensity, via thinning,
// and returns them sorted ascending (thinning preserves order).
func (g *Generator) arrivalTimes(n int) []float64 {
	out := make([]float64, 0, n)
	day := g.cfg.DayEnd - g.cfg.DayStart
	// Conditional on the total count, the arrival times of a Poisson
	// process are i.i.d. with density ∝ intensity; sample by rejection
	// then sort by insertion into a slice we later sort — but to keep
	// the stream deterministic and O(n log n), sample then sort.
	for len(out) < n {
		t := g.cfg.DayStart + g.rng.Float64()*day
		if accept(t-g.cfg.DayStart, g.rng.Float64()*lambdaMax) {
			out = append(out, t)
		}
	}
	sort.Float64s(out)
	return out
}

// sampleByIntensity returns a time offset in [0, day) distributed
// according to the demand curve; used to bias driver shift starts.
func (g *Generator) sampleByIntensity() float64 {
	day := g.cfg.DayEnd - g.cfg.DayStart
	for {
		t := g.rng.Float64() * day
		if accept(t, g.rng.Float64()*lambdaMax) {
			return t
		}
	}
}

// samplePickup draws a pickup location from the hotspot mixture, clamped
// to the bounding box.
func (g *Generator) samplePickup() geo.Point {
	r := g.rng.Float64() * g.totalW
	var chosen Hotspot
	for _, h := range g.cfg.Hotspots {
		if r < h.Weight {
			chosen = h
			break
		}
		r -= h.Weight
		chosen = h
	}
	bearing := g.rng.Float64() * 2 * math.Pi
	dist := math.Abs(g.rng.NormFloat64()) * chosen.StdKm
	return g.cfg.Box.Clamp(geo.Offset(chosen.Center, bearing, dist))
}

// boundedPareto samples from the bounded Pareto distribution on
// [TripMinKm, TripMaxKm] with exponent TripAlpha via inverse transform.
func (g *Generator) boundedPareto() float64 {
	a := g.cfg.TripAlpha
	u := g.rng.Float64()
	la, ha := g.minPowA, g.maxPowA
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/a)
	return x
}

func (g *Generator) uniform(lo, hi float64) float64 {
	return lo + g.rng.Float64()*(hi-lo)
}
