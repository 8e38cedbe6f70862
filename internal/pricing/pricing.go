// Package pricing implements the paper's task-pricing models (§III-A and
// Eq. 15 in §VI-A).
//
// The platform computes each task's price p_m and publishes it to both
// sides of the market, so from the optimization framework's point of view
// the price is a constant attribute of the task. The paper's evaluation
// uses a simplified surge-pricing rule:
//
//	p_m = α_m · (β1·dist(s̄_m, d̄_m) + β2·(t̄+_m − t̄−_m))
//
// where α_m is the surge multiplier, dynamically derived from the
// demand/supply imbalance in the task's geographic zone, and β1, β2 are
// global constants.
package pricing

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/geo"
	"repro/internal/model"
)

// Pricer computes the platform price p_m for a task at its publish time.
// Implementations must be safe for concurrent readers once constructed.
type Pricer interface {
	// Price returns the payoff p_m the serving driver receives for t.
	Price(t model.Task) float64
}

// Linear prices tasks with a fixed surge multiplier:
// p = Alpha·(Beta1·distanceKm + Beta2·durationSec). It is the baseline
// (non-surge) pricer; the zero value prices everything at zero, so
// construct with NewLinear or fill every field.
type Linear struct {
	Market model.Market
	Alpha  float64 // constant surge multiplier, typically 1
	Beta1  float64 // currency per kilometer
	Beta2  float64 // currency per second of scheduled window
}

var _ Pricer = (*Linear)(nil)

// DefaultBeta1 and DefaultBeta2 are the global fare constants used by the
// evaluation: roughly 1 unit/km plus 0.4 units per scheduled minute,
// which keeps prices comfortably above gasoline cost so that most tasks
// are individually rational for nearby drivers.
const (
	DefaultBeta1 = 1.0
	DefaultBeta2 = 0.4 / 60
)

// NewLinear returns a Linear pricer with the default fare constants and
// multiplier alpha.
func NewLinear(m model.Market, alpha float64) *Linear {
	return &Linear{Market: m, Alpha: alpha, Beta1: DefaultBeta1, Beta2: DefaultBeta2}
}

// Price implements Pricer using Eq. (15) with a constant multiplier.
func (l *Linear) Price(t model.Task) float64 {
	base := l.Beta1*l.Market.Dist(t.Source, t.Dest) + l.Beta2*(t.EndBy-t.StartBy)
	return l.Alpha * base
}

// Surge prices tasks with a zone- and time-dependent multiplier derived
// from observed demand and supply counts, mimicking Uber's surge pricing
// mechanism ([2] in the paper). The multiplier for a zone is
//
//	α = clamp(1, demand/supply, MaxAlpha)
//
// smoothed over the zone's Moore neighborhood so that adjacent zones do
// not see discontinuous fares.
//
// Surge is an offline pricer: a caller feeds it the demand and supply of
// a day and stamps its prices onto the day's tasks before the engine
// runs, which has no pricing hook. It still honors the Pricer concurrency
// contract: Observe* and Decay take the write lock while Multiplier and
// Price take the read lock, so observations and prices may come from
// several goroutines at once. Base, Grid and MaxAlpha are read-only after
// construction.
type Surge struct {
	Base     *Linear
	Grid     *geo.Grid
	MaxAlpha float64

	// mu guards demand and supply: the current per-cell counts, updated
	// via Observe*/Decay and read by Multiplier/Price.
	mu     sync.RWMutex
	demand []float64
	supply []float64
}

var _ Pricer = (*Surge)(nil)

// NewSurge returns a surge pricer over the given zone grid. maxAlpha caps
// the multiplier (Uber caps surges in practice; the paper's α_m is
// "dynamically changed based on real market scenarios").
func NewSurge(base *Linear, grid *geo.Grid, maxAlpha float64) *Surge {
	if maxAlpha < 1 {
		panic(fmt.Sprintf("pricing: maxAlpha %.2f must be at least 1", maxAlpha))
	}
	return &Surge{
		Base:     base,
		Grid:     grid,
		MaxAlpha: maxAlpha,
		demand:   make([]float64, grid.NumCells()),
		supply:   make([]float64, grid.NumCells()),
	}
}

// ObserveDemand records demand mass (e.g. one published task) at p.
func (s *Surge) ObserveDemand(p geo.Point, weight float64) {
	cell := s.Grid.CellOf(p)
	s.mu.Lock()
	s.demand[cell] += weight
	s.mu.Unlock()
}

// ObserveSupply records supply mass (e.g. one idle driver) at p.
func (s *Surge) ObserveSupply(p geo.Point, weight float64) {
	cell := s.Grid.CellOf(p)
	s.mu.Lock()
	s.supply[cell] += weight
	s.mu.Unlock()
}

// Decay exponentially ages all demand/supply observations by factor
// gamma in (0, 1]; a caller pricing a day calls it between time buckets
// so that surge reflects recent imbalance rather than the whole day.
func (s *Surge) Decay(gamma float64) {
	s.mu.Lock()
	for i := range s.demand {
		s.demand[i] *= gamma
		s.supply[i] *= gamma
	}
	s.mu.Unlock()
}

// Multiplier returns the current surge multiplier α at p.
func (s *Surge) Multiplier(p geo.Point) float64 {
	cell := s.Grid.CellOf(p)
	s.mu.RLock()
	d, su := s.demand[cell], s.supply[cell]
	for _, nb := range s.Grid.Neighbors(cell) {
		d += 0.5 * s.demand[nb]
		su += 0.5 * s.supply[nb]
	}
	s.mu.RUnlock()
	if su < 1 {
		su = 1 // avoid division blow-up in empty zones
	}
	alpha := d / su
	return math.Min(math.Max(alpha, 1), s.MaxAlpha)
}

// Price implements Pricer: the linear fare scaled by the zone multiplier
// at the task's pickup location.
func (s *Surge) Price(t model.Task) float64 {
	base := s.Base.Beta1*s.Base.Market.Dist(t.Source, t.Dest) +
		s.Base.Beta2*(t.EndBy-t.StartBy)
	return s.Multiplier(t.Source) * base
}

// ApplyPricing stamps Price (and, when wtpMarkup > 0, WTP) onto every
// task using the given pricer. The customer's willingness-to-pay is
// modeled as price·(1+wtpMarkup) — customers only publish tasks whose WTP
// covers the fare (§III-A), so WTP ≥ price always holds afterwards.
// The slice is modified in place.
func ApplyPricing(tasks []model.Task, p Pricer, wtpMarkup float64) {
	if wtpMarkup < 0 {
		panic(fmt.Sprintf("pricing: negative wtp markup %.3f", wtpMarkup))
	}
	for i := range tasks {
		tasks[i].Price = p.Price(tasks[i])
		tasks[i].WTP = tasks[i].Price * (1 + wtpMarkup)
	}
}
