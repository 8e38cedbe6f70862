// Package model defines the core domain types of the two-sided
// ride-sharing market from the paper's §III-A and Table I: drivers with
// daily travel plans, customer tasks with deadlines, prices and
// willingness-to-pay, and the market-wide cost model.
//
// Times are float64 seconds on a common clock (seconds since the start of
// the simulated horizon). Distances are kilometers, money is in abstract
// currency units.
package model

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geo"
)

// finite reports whether x is neither NaN nor ±Inf. The Validate
// methods are written as "accept only if finite and ordered": a
// rejection spelled a >= b lets NaN through, since every comparison
// with NaN is false.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Driver is a worker in the market (paper notation: driver n with source
// s_n, destination d_n, working window [t−_n, t+_n]). A driver reveals
// her travel plan before starting work; the special case Source == Dest
// is the "home-work-home" model of §VI-A, while Source != Dest is the
// "hitchhiking" model (e.g. Waze Rider commuters).
type Driver struct {
	ID     int
	Source geo.Point // s_n: where the driver starts her day
	Dest   geo.Point // d_n: where she must end her day
	Start  float64   // t−_n: earliest departure time (seconds)
	End    float64   // t+_n: latest arrival time at Dest (seconds)

	// SpeedKmh optionally overrides the market-wide driving speed for
	// this driver. Zero means "use Market.SpeedKmh".
	SpeedKmh float64
}

// Validate reports whether the driver is internally consistent.
func (d Driver) Validate() error {
	switch {
	case !d.Source.Valid():
		return fmt.Errorf("driver %d: invalid source %v", d.ID, d.Source)
	case !d.Dest.Valid():
		return fmt.Errorf("driver %d: invalid destination %v", d.ID, d.Dest)
	case !finite(d.Start) || !finite(d.End):
		return fmt.Errorf("driver %d: non-finite working window [%g, %g]", d.ID, d.Start, d.End)
	case !(d.Start < d.End):
		return fmt.Errorf("driver %d: start %.1f not before end %.1f", d.ID, d.Start, d.End)
	case !finite(d.SpeedKmh) || !(d.SpeedKmh >= 0):
		return fmt.Errorf("driver %d: speed %g not a finite non-negative number", d.ID, d.SpeedKmh)
	}
	return nil
}

// IsCommuter reports whether the driver follows the "hitchhiking"
// working model (distinct source and destination).
func (d Driver) IsCommuter() bool { return d.Source != d.Dest }

// WorkingSeconds returns the length of the driver's working window.
func (d Driver) WorkingSeconds() float64 { return d.End - d.Start }

// Task is an order submitted by a customer (paper notation: task m with
// publishing time t̄_m, source s̄_m, destination d̄_m, start deadline
// t̄−_m, end deadline t̄+_m, price p_m and willingness-to-pay b_m).
//
// In the online setting StartBy and EndBy are deadlines: the task may
// start and finish earlier, never later.
type Task struct {
	ID      int
	Publish float64   // t̄_m: when the customer submits the order
	Source  geo.Point // s̄_m: pickup location
	Dest    geo.Point // d̄_m: dropoff location
	StartBy float64   // t̄−_m: deadline for the pickup
	EndBy   float64   // t̄+_m: deadline for the dropoff

	Price float64 // p_m: payoff to the serving driver, set by the platform
	WTP   float64 // b_m: the customer's willingness to pay
}

// Validate reports whether the task is internally consistent, enforcing
// the paper's ordering t̄_m < t̄−_m < t̄+_m and individual rationality
// p_m ≤ b_m (a task with p_m > b_m would never be published, §III-A).
func (t Task) Validate() error {
	switch {
	case !t.Source.Valid():
		return fmt.Errorf("task %d: invalid source %v", t.ID, t.Source)
	case !t.Dest.Valid():
		return fmt.Errorf("task %d: invalid destination %v", t.ID, t.Dest)
	case !finite(t.Publish) || !finite(t.StartBy) || !finite(t.EndBy):
		return fmt.Errorf("task %d: non-finite time (publish %g, start deadline %g, end deadline %g)", t.ID, t.Publish, t.StartBy, t.EndBy)
	case !(t.Publish < t.StartBy):
		return fmt.Errorf("task %d: publish %.1f not before start deadline %.1f", t.ID, t.Publish, t.StartBy)
	case !(t.StartBy < t.EndBy):
		return fmt.Errorf("task %d: start deadline %.1f not before end deadline %.1f", t.ID, t.StartBy, t.EndBy)
	case !finite(t.Price) || !finite(t.WTP):
		return fmt.Errorf("task %d: non-finite price %g or willingness-to-pay %g", t.ID, t.Price, t.WTP)
	case !(t.Price >= 0):
		return fmt.Errorf("task %d: negative price %.2f", t.ID, t.Price)
	case !(t.Price <= t.WTP):
		return fmt.Errorf("task %d: price %.2f exceeds willingness-to-pay %.2f", t.ID, t.Price, t.WTP)
	}
	return nil
}

// Window returns the scheduled duration budget t̄+_m − t̄−_m.
func (t Task) Window() float64 { return t.EndBy - t.StartBy }

// Surplus returns the consumer surplus b_m − p_m the customer obtains if
// the task is served.
func (t Task) Surplus() float64 { return t.WTP - t.Price }

// EventKind tags one dynamic market event in a trace.
type EventKind string

// The market event vocabulary. The paper's online model (§V) fixes the
// fleet for the whole day and assumes every published task is served or
// rejected once; these events extend traces with the dynamics a real
// two-sided market faces between those decisions.
const (
	// EventJoin announces a driver mid-day: before At she is invisible
	// to dispatch (the platform does not yet know she exists). Join
	// events normally carry At == the driver's shift start.
	EventJoin EventKind = "join"
	// EventRetire removes a driver from the market at At: she accepts no
	// further tasks (an in-flight task is still completed).
	EventRetire EventKind = "retire"
	// EventCancel is a rider cancellation at At, after the task's
	// publish time. A cancellation that lands before the assigned
	// driver's pickup revokes the assignment; after pickup it is too
	// late and the ride proceeds.
	EventCancel EventKind = "cancel"
)

// MarketEvent is one dynamic event in a trace. Driver and Task are
// indices into the owning Trace's Drivers and Tasks slices (not IDs),
// matching how the simulator addresses both.
type MarketEvent struct {
	At     float64   `json:"at"`
	Kind   EventKind `json:"kind"`
	Driver int       `json:"driver,omitempty"` // join, retire
	Task   int       `json:"task,omitempty"`   // cancel
}

// ValidateEvents checks every event against the trace it belongs to:
// known kind, indices in range, and cancellations strictly after their
// task's publish time (a task cancelled before publication would simply
// never be published).
func ValidateEvents(events []MarketEvent, drivers []Driver, tasks []Task) error {
	for i, ev := range events {
		switch ev.Kind {
		case EventJoin, EventRetire:
			if ev.Driver < 0 || ev.Driver >= len(drivers) {
				return fmt.Errorf("event %d (%s): driver index %d out of range [0,%d)", i, ev.Kind, ev.Driver, len(drivers))
			}
		case EventCancel:
			if ev.Task < 0 || ev.Task >= len(tasks) {
				return fmt.Errorf("event %d (cancel): task index %d out of range [0,%d)", i, ev.Task, len(tasks))
			}
			if ev.At <= tasks[ev.Task].Publish {
				return fmt.Errorf("event %d (cancel): at %.1f not after task %d publish %.1f", i, ev.At, ev.Task, tasks[ev.Task].Publish)
			}
		default:
			return fmt.Errorf("event %d: unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}

// DistanceBatcher is the fast path of a metric that resolves points onto
// a routing graph before it measures between them (roadnet.Router is
// the implementation: an all-pairs node table on a graph of at most
// 1 024 nodes, a contraction hierarchy or ALT above that). Two things
// make a candidate query cheap there, and the interface exposes both: a
// point is resolved once (Snap) and the result reused for as long as the
// point stands still, and distances sharing one endpoint are taken in
// one call. Every method must agree bitwise with the market's Dist:
//
//	DistSnapped(Snap(a), Snap(b))          == Dist(a, b)
//	DistManySnappedInto(o, ts, out)[i]     == Dist(o.P, ts[i].P)
//	DistManyToSnappedInto(ss, d, out)[i]   == Dist(ss[i].P, d.P)
//
// (The two batch shapes are distinct because float addition is not
// associative; a shared computation must sit on the side the pairs
// share.) A Snap is only ever handed back to the batcher that made it.
//
// DistManyInto and DistManyToInto are the same batches over unresolved
// points — out[i] == Dist(origin, targets[i]) and Dist(sources[i],
// dest). The engine does not call them; wrappers that decorate exactly
// these two methods (the benchmark's tracer) compile against them.
type DistanceBatcher interface {
	Snap(p geo.Point) geo.Snap
	DistSnapped(a, b geo.Snap) float64
	DistManySnappedInto(origin geo.Snap, targets []geo.Snap, out []float64)
	DistManyToSnappedInto(sources []geo.Snap, dest geo.Snap, out []float64)

	DistManyInto(origin geo.Point, targets []geo.Point, out []float64)
	DistManyToInto(sources []geo.Point, dest geo.Point, out []float64)

	// Table returns the all-pairs node table, dist[u*n+v] the distance
	// u→v, and its dimension n, or nil and 0 where there is none. The
	// slice is read-only. It must bound DistSnapped from below:
	// DistSnapped(a, b) >= b.AccessKm + dist[a.Node*n+b.Node].
	Table() (dist []float64, n int)
}

// Market holds the market-wide physical and economic constants used to
// estimate travel times and costs (§III-B). The zero value is not usable;
// construct with DefaultMarket or fill every field.
type Market struct {
	// Dist computes point-to-point distance in kilometers. The paper
	// estimates travel distances between task endpoints; we default to
	// the equirectangular approximation at city scale.
	Dist geo.DistanceFunc

	// Batch optionally accelerates candidate scoring: when non-nil it
	// must agree bitwise with Dist (see DistanceBatcher), and the
	// engine takes every scoring distance from it — order endpoints
	// snapped once per query, driver positions once per move — instead
	// of calling Dist per pair. Nil is always correct, so arbitrary
	// WithDistanceFunc metrics keep working unchanged.
	Batch DistanceBatcher

	// SpeedKmh is the estimated average driving speed used to convert
	// distances into travel times.
	SpeedKmh float64

	// GasPerKm is the travel cost per kilometer (the paper multiplies
	// trip distance by the unit price of gasoline, §VI-A).
	GasPerKm float64
}

// DefaultMarket returns a Market with the constants used throughout the
// evaluation: 30 km/h average urban speed and a gasoline cost of 0.09
// currency units per kilometer.
func DefaultMarket() Market {
	return Market{
		Dist:     geo.Equirectangular,
		SpeedKmh: 30,
		GasPerKm: 0.09,
	}
}

// Validate reports whether the market constants are usable.
func (m Market) Validate() error {
	switch {
	case m.Dist == nil:
		return errors.New("market: nil distance function")
	case !finite(m.SpeedKmh) || !(m.SpeedKmh > 0):
		return fmt.Errorf("market: speed %g not a finite positive number", m.SpeedKmh)
	case !finite(m.GasPerKm) || !(m.GasPerKm >= 0):
		return fmt.Errorf("market: gas cost %g not a finite non-negative number", m.GasPerKm)
	}
	return nil
}

// TravelTime returns the estimated time in seconds for a driver with the
// given speed override (0 = market default) to drive from a to b.
func (m Market) TravelTime(a, b geo.Point, speedKmh float64) float64 {
	return m.TravelTimeKm(m.Dist(a, b), speedKmh)
}

// TravelTimeKm converts an already-computed distance to seconds with
// the given speed override (0 = market default). Batched scoring paths
// obtain km from Batch and must convert it through exactly the float
// operations TravelTime performs.
func (m Market) TravelTimeKm(km, speedKmh float64) float64 {
	if speedKmh <= 0 {
		speedKmh = m.SpeedKmh
	}
	return km / speedKmh * 3600
}

// TravelCost returns the estimated monetary cost of driving from a to b.
func (m Market) TravelCost(a, b geo.Point) float64 {
	return m.TravelCostKm(m.Dist(a, b))
}

// TravelCostKm converts an already-computed distance to money,
// mirroring TravelCost's float operations (see TravelTimeKm).
func (m Market) TravelCostKm(km float64) float64 {
	return km * m.GasPerKm
}

// DriverTravelTime returns the travel time for driver d from a to b,
// honoring the driver's speed override.
func (m Market) DriverTravelTime(d Driver, a, b geo.Point) float64 {
	return m.TravelTime(a, b, d.SpeedKmh)
}

// ServiceTime returns l̂_m: the time for a driver to carry task t from
// its source to its destination.
func (m Market) ServiceTime(t Task, speedKmh float64) float64 {
	return m.TravelTime(t.Source, t.Dest, speedKmh)
}

// ServiceCost returns ĉ_m: the cost of carrying task t from its source
// to its destination.
func (m Market) ServiceCost(t Task) float64 {
	return m.TravelCost(t.Source, t.Dest)
}

// DeadheadCost returns c_{m,m'}: the cost of driving empty from the
// destination of task a to the source of task b.
func (m Market) DeadheadCost(a, b Task) float64 {
	return m.TravelCost(a.Dest, b.Source)
}

// BaselineCost returns c_{n,0,−1}: the cost the driver would incur anyway
// driving directly from her source to her destination with no tasks.
// The objective (Eq. 4) subtracts only the *excess* cost over this.
func (m Market) BaselineCost(d Driver) float64 {
	return m.TravelCost(d.Source, d.Dest)
}

// ValidateAll validates the market, every driver and every task, and
// checks for duplicate IDs. It returns the first problem found.
func ValidateAll(m Market, drivers []Driver, tasks []Task) error {
	if err := m.Validate(); err != nil {
		return err
	}
	seenD := newIDSet(len(drivers))
	for _, d := range drivers {
		if err := d.Validate(); err != nil {
			return err
		}
		if seenD.add(d.ID) {
			return fmt.Errorf("duplicate driver ID %d", d.ID)
		}
	}
	seenT := newIDSet(len(tasks))
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return err
		}
		if seenT.add(t.ID) {
			return fmt.Errorf("duplicate task ID %d", t.ID)
		}
	}
	return nil
}

// idSet is the set of ids ValidateAll has seen: a bitmap over [0, n)
// for n ids, where a fleet's or a trace's ids usually all lie, and a map
// for any id outside it.
type idSet struct {
	dense []uint64
	other map[int]bool
}

func newIDSet(n int) idSet { return idSet{dense: make([]uint64, (n+63)/64)} }

// add records id and reports whether it was already in the set.
func (s *idSet) add(id int) (seen bool) {
	if uint(id) < uint(len(s.dense))*64 {
		w, bit := &s.dense[id/64], uint64(1)<<(id%64)
		seen = *w&bit != 0
		*w |= bit
		return seen
	}
	if s.other == nil {
		s.other = make(map[int]bool)
	}
	seen = s.other[id]
	s.other[id] = true
	return seen
}
