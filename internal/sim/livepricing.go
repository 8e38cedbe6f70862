package sim

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/model"
)

// This file feeds a surge pricer live from the event loop. Offline
// experiments stamp prices onto a trace before the day starts
// (pricing.ApplyPricing); a live market cannot — the multiplier at a
// task's publish instant depends on every arrival, assignment and
// driver movement before it. With a LivePricer installed the engine
// re-prices each order at its arrival event and streams the market mass
// it observes back into the pricer:
//
//   - demand:  +1 at the pickup zone when an order is submitted,
//   - supply:  +1 at a driver's location when she enters the market
//     (run start or mid-day join), at the dropoff zone when an
//     assignment commits (where her capacity frees next), and at her
//     restored location when a cancellation revokes an assignment,
//   - Decay:   once per closed batch window, so surge tracks recent
//     imbalance instead of the whole day.
//
// Every feed point sits on the single-goroutine event drain, so the
// observation order is a pure function of the event merge order — the
// same differential discipline as candidate generation: sources and
// match workers cannot change it, and results stay bit-identical
// across all of them (see livepricing_test.go). The
// pricer is Reset at the start of every run so repeated days are
// reproducible.

// LivePricer is the engine-facing surface of a zone pricer fed live
// from the event loop (pricing.Surge implements it). Implementations
// must be safe for concurrent readers, though the engine itself only
// calls them from the event goroutine.
type LivePricer interface {
	Price(t model.Task) float64
	ObserveDemand(p geo.Point, weight float64)
	ObserveSupply(p geo.Point, weight float64)
	Decay(gamma float64)
	Reset()
}

// SetLivePricer installs (or, with nil, removes) a live pricer. Each
// arriving order's Price is recomputed by the pricer at its publish
// event — the caller's task slice is never mutated — and WTP is
// restamped as Price·(1+wtpMarkup), preserving the §III-A invariant
// that published tasks cover their fare. decayGamma in (0, 1] ages the
// pricer's observations at every batch-window close (1 = no decay; the
// only sensible value for instant dispatch, which has no windows).
func (e *Engine) SetLivePricer(p LivePricer, decayGamma, wtpMarkup float64) {
	if p == nil {
		e.pricer = nil
		return
	}
	if !(decayGamma > 0 && decayGamma <= 1) {
		panic(fmt.Sprintf("sim: live pricing decay %g outside (0, 1]", decayGamma))
	}
	if wtpMarkup < 0 {
		panic(fmt.Sprintf("sim: negative live pricing wtp markup %g", wtpMarkup))
	}
	e.pricer = p
	e.pricerDecay = decayGamma
	e.pricerMarkup = wtpMarkup
}

// resetLivePricing zeroes the pricer and seeds the opening supply: one
// observation per driver present at the run's start, in ascending
// driver order (the canonical order the differential discipline keys
// on). Called by newEventRun after driver state is reset.
func (r *eventRun) resetLivePricing() {
	e := r.e
	if e.pricer == nil {
		return
	}
	e.pricer.Reset()
	// The run owns a private copy of the tasks from here on: arrival
	// events overwrite Price/WTP, and callers' slices must not change.
	r.tasks = append([]model.Task(nil), r.tasks...)
	for i := range e.Drivers {
		if e.present[i] {
			e.pricer.ObserveSupply(e.states[i].loc, 1)
		}
	}
}

// priceArrival observes the order's demand and re-prices it at its
// publish event, before any mode handler sees it.
func (r *eventRun) priceArrival(ti int) {
	e := r.e
	if e.pricer == nil {
		return
	}
	task := &r.tasks[ti]
	e.pricer.ObserveDemand(task.Source, 1)
	task.Price = e.pricer.Price(*task)
	task.WTP = task.Price * (1 + e.pricerMarkup)
}
