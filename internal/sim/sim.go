// Package sim is the online market simulator for §V of the paper: tasks
// arrive in publish-time order, the platform must respond instantly by
// assigning a candidate driver or rejecting the task, and drivers move
// through lock/unlock states as they serve assignments.
//
// The engine is event-driven: every entry point enqueues its work —
// task arrivals, driver joins and retirements, rider cancellations —
// onto one priority queue (see event.go) drained through a pluggable
// Clock, with a total, documented merge order for same-timestamp
// events. Candidate generation is pluggable too (CandidateSource):
// the exact linear scan and a pre-filter over one spatial index yield
// bit-identical results; only the wall-clock changes.
//
// The engine owns market state (driver positions, availability, earnings)
// and computes the candidate set for each arriving task exactly as
// Algorithms 3 and 4 prescribe: unlocked drivers who can reach the
// pickup from their current location by the pickup deadline, plus locked
// drivers who can reach it from their in-flight task's destination in
// time. A pluggable Dispatcher chooses among candidates, which is the
// only difference between the paper's two online heuristics.
//
// Driver availability is deadline-based by default, exactly as the
// paper's algorithms prescribe: a driver assigned task m' is treated as
// busy until the task's end deadline t̄+_m' (Algorithm 3/4 step (a) adds
// "locked drivers who can travel from their current destination d̄_m' to
// s̄_m during time t̄+_m' to t̄−_m"). This keeps every online assignment
// a feasible path of the offline task map, so the offline bound Z*_f
// applies to online runs too. Setting Engine.RealTime instead frees a
// driver at her *actual* finish time (arrival + service) — the §III-B
// remark that tasks may finish before t̄+_m — which gives online
// algorithms extra capacity the offline model cannot represent; it is
// kept as an ablation (see the bench harness).
package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
)

// Candidate describes one feasible driver for an arriving task.
type Candidate struct {
	Driver  int     // index into the engine's driver slice
	Arrival float64 // earliest time the driver can reach the pickup
	Margin  float64 // δ_{n,m}, Eq. (14): marginal profit of accepting
}

// Dispatcher selects a candidate for each arriving task. Implementations
// must not retain the candidate slice. Returning -1 rejects the task.
//
// cands holds every feasible driver in ascending driver order, or, when
// RankedBy names a rank, what the rule of that rank leaves of that list
// (see Rank): same order, same winner, same draws.
type Dispatcher interface {
	Name() string
	Choose(task model.Task, cands []Candidate, rng *rand.Rand) int
	// RankedBy names the one number Choose takes its extremum over. A
	// rank is a promise that Choose picks the same driver, after as many
	// draws from rng, from what the rank's rule leaves of the list as
	// from all of it:
	//
	//   - RankMargin: Choose returns the first candidate of greatest
	//     margin if that margin is positive (a NaN is not), else rejects,
	//     and draws nothing — MaxMargin, Algorithm 4 under Eq. (5b);
	//   - RankArrival: neither the choice nor the draw count depends on a
	//     candidate ranked strictly below the best of those before it —
	//     Nearest's reservoir draw among ties with the running minimum.
	//
	// The zero Rank promises nothing and gets the full list (Random).
	RankedBy() Rank
}

// Rank names the one number of a Candidate that a dispatcher's Choose
// takes its extremum over (Dispatcher.RankedBy), and with it the one
// rule by which a source may spare that Choose part of the list:
//
//   - RankMargin: the list is the order's row of a window of one
//     (CandidateSource.TopRow with k = 1) — the first candidate in driver
//     order of the greatest positive margin, or none. A source may find
//     it in any order it likes.
//   - RankArrival: the list is the full one less the candidates that
//     rank strictly below the best of those ahead of them in driver
//     order — which a source can only know by walking in that order.
//
// The zero Rank is no rule: the list is the full one.
type Rank uint8

const (
	RankMargin  Rank = iota + 1 // the larger positive Candidate.Margin wins
	RankArrival                 // the earlier Candidate.Arrival wins
)

// CandidateSource enumerates the feasible drivers for an arriving task.
// It is the engine's pluggable answer to "who can serve this?": the
// linear scan evaluates every driver (exact, O(N) per task) and
// GridSource pre-filters with a spatial index — both running the same
// exact feasibility checks on the survivors, so every source produces
// identical candidate sets and therefore bit-identical simulation
// results.
//
// Implementations must append candidates in ascending driver order: the
// dispatchers' tie-breaking (and their consumption of the engine's RNG)
// is order-sensitive, and reproducibility across sources depends on a
// canonical order.
type CandidateSource interface {
	Name() string
	// Bind attaches the source to an engine and rebuilds any internal
	// state from the engine's current driver states and presence flags.
	// The engine calls it once per Run* entry point, right after
	// resetting driver state.
	Bind(e *Engine)
	// Candidates appends every feasible candidate for task into buf when
	// the dispatch decision happens at time now, and returns buf.
	Candidates(task model.Task, now float64, buf []Candidate) []Candidate
	// Moved notifies the source that driver i's engine state (location,
	// availability) changed after an assignment or a revocation.
	Moved(i int)
	// Presence notifies the source that driver i entered (mid-day join)
	// or left (retirement) the market. Absent drivers are never
	// candidates — the engine's exact feasibility check enforces that
	// regardless, so sources may treat this purely as a pruning hint.
	Presence(i int, present bool)
	// Added notifies the source that the fleet grew by one: driver i, the
	// new last index, is registered with the engine (Stream.AddDriver) and
	// the source extends its id space to hold her, indexing her if she is
	// present already. Nothing else is rebuilt.
	Added(i int)
	// Contenders appends, in ascending driver order, what the rule of by
	// (see Rank) leaves of what Candidates would: for RankMargin the row
	// of one, for RankArrival every candidate whose rank equals or beats
	// that of all candidates before it, for the zero Rank all of them.
	// Instant dispatch asks it with the dispatcher's RankedBy.
	Contenders(task model.Task, now float64, by Rank, buf []Candidate) []Candidate
	// TopRow appends the order's row of a window of k orders — exactly
	// what topRow makes of Candidates: the at most k candidates of
	// positive margin that rank first under ranksBefore, in ascending
	// driver order. A batched window asks it once per order.
	TopRow(task model.Task, now float64, k int, arena []Candidate) []Candidate
}

// Result aggregates a full simulation run. Per-driver slices are indexed
// like the input driver slice.
type Result struct {
	Served   int
	Rejected int

	// Cancelled counts tasks withdrawn by their rider before pickup —
	// dropped from a pending pool, or revoked after assignment (revoked
	// tasks are not double-counted in Served). Zero for event-free runs.
	Cancelled int

	Revenue     float64 // Σ p_m over served tasks (market revenue, Fig. 6)
	TotalProfit float64 // drivers' total profit, objective Eq. (4)

	PerDriverRevenue []float64
	PerDriverProfit  []float64
	PerDriverTasks   []int

	// DriverPaths[n] lists the task indices served by driver n in
	// service order; Assignment maps task index → driver index.
	DriverPaths [][]int
	Assignment  map[int]int
}

// ServeRate returns the fraction of tasks served (Fig. 7).
func (r Result) ServeRate() float64 {
	total := r.Served + r.Rejected
	if total == 0 {
		return 0
	}
	return float64(r.Served) / float64(total)
}

// AvgRevenuePerDriver returns mean revenue per driver (Fig. 8), over all
// drivers in the market including idle ones, matching the paper's
// "average payoff received by each driver".
func (r Result) AvgRevenuePerDriver() float64 {
	if len(r.PerDriverRevenue) == 0 {
		return 0
	}
	var sum float64
	for _, v := range r.PerDriverRevenue {
		sum += v
	}
	return sum / float64(len(r.PerDriverRevenue))
}

// AvgTasksPerDriver returns mean served tasks per driver (Fig. 9).
func (r Result) AvgTasksPerDriver() float64 {
	if len(r.PerDriverTasks) == 0 {
		return 0
	}
	var sum float64
	for _, v := range r.PerDriverTasks {
		sum += float64(v)
	}
	return sum / float64(len(r.PerDriverTasks))
}

// Engine simulates one day of the online market. Construct with New.
type Engine struct {
	Market  model.Market
	Drivers []model.Driver

	// RealTime frees drivers at their actual finish time instead of the
	// served task's end deadline. See the package comment.
	RealTime bool

	// Clock paces the event drain of time-keyed runs; nil runs at full
	// speed (InstantClock).
	Clock Clock

	// MatchWorkers is ignored.
	//
	// Deprecated: a window's components are solved one after another on
	// the calling goroutine; only the frozen benchmark/ still sets this.
	MatchWorkers int

	states     []DriverStateSnap
	present    []bool       // false: not yet joined, or retired
	timeKeyed  bool         // the current run's clock only moves forward (all but RunByValue)
	memo       []driverSnap // per-driver derived distances and snaps (distbatch.go)
	allIDs     []int        // 0..len(Drivers)-1, the linear scan's id list
	db         distBatch
	rng        *rand.Rand
	seed       int64           // the seed rng was constructed from
	rngSrc     *countingSource // rng's underlying source, counting draws
	source     CandidateSource
	winScratch *windowScratch // pooled batched-window working set

	// auditHook, when set by tests, observes every batched window right
	// before it is solved and committed; windowOracle, when set by tests,
	// then solves and commits it in closeBatchSparse's place (the dense
	// pre-decomposition solve lives in dense_test.go).
	auditHook    func(r *eventRun, batch []int, decisionAt float64)
	windowOracle func(r *eventRun, batch []int, decisionAt float64)
}

// New returns an engine over the given market and drivers. It returns an
// error if the inputs fail validation. It builds no run state: every
// entry point that reads it — Run*, NewStream, NewBatchedStream and
// RestoreStream — builds its own, and binds the candidate source then.
//
// The engine binds a GridSource, the indexed source every service runs.
// Its pre-filter is exact only for a market metric that never returns
// less than 0.9 × the crow-fly (equirectangular) distance, as every
// metric in this repository does; a metric that undercuts it silently
// loses feasible drivers. Bind a ScanSource through SetCandidateSource
// for any other metric.
func New(m model.Market, drivers []model.Driver, seed int64) (*Engine, error) {
	if err := model.ValidateAll(m, drivers, nil); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	src := newCountingSource(seed)
	return &Engine{
		Market:  m,
		Drivers: append([]model.Driver(nil), drivers...),
		rng:     rand.New(src),
		seed:    seed,
		rngSrc:  src,
		source:  &GridSource{},
	}, nil
}

// countingSource wraps the seeded RNG source and counts every draw, so
// a suspended run's RNG position is recoverable: re-seeding and
// discarding the same number of draws reproduces the source state
// bit-for-bit (each Int63/Uint64 call advances math/rand's generator by
// exactly one step regardless of which method was called). The durable
// snapshot/restore rail depends on this to keep tie-breaking policies
// (Nearest, Random) deterministic across a crash.
type countingSource struct {
	src rand.Source
	s64 rand.Source64 // src's Source64 view, nil if unsupported
	n   uint64        // draws consumed so far
}

func newCountingSource(seed int64) *countingSource {
	src := rand.NewSource(seed)
	s64, _ := src.(rand.Source64)
	return &countingSource{src: src, s64: s64}
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	if c.s64 != nil {
		return c.s64.Uint64()
	}
	// Mirror math/rand's fallback; counts as one draw per underlying
	// call so replaying n Int63 draws still lands on the same state.
	c.n++
	return uint64(c.src.Int63())>>31 | uint64(c.src.Int63())<<32
}

func (c *countingSource) Seed(seed int64) {
	c.n = 0
	c.src.Seed(seed)
}

// RNGDraws reports how many draws the engine's tie-breaking RNG has
// consumed since construction (or the last SeekRNG). Part of the
// engine's restorable state.
func (e *Engine) RNGDraws() uint64 { return e.rngSrc.n }

// SeekRNG rewinds the engine's RNG to its seed and fast-forwards it by
// n draws, restoring the exact generator state a run that had consumed
// RNGDraws() == n draws was suspended at.
func (e *Engine) SeekRNG(n uint64) {
	src := newCountingSource(e.seed)
	for i := uint64(0); i < n; i++ {
		src.src.Int63()
	}
	src.n = n
	e.rngSrc = src
	e.rng = rand.New(src)
}

// SetCandidateSource swaps the engine's candidate generation strategy.
// Passing nil restores the default, a fresh GridSource. The source is
// bound — its indexes built, once — at the start of the next Run*,
// NewStream or RestoreStream, so it may be set at any time between runs.
func (e *Engine) SetCandidateSource(src CandidateSource) {
	if src == nil {
		src = &GridSource{}
	}
	e.source = src
}

// resetAbsent rebuilds driver state for a fresh run, marking the listed
// drivers absent (they join mid-run via events) before the candidate
// source rebuilds its indexes from the presence flags. timeKeyed says
// whether the run's decision times are monotone (every run but
// RunByValue), which lets the index retire what the clock has passed.
func (e *Engine) resetAbsent(absent []int, timeKeyed bool) {
	e.timeKeyed = timeKeyed
	e.states = make([]DriverStateSnap, len(e.Drivers))
	e.present = make([]bool, len(e.Drivers))
	for i, d := range e.Drivers {
		e.states[i] = DriverStateSnap{FreeAt: d.Start, Loc: d.Source}
		e.present[i] = true
	}
	for _, i := range absent {
		e.present[i] = false
	}
	e.resetMemo()
	e.source.Bind(e)
}

// RunScenario processes the tasks in publish order through the
// dispatcher under instant dispatch and returns the aggregated result.
// The engine resets its state first, so one engine can run several
// dispatchers in sequence; tasks are not mutated. Dynamic market events
// are interleaved into the arrival stream: drivers joining and retiring
// mid-day, riders cancelling before pickup. Events are validated against
// the inputs (indices are positions in the slices, as in model.Trace);
// invalid scenarios panic, as they are static test/experiment inputs.
// Pass nil for a day without them.
func (e *Engine) RunScenario(tasks []model.Task, events []model.MarketEvent, d Dispatcher) Result {
	r := e.mustOpen(tasks, events, true)
	r.d = d
	r.onArrival = r.instantArrival
	return r.day(publishKey)
}

// RunByValue processes tasks in descending price order — the offline
// variant of the maximum-marginal-value heuristic the paper sketches at
// the end of §V-B ("it will be more efficient to deal with the tasks
// which have higher values firstly"). Each dispatch decision still
// happens at the task's own publish time; only the drain order changes,
// so the run is keyed by price, not time, and supports no churn events.
func (e *Engine) RunByValue(tasks []model.Task, d Dispatcher) Result {
	r := e.mustOpen(tasks, nil, false)
	r.d = d
	r.onArrival = r.instantArrival
	return r.day(func(t model.Task) float64 { return -t.Price })
}

// settle closes per-driver accounts: profit is revenue minus excess
// cost, where excess cost adds the final leg home and credits the
// baseline source→destination trip (Eq. 4).
func (e *Engine) settle(res *Result) {
	for i := range e.states {
		st := &e.states[i]
		drv := e.Drivers[i]
		res.PerDriverRevenue[i] = st.Revenue
		res.PerDriverTasks[i] = st.NTasks
		if st.NTasks == 0 {
			continue
		}
		homeCost := e.Market.TravelCost(st.Loc, drv.Dest)
		excess := st.Cost + homeCost - e.Market.BaselineCost(drv)
		res.PerDriverProfit[i] = st.Revenue - excess
		res.TotalProfit += res.PerDriverProfit[i]
		res.Revenue += st.Revenue
	}
}

// candidates computes the feasible driver set for the task when the
// dispatch decision is made at time now (== task.Publish for instant
// dispatch; later for batched dispatch), appending into buf. It is the
// exact linear scan that ScanSource exposes, taking its distances from
// Market.Batch when one is installed.
func (e *Engine) candidates(task model.Task, now float64, buf []Candidate) []Candidate {
	if cap(e.allIDs) < len(e.Drivers) {
		e.allIDs = make([]int, len(e.Drivers))
		for i := range e.allIDs {
			e.allIDs[i] = i
		}
	}
	return e.scoreCandidates(&e.db, e.allIDs[:len(e.Drivers)], task, now, e.orderTerms(task), buf)
}

// minRetire is the earliest shift end a driver can have and still take
// the task: she must outlast it until her release time (the end
// deadline, or the dispatch instant in real-time mode, plus the
// non-negative trip home) — any driver retiring earlier is infeasible
// for the scan too. A query that reaches an index has StartBy >= now,
// and a valid task ends after it starts, so this never lies before now:
// that is what lets the sources tell their indexes the time
// (spatial.Index.Expire).
func (e *Engine) minRetire(task model.Task, now float64) float64 {
	if e.RealTime {
		return now
	}
	return task.EndBy
}

// candidateFor runs the exact feasibility checks of Algorithms 3–4 for
// one driver; service and serviceCost are the task-only terms hoisted out
// of the per-driver loop. It is the per-pair composition of
// pickupArrival and finishCandidate over Market.Dist, the path of a
// market without a batcher — with one, scoreCandidates runs the same
// two stages over whole candidate sets with the distances computed in
// shared-endpoint batches, and must stay value-identical to this
// function.
func (e *Engine) candidateFor(i int, task model.Task, now, service, serviceCost float64) (Candidate, bool) {
	if !e.present[i] {
		return Candidate{}, false // not yet joined, or retired
	}
	pickupKm := e.Market.Dist(e.states[i].Loc, task.Source)
	arrival, ok := e.pickupArrival(i, task, now, pickupKm)
	if !ok {
		return Candidate{}, false
	}
	homeKm := e.Market.Dist(task.Dest, e.Drivers[i].Dest)
	return e.finishCandidate(i, task, service, serviceCost, arrival, pickupKm, homeKm)
}

// pickupArrival computes when driver i would reach the pickup (given
// the already-computed distance from her location to it) and checks the
// pickup-deadline clause. The second return is false when she cannot
// make the pickup. Here and in finishCandidate every clause is written
// "feasible only if within the bound", so that a NaN — from a metric
// that returns one — makes the pair infeasible rather than passing the
// clause.
func (e *Engine) pickupArrival(i int, task model.Task, now, pickupKm float64) (float64, bool) {
	drv := e.Drivers[i]
	st := &e.states[i]

	depart := st.FreeAt
	if depart < now && st.NTasks > 0 {
		// The driver has been idle at her last dropoff since
		// freeAt; she departs when notified.
		depart = now
	}
	if st.NTasks == 0 {
		// Not yet started: she leaves her source no earlier than
		// shift start or the task's arrival, whichever is later.
		if depart < now {
			depart = now
		}
		if depart < drv.Start {
			depart = drv.Start
		}
	}
	arrival := depart + e.Market.TravelTimeKm(pickupKm, drv.SpeedKmh)
	if !(arrival <= task.StartBy) {
		return 0, false // cannot reach the pickup by its deadline (or a NaN)
	}
	return arrival, true
}

// finishCandidate applies the dropoff-deadline and return-home clauses
// and prices the margin; pickupKm and homeKm are the already-computed
// location→pickup and dropoff→home distances.
func (e *Engine) finishCandidate(i int, task model.Task, service, serviceCost, arrival, pickupKm, homeKm float64) (Candidate, bool) {
	drv := e.Drivers[i]

	finish := arrival + service
	if !(finish <= task.EndBy) {
		return Candidate{}, false // cannot complete by the dropoff deadline
	}
	// Return-home clause: after the task the driver must still make
	// her own destination by shift end. In deadline mode she is held
	// until t̄+_m, matching Eqs. (2)–(3); in real-time mode she
	// leaves at her actual finish.
	releasedAt := task.EndBy
	if e.RealTime {
		releasedAt = finish
	}
	if !(releasedAt+e.Market.TravelTimeKm(homeKm, drv.SpeedKmh) <= drv.End) {
		return Candidate{}, false
	}

	return Candidate{Driver: i, Arrival: arrival, Margin: e.margin(task.Price, serviceCost, pickupKm, homeKm, e.homeKm(i))}, true
}

// margin is δ_{n,m}, Eq. (14): price minus the marginal cost of
// inserting the task after the driver's current plan — the deadhead to
// the pickup, the trip, and the way home from the dropoff (homeKm) in
// place of the way home from where she is (oldHomeKm). Every operation
// in it is monotone in pickupKm and homeKm, rounding included, so lower
// bounds on the two distances give an upper bound on the margin in
// floating point, not only in the reals — which GridSource.TopRow relies
// on by calling this same function for its bound.
func (e *Engine) margin(price, serviceCost, pickupKm, homeKm, oldHomeKm float64) float64 {
	// Market.TravelCostKm three times, written out: called, each copies
	// half the Market through a 16-byte load that straddles a cache line
	// wherever the allocator happens to put the engine, and this runs for
	// every driver the index predicate passes.
	perKm := e.Market.GasPerKm
	deadhead := pickupKm * perKm
	newHome := homeKm * perKm
	oldHome := oldHomeKm * perKm
	return price - (deadhead + serviceCost + newHome - oldHome)
}

// assign commits the task to the candidate driver.
func (e *Engine) assign(c Candidate, task model.Task) {
	st := &e.states[c.Driver]
	st.Cost += e.Market.TravelCost(st.Loc, task.Source) + e.Market.ServiceCost(task)
	st.Revenue += task.Price
	st.NTasks++
	if e.RealTime {
		st.FreeAt = c.Arrival + e.Market.TravelTime(task.Source, task.Dest, 0)
	} else {
		st.FreeAt = task.EndBy
	}
	st.Loc = task.Dest
	e.source.Moved(c.Driver)
}
