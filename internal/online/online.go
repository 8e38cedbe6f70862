// Package online implements the paper's two online heuristics (§V) as
// sim.Dispatcher implementations:
//
//   - Nearest (Algorithm 3): assign the arriving task to the candidate
//     driver who can reach the pickup soonest, breaking ties uniformly
//     at random, exactly as the paper specifies.
//   - MaxMargin (Algorithm 4): assign to the candidate maximizing the
//     marginal value δ_{n,m} (Eq. 14) of inserting the task into the
//     driver's current plan.
//
// Both are applicable online and offline: pair MaxMargin with
// sim.Engine.RunByValue for the offline sorted variant the paper
// sketches at the end of §V-B.
//
// Dispatchers are candidate-source-agnostic: the engine hands them the
// same candidate slice (ascending driver order — a sim.CandidateSource
// contract) whether candidates came from the exact linear scan or the
// spatial index's pre-filter, so tie-breaking and RNG consumption, and
// therefore results, are identical under either source.
//
// Nearest and MaxMargin each take one extremum over that slice and say
// so (sim.Ranked), which lets instant dispatch over the indexed source
// hand them only the drivers who could still win or tie — the rest are
// ruled out by a distance lower bound and never scored. Each rank has
// one rule (sim.Rank), set by how its chooser breaks ties. MaxMargin
// keeps the first of the greatest positive margins, draws nothing and
// rejects when no margin is positive, so all it needs is the order's row
// of a window of one — which the source finds in any order, nearest cell
// first. Nearest draws from the RNG on an exact arrival tie with its
// *running* best, which a later candidate may yet beat, so a candidate
// matters unless it is strictly worse than the best before it in driver
// order, and the source walks in that order. Either way neither the
// winner nor the RNG position changes. Random looks at the whole list
// and always gets it.
package online

import (
	"math/rand"

	"repro/internal/model"
	"repro/internal/sim"
)

// Nearest is the nearest-driver heuristic (Algorithm 3). The zero value
// is ready to use.
type Nearest struct{}

var (
	_ sim.Dispatcher = Nearest{}
	_ sim.Ranked     = Nearest{}
)

// Name implements sim.Dispatcher.
func (Nearest) Name() string { return "Nearest" }

// Choose picks the candidate with the earliest pickup arrival; among
// equal arrivals it picks uniformly at random ("if multiple, choose a
// random one", Algorithm 3 step b).
func (Nearest) Choose(_ model.Task, cands []sim.Candidate, rng *rand.Rand) int {
	best := -1
	ties := 0
	for i, c := range cands {
		switch {
		case best < 0 || c.Arrival < cands[best].Arrival:
			best = i
			ties = 1
		case c.Arrival == cands[best].Arrival:
			// Reservoir-style uniform choice among ties.
			ties++
			if rng.Intn(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

// RankedBy implements sim.Ranked: Choose is an argmin of Arrival whose
// reservoir counts, and draws for, exact ties with the running minimum
// only — the prefix-only contract of sim.RankArrival.
func (Nearest) RankedBy() sim.Rank { return sim.RankArrival }

// MaxMargin is the maximum-marginal-value heuristic (Algorithm 4). The
// paper's Algorithm 4 picks argmax δ_{n,m} unconditionally, but the
// market model's individual-rationality constraint (Eq. 5b) forbids
// forcing unprofitable work on a driver, so a task whose best margin is
// not positive is rejected. The zero value is ready to use.
type MaxMargin struct{}

var (
	_ sim.Dispatcher = MaxMargin{}
	_ sim.Ranked     = MaxMargin{}
)

// Name implements sim.Dispatcher.
func (MaxMargin) Name() string { return "maxMargin" }

// Choose picks the first candidate of maximal δ_{n,m} among those whose
// δ is positive; a NaN δ is not. It rejects when there is none.
func (MaxMargin) Choose(_ model.Task, cands []sim.Candidate, _ *rand.Rand) int {
	best := -1
	for i, c := range cands {
		if c.Margin > 0 && (best < 0 || c.Margin > cands[best].Margin) {
			best = i
		}
	}
	return best
}

// RankedBy implements sim.Ranked: Choose is a strict-comparison argmax
// of the positive margins — the first of equal margins stays, nothing is
// drawn — which is sim.RankMargin's rule: the row of a window of one.
func (MaxMargin) RankedBy() sim.Rank { return sim.RankMargin }

// Random assigns the task to a uniformly random candidate. It is not in
// the paper; it serves as the naive control baseline in ablation
// benchmarks.
type Random struct{}

var _ sim.Dispatcher = Random{}

// Name implements sim.Dispatcher.
func (Random) Name() string { return "Random" }

// Choose implements sim.Dispatcher.
func (Random) Choose(_ model.Task, cands []sim.Candidate, rng *rand.Rand) int {
	if len(cands) == 0 {
		return -1
	}
	return rng.Intn(len(cands))
}
