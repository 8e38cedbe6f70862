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
// ruled out by a distance lower bound and never scored. What makes that
// exact is how the two break ties, and the two contracts differ
// (sim.Rank). MaxMargin keeps the first of equal margins and draws
// nothing, so only the candidates that hold the final maximum matter:
// RankMargin is order-free, and the source may look for them in any
// order, nearest cell first. Nearest draws from the RNG on an exact
// arrival tie with its *running* best, which a later candidate may yet
// beat, so a candidate matters unless it is strictly worse than the best
// before it in driver order: RankArrival is prefix-only, and the source
// walks it in that order. Either way neither the winner nor the RNG
// position changes. Random looks at the whole list and always gets it.
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

// MaxMargin is the maximum-marginal-value heuristic (Algorithm 4).
//
// AllowNegative controls whether a task may be assigned to a driver whose
// marginal value δ_{n,m} is non-positive. The paper's Algorithm 4 picks
// argmax δ unconditionally, but the market model's individual-rationality
// constraint (Eq. 5b) forbids forcing unprofitable work on a driver, so
// the default (false) rejects tasks whose best margin is ≤ 0.
type MaxMargin struct {
	AllowNegative bool
}

var (
	_ sim.Dispatcher = MaxMargin{}
	_ sim.Ranked     = MaxMargin{}
)

// Name implements sim.Dispatcher.
func (m MaxMargin) Name() string {
	if m.AllowNegative {
		return "maxMargin(unconstrained)"
	}
	return "maxMargin"
}

// Choose picks the candidate with maximal δ_{n,m}.
func (m MaxMargin) Choose(_ model.Task, cands []sim.Candidate, _ *rand.Rand) int {
	best := -1
	for i, c := range cands {
		if best < 0 || c.Margin > cands[best].Margin {
			best = i
		}
	}
	if best >= 0 && !m.AllowNegative && cands[best].Margin <= 0 {
		return -1
	}
	return best
}

// RankedBy implements sim.Ranked: Choose is a strict-comparison argmax
// of Margin — the first of equal margins stays, nothing is drawn — and
// the rejection rule reads the winner alone: the order-free contract of
// sim.RankMargin.
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
