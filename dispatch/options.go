package dispatch

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/online"
	"repro/internal/sim"
)

// Policy selects the dispatch heuristic answering each task.
type Policy int

// The built-in dispatch policies.
const (
	// MaxMargin assigns each task to the feasible driver with the
	// largest marginal profit δ (the paper's Algorithm 4), rejecting
	// tasks whose best margin is non-positive.
	MaxMargin Policy = iota
	// Nearest assigns each task to the feasible driver who can reach
	// the pickup earliest (Algorithm 3), breaking ties randomly.
	Nearest
	// Random assigns each task to a uniformly random feasible driver —
	// the naive control baseline.
	Random
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case MaxMargin:
		return "maxmargin"
	case Nearest:
		return "nearest"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a policy name (as printed by String) back into a
// Policy; serve front ends use it to parse configuration.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "maxmargin", "maxMargin":
		return MaxMargin, nil
	case "nearest":
		return Nearest, nil
	case "random":
		return Random, nil
	default:
		return 0, fmt.Errorf("%w: unknown policy %q (want maxmargin, nearest or random)", ErrInvalidOption, s)
	}
}

func (p Policy) dispatcher() (sim.Dispatcher, error) {
	switch p {
	case MaxMargin:
		return online.MaxMargin{}, nil
	case Nearest:
		return online.Nearest{}, nil
	case Random:
		return online.Random{}, nil
	default:
		return nil, fmt.Errorf("%w: unknown policy %d", ErrInvalidOption, int(p))
	}
}

// BatchAlgorithm names the per-window assignment solver of a batched
// service. There is one, and nothing selects it.
//
// Deprecated: only the second argument of WithBatching, which the
// frozen benchmark/ still passes, and the durable fingerprint's name
// for it.
type BatchAlgorithm int

// Hungarian — each window's maximum-weight task–driver assignment
// solved exactly — is the only BatchAlgorithm.
const Hungarian BatchAlgorithm = 0

// String implements fmt.Stringer.
func (a BatchAlgorithm) String() string {
	if a == Hungarian {
		return "hungarian"
	}
	return fmt.Sprintf("BatchAlgorithm(%d)", int(a))
}

// Clock paces the service's simulated time. Advance is called as the
// market moves from one event time to the next; a zero-delay clock (the
// default) processes events as fast as the hardware allows, a scaled
// clock replays a day in wall-clock minutes. Any implementation of the
// internal simulator's clock contract satisfies this interface.
type Clock interface {
	Advance(from, to float64)
}

// ScaledClock returns a Clock that sleeps (to−from)/factor wall seconds
// per advance: factor 60 replays a simulated hour per wall minute.
// Factor ≤ 0 is treated as 1 (real time).
func ScaledClock(factor float64) Clock { return sim.ScaledClock{Factor: factor} }

type config struct {
	policy      Policy
	realTime    bool
	clock       Clock
	seed        int64
	strict      bool
	batchWindow float64 // 0: instant dispatch
	maxPending  int     // 0: unbounded admission

	roadnet  *RoadNetwork     // non-nil: street-graph metric (see WithRoadNetwork)
	distFunc geo.DistanceFunc // non-nil: caller-supplied metric, not journalable

	durDir string    // "": in-memory service, no write-ahead log
	dur    durConfig // durability knobs (see WithDurability)
}

// Option configures a Service at construction.
type Option func(*config) error

// WithDispatcher selects the dispatch policy; the default is MaxMargin.
func WithDispatcher(p Policy) Option {
	return func(c *config) error {
		if _, err := p.dispatcher(); err != nil {
			return err
		}
		c.policy = p
		return nil
	}
}

// WithShards checks that n ≥ 1 and changes nothing.
//
// Deprecated: every service generates candidates through one spatial
// index and no count selects anything; only the frozen benchmark/ still
// calls this.
func WithShards(n int) Option {
	return func(*config) error {
		if n < 1 {
			return fmt.Errorf("%w: shards %d, want ≥ 1", ErrInvalidOption, n)
		}
		return nil
	}
}

// WithMatchWorkers checks that n ≥ 1 and changes nothing.
//
// Deprecated: a batched service solves each window's components one
// after another on the goroutine that closes the window; only the
// frozen benchmark/ still calls this.
func WithMatchWorkers(n int) Option {
	return func(*config) error {
		if n < 1 {
			return fmt.Errorf("%w: match workers %d, want ≥ 1", ErrInvalidOption, n)
		}
		return nil
	}
}

// WithBatching switches the service from instant to windowed dispatch:
// submitted tasks accumulate in a batch window of `window` simulated
// seconds (anchored at the order that opened it) and are matched
// together at the window's close by an exact maximum-weight task–driver
// assignment. SubmitTask then answers with a pending Assignment; the
// decision arrives on the event feed when the window closes (followed by
// an EventBatchClosed entry carrying the window's stats) and is
// queryable via Decision. The window must be a positive, finite number
// of seconds; anything else is rejected with ErrInvalidOption.
// WithBatching composes with WithClock, WithSeed, WithStrictTimes and
// WithRealTime (which additionally closes due windows on the wall clock
// — see its comment); the WithDispatcher policy is not consulted in
// batched mode.
//
// Deprecated parameter: algo selects nothing and must be Hungarian
// (anything else is ErrInvalidOption); it stays in the signature only
// because the frozen benchmark/ passes it.
func WithBatching(window float64, algo BatchAlgorithm) Option {
	return func(c *config) error {
		if !(window > 0) || math.IsInf(window, 1) {
			return fmt.Errorf("%w: batch window must be a positive finite number of seconds, got %g", ErrInvalidOption, window)
		}
		if algo != Hungarian {
			return fmt.Errorf("%w: unknown batch algorithm %v (the only window solver is %v)", ErrInvalidOption, algo, Hungarian)
		}
		c.batchWindow = window
		return nil
	}
}

// WithMaxPending bounds admission so overload sheds load instead of
// growing the market's queues without limit. On a batched service
// (WithBatching), a submission is shed with ErrOverloaded while the
// open window already holds n undecided orders — unless the submission
// itself closes that window first, in which case it is admitted so the
// market can always drain. On an instant service the bound applies to
// submissions in flight: at most n SubmitTask calls may be inside the
// service at once (meaningful when a pacing WithClock or slow hardware
// makes each decision take real time). A shed submission registers
// nothing: the task does not count toward Stats.Tasks, only
// Stats.Shed. n must be ≥ 1; without this option admission is
// unbounded.
func WithMaxPending(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("%w: max pending %d, want ≥ 1", ErrInvalidOption, n)
		}
		c.maxPending = n
		return nil
	}
}

// WithRealTime frees drivers at their actual trip finish time instead
// of the served task's end deadline, giving the market extra capacity
// the paper's offline bound cannot represent. See the simulator's
// package documentation for the modelling trade-off.
//
// On a batched service (WithBatching), WithRealTime additionally marks
// the market as live: the service arms a wall-clock timer for each open
// window (one simulated second per wall second) so a quiet market still
// decides its pending orders on time, instead of waiting for the next
// submission to push the clock past the close. Replays that must stay
// bit-identical to the batch engine leave it off and drive the clock
// purely by event timestamps.
func WithRealTime() Option {
	return func(c *config) error {
		c.realTime = true
		return nil
	}
}

// WithClock paces event processing with the given clock; nil restores
// the default full-speed clock. A sleeping clock paces the whole
// service: operations serialize on the market, so while the clock
// sleeps through a simulated gap every other caller blocks (their
// contexts are checked before the market is entered, not during the
// sleep). Use pacing clocks for demos and animated replays, not for
// concurrent front ends.
func WithClock(clk Clock) Option {
	return func(c *config) error {
		c.clock = clk
		return nil
	}
}

// WithSeed seeds the RNG used for dispatch tie-breaking; the default
// seed is 1. Runs with equal inputs and seeds are deterministic.
func WithSeed(seed int64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithStrictTimes rejects any submission whose timestamp precedes the
// service's current time with ErrOutOfOrder, instead of the default
// behaviour of processing late events at the current time. Replays that
// must stay bit-identical to a batch simulation use strict times;
// live front ends with concurrent submitters generally should not.
func WithStrictTimes() Option {
	return func(c *config) error {
		c.strict = true
		return nil
	}
}
