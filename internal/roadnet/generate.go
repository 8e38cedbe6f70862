package roadnet

import (
	"fmt"
	"math/rand"

	"repro/internal/geo"
)

// This file generates synthetic city street networks. Porto's street
// data is not available offline, so — per the substitution rule in
// DESIGN.md — the framework routes over generated networks that share
// the properties that matter for travel-distance estimation: connected,
// roughly uniform coverage of the bounding box, and realistic circuity
// (network distance / straight-line distance ≈ 1.2–1.4).

// GridConfig parameterizes GenerateGrid.
type GridConfig struct {
	Box  geo.BoundingBox
	Rows int
	Cols int
	// RemoveFrac removes this fraction of interior streets at random
	// (irregularity raises circuity); connectivity is restored by
	// keeping a full boundary ring. In [0, 0.4].
	RemoveFrac float64
	// DiagonalFrac adds diagonal avenues across this fraction of
	// blocks, lowering circuity like real arterial roads.
	DiagonalFrac float64
	// Jitter displaces nodes by up to this fraction of the cell pitch,
	// so streets are not axis-perfect.
	Jitter float64
	Seed   int64
}

// DefaultGridConfig returns the Porto-box street grid used by examples
// and benches: ~20x24 intersections, 10% missing streets, 8% diagonal
// avenues, mild jitter.
func DefaultGridConfig() GridConfig {
	return GridConfig{
		Box:          geo.PortoBox,
		Rows:         20,
		Cols:         24,
		RemoveFrac:   0.10,
		DiagonalFrac: 0.08,
		Jitter:       0.2,
		Seed:         1,
	}
}

// Validate reports whether the configuration is usable.
func (c GridConfig) Validate() error {
	switch {
	case !c.Box.Valid():
		return fmt.Errorf("roadnet: invalid box %+v", c.Box)
	case c.Rows < 2 || c.Cols < 2:
		return fmt.Errorf("roadnet: grid %dx%d too small", c.Rows, c.Cols)
	case c.RemoveFrac < 0 || c.RemoveFrac > 0.4:
		return fmt.Errorf("roadnet: remove fraction %.2f outside [0, 0.4]", c.RemoveFrac)
	case c.DiagonalFrac < 0 || c.DiagonalFrac > 1:
		return fmt.Errorf("roadnet: diagonal fraction %.2f outside [0, 1]", c.DiagonalFrac)
	case c.Jitter < 0 || c.Jitter > 0.45:
		return fmt.Errorf("roadnet: jitter %.2f outside [0, 0.45]", c.Jitter)
	}
	return nil
}

// GenerateGrid builds a jittered Manhattan-style street grid over the
// box. The returned graph is strongly connected: the boundary ring and
// one row/column spine are always kept.
func GenerateGrid(cfg GridConfig) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &Graph{}

	id := func(r, c int) int { return r*cfg.Cols + c }
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			fLat := (float64(r) + 0.5 + (rng.Float64()-0.5)*2*cfg.Jitter) / float64(cfg.Rows)
			fLon := (float64(c) + 0.5 + (rng.Float64()-0.5)*2*cfg.Jitter) / float64(cfg.Cols)
			g.AddNode(cfg.Box.Lerp(clamp01(fLat), clamp01(fLon)))
		}
	}

	keep := func(r, c int) bool { // streets incident to the ring or spine survive
		return r == 0 || c == 0 || r == cfg.Rows-1 || c == cfg.Cols-1 ||
			r == cfg.Rows/2 || c == cfg.Cols/2
	}
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			if c+1 < cfg.Cols {
				if keep(r, c) || rng.Float64() >= cfg.RemoveFrac {
					g.AddRoad(id(r, c), id(r, c+1), 1)
				}
			}
			if r+1 < cfg.Rows {
				if keep(r, c) || rng.Float64() >= cfg.RemoveFrac {
					g.AddRoad(id(r, c), id(r+1, c), 1)
				}
			}
			if r+1 < cfg.Rows && c+1 < cfg.Cols && rng.Float64() < cfg.DiagonalFrac {
				if rng.Intn(2) == 0 {
					g.AddRoad(id(r, c), id(r+1, c+1), 1)
				} else {
					g.AddRoad(id(r, c+1), id(r+1, c), 1)
				}
			}
		}
	}
	// Random removal can isolate an interior intersection (all four of
	// its streets removed); repair by reconnecting stranded nodes to a
	// grid neighbor until the network is strongly connected. All roads
	// are two-way, so connecting components pairwise always converges.
	for !g.StronglyConnected() {
		reached := reachableFrom(g.adj, 0)
		repaired := false
		for r := 0; r < cfg.Rows && !repaired; r++ {
			for c := 0; c < cfg.Cols && !repaired; c++ {
				if reached[id(r, c)] {
					continue
				}
				for _, nb := range [][2]int{{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}} {
					if nb[0] < 0 || nb[0] >= cfg.Rows || nb[1] < 0 || nb[1] >= cfg.Cols {
						continue
					}
					if reached[id(nb[0], nb[1])] {
						g.AddRoad(id(r, c), id(nb[0], nb[1]), 1)
						repaired = true
						break
					}
				}
			}
		}
		if !repaired {
			// No stranded node borders the main component — cannot
			// happen on a grid, but guard against an infinite loop.
			return nil, fmt.Errorf("roadnet: could not repair grid connectivity (cfg %+v)", cfg)
		}
	}
	return g, nil
}

// GenerateRadial builds a ring-and-spoke network (historic-city shape):
// `rings` concentric rings crossed by `spokes` radial avenues meeting
// at a central node.
func GenerateRadial(center geo.Point, rings, spokes int, maxRadiusKm float64) (*Graph, error) {
	if rings < 1 || spokes < 3 {
		return nil, fmt.Errorf("roadnet: radial needs ≥1 ring and ≥3 spokes, got %d, %d", rings, spokes)
	}
	if maxRadiusKm <= 0 {
		return nil, fmt.Errorf("roadnet: non-positive radius %g", maxRadiusKm)
	}
	g := &Graph{}
	c := g.AddNode(center)
	// node id of ring r (0-based), spoke s.
	id := func(r, s int) int { return 1 + r*spokes + s }
	for r := 0; r < rings; r++ {
		radius := maxRadiusKm * float64(r+1) / float64(rings)
		for s := 0; s < spokes; s++ {
			bearing := 2 * 3.141592653589793 * float64(s) / float64(spokes)
			g.AddNode(geo.Offset(center, bearing, radius))
		}
	}
	for s := 0; s < spokes; s++ {
		g.AddRoad(c, id(0, s), 1) // center to first ring
		for r := 0; r+1 < rings; r++ {
			g.AddRoad(id(r, s), id(r+1, s), 1) // radial segments
		}
	}
	for r := 0; r < rings; r++ {
		for s := 0; s < spokes; s++ {
			g.AddRoad(id(r, s), id(r, (s+1)%spokes), 1) // ring segments
		}
	}
	if !g.StronglyConnected() {
		return nil, fmt.Errorf("roadnet: radial network not strongly connected")
	}
	return g, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
