package pricing

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/model"
)

// TestSurgeConcurrentObservePrice drives Observe*/Decay writers against
// Price/Multiplier readers; under -race this proves the Pricer contract
// ("safe for concurrent readers once constructed") now holds with live
// observation, and the assertions pin the multiplier to its documented
// clamp range whatever interleaving occurs.
func TestSurgeConcurrentObservePrice(t *testing.T) {
	m := model.DefaultMarket()
	grid := geo.NewGrid(geo.PortoBox, 8, 8)
	s := NewSurge(NewLinear(m, 1), grid, 3)

	const writers, readers, iters = 4, 4, 2000
	var wg sync.WaitGroup
	wg.Add(writers + readers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				p := geo.PortoBox.Lerp(rng.Float64(), rng.Float64())
				switch i % 4 {
				case 0, 1:
					s.ObserveDemand(p, 1)
				case 2:
					s.ObserveSupply(p, 1)
				default:
					s.Decay(0.9)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < iters; i++ {
				src := geo.PortoBox.Lerp(rng.Float64(), rng.Float64())
				tk := model.Task{Source: src, Dest: geo.PortoBox.Center(), StartBy: 60, EndBy: 600}
				if a := s.Multiplier(src); a < 1 || a > s.MaxAlpha {
					t.Errorf("multiplier %v outside [1, %v]", a, s.MaxAlpha)
					return
				}
				if price := s.Price(tk); price < 0 {
					t.Errorf("negative price %v", price)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}
