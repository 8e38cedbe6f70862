// Package matching implements maximum-weight bipartite matching — the
// building block for batched ("non-heuristic", in the words of the
// paper's conclusion) online dispatch. Instead of assigning each task
// the moment it arrives, a batched dispatcher accumulates the tasks of a
// short time window and solves an assignment problem between the batch
// and the candidate drivers, trading a bounded increase in response time
// for globally better matches.
//
// One algorithm, twice: the O(n³) Hungarian method (exact,
// deterministic) over a dense rectangular weight matrix with missing
// (forbidden) pairs — the reference the tests compare against — and its
// sparse restatement over adjacency lists (sparse.go), which is what a
// dispatch window runs.
package matching

import (
	"fmt"
	"math"
)

// Forbidden marks a (row, col) pair that must not be matched. Any weight
// ≤ Forbidden is treated as forbidden.
const Forbidden = -1e18

// Assignment is the result of a matching: ColOf[r] is the column matched
// to row r, or -1. Weight is the total matched weight.
type Assignment struct {
	ColOf  []int
	Weight float64
	// Matched counts the matched rows.
	Matched int
}

// validate checks the weights matrix is rectangular.
func validate(w [][]float64) (rows, cols int, err error) {
	rows = len(w)
	if rows == 0 {
		return 0, 0, nil
	}
	cols = len(w[0])
	for i, row := range w {
		if len(row) != cols {
			return 0, 0, fmt.Errorf("matching: ragged weight matrix at row %d (%d vs %d)", i, len(row), cols)
		}
	}
	return rows, cols, nil
}

// Hungarian computes a maximum-weight matching of the rectangular
// weight matrix w (rows = tasks, cols = drivers). Pairs with weight ≤
// Forbidden are never matched; rows may remain unmatched when every
// compatible column is taken or forbidden, and unmatched rows cost
// nothing (this is *maximum weight*, not minimum cost with mandatory
// assignment). Negative-weight matches are never made.
func Hungarian(w [][]float64) (Assignment, error) {
	rows, cols, err := validate(w)
	if err != nil {
		return Assignment{}, err
	}
	out := Assignment{ColOf: make([]int, rows)}
	for i := range out.ColOf {
		out.ColOf[i] = -1
	}
	if rows == 0 || cols == 0 {
		return out, nil
	}

	// Reduce "maximize, optional assignment, forbidden pairs" to the
	// square Jonker-style shortest augmenting path formulation:
	// minimize cost over an n x n matrix, n = rows + cols, where
	//   cost[r][c]          = -w[r][c]  for allowed real pairs
	//   cost[r][cols+r]     = 0         "leave row r unmatched"
	//   cost[rows+c][c]     = 0         "leave col c unmatched"
	//   cost[dummy][dummy]  = 0
	// and anything else is prohibitively expensive. The minimum-cost
	// perfect matching then equals minus the maximum total weight, with
	// unmatched == weight 0, so only positive-weight matches improve
	// the objective.
	n := rows + cols
	const big = 1e17 // forbidden-pair cost; far above any real cost, far below overflow
	cost := func(r, c int) float64 {
		switch {
		case r < rows && c < cols:
			if w[r][c] <= Forbidden {
				return big
			}
			return -w[r][c]
		case r < rows && c-cols == r:
			return 0 // row r's personal dummy
		case r >= rows && c == r-rows:
			return 0 // col c's personal dummy
		case r >= rows && c >= cols:
			return 0
		default:
			return big
		}
	}

	// Jonker-Volgenant style shortest augmenting paths with dual
	// potentials, O(n³).
	inf := math.Inf(1)
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1) // p[c] = row matched to column c (1-based sentinel at 0)
	way := make([]int, n+1)
	for r := 1; r <= n; r++ {
		p[0] = r
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := 1; j <= n; j++ {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost(i0-1, j-1) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	for c := 1; c <= n; c++ {
		r := p[c] - 1
		col := c - 1
		if r < 0 || r >= rows || col >= cols {
			continue // dummy row or dummy column
		}
		if w[r][col] <= Forbidden || w[r][col] <= 0 {
			continue // forbidden or unprofitable pairs stay unmatched
		}
		out.ColOf[r] = col
		out.Weight += w[r][col]
		out.Matched++
	}
	return out, nil
}
