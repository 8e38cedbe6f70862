// Package heap is container/heap over a typed slice: a binary min-heap
// under a caller's less that boxes nothing, so a push and a pop allocate
// nothing once the slice has grown. Each function makes exactly the
// comparisons and swaps of its container/heap namesake, so the array
// layout, and the order equal elements pop in, is the one container/heap
// leaves: a captured event queue is written in array order.
package heap

// Init establishes the heap invariant over h.
func Init[T any](h []T, less func(a, b T) bool) {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		down(h, i, n, less)
	}
}

// Push appends x to *h and restores the invariant.
func Push[T any](h *[]T, x T, less func(a, b T) bool) {
	*h = append(*h, x)
	up(*h, len(*h)-1, less)
}

// Pop removes and returns the least element of *h.
func Pop[T any](h *[]T, less func(a, b T) bool) T {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	down(s, 0, n, less)
	*h = s[:n]
	return s[n]
}

// Fix restores the invariant after the element at index i changed.
func Fix[T any](h []T, i int, less func(a, b T) bool) {
	if !down(h, i, len(h), less) {
		up(h, i, less)
	}
}

func up[T any](h []T, j int, less func(a, b T) bool) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !less(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func down[T any](h []T, i0, n int, less func(a, b T) bool) bool {
	i := i0
	for {
		j := 2*i + 1 // left child; < 0 after int overflow
		if j >= n || j < 0 {
			break
		}
		if r := j + 1; r < n && less(h[r], h[j]) {
			j = r
		}
		if !less(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return i > i0
}
