package heap

import (
	stdheap "container/heap"
	"math/rand"
	"slices"
	"testing"
)

// item carries a key with many ties and a tag that tells equal keys
// apart, so any difference in the moves two heaps make shows up in
// their arrays.
type item struct{ key, tag int }

func itemLess(a, b item) bool { return a.key < b.key }

// ref is the same heap behind container/heap's interface.
type ref []item

func (h ref) Len() int           { return len(h) }
func (h ref) Less(i, j int) bool { return h[i].key < h[j].key }
func (h ref) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *ref) Push(x any)        { *h = append(*h, x.(item)) }
func (h *ref) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestMatchesContainerHeap runs random Init/Push/Pop/Fix sequences on
// both heaps and requires the arrays to agree after every operation.
func TestMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tag := 0
	next := func() item {
		tag++
		return item{key: rng.Intn(5), tag: tag}
	}
	for round := 0; round < 200; round++ {
		var got []item
		for n := rng.Intn(20); n > 0; n-- {
			got = append(got, next())
		}
		want := ref(slices.Clone(got))
		Init(got, itemLess)
		stdheap.Init(&want)
		for op := 0; op < 100; op++ {
			switch k := rng.Intn(4); {
			case k == 0 || len(got) == 0:
				x := next()
				Push(&got, x, itemLess)
				stdheap.Push(&want, x)
			case k == 1:
				a, b := Pop(&got, itemLess), stdheap.Pop(&want).(item)
				if a != b {
					t.Fatalf("round %d op %d: Pop = %v, container/heap pops %v", round, op, a, b)
				}
			case k == 2:
				i, x := rng.Intn(len(got)), next()
				got[i], want[i] = x, x
				Fix(got, i, itemLess)
				stdheap.Fix(&want, i)
			default:
				Init(got, itemLess)
				stdheap.Init(&want)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d op %d: array %v, container/heap leaves %v", round, op, got, []item(want))
			}
		}
	}
}
