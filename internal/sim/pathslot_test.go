package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// pathRef is the per-driver path a run must hold, rebuilt from what the
// stream reports in commit order: a decision appends, an applied
// revocation removes the driver's last task.
type pathRef struct {
	paths   [][]int
	pending map[int]int // driver -> cancelled task whose revert has not run yet
	reverts int
}

// settle applies driver d's revocation once the run has applied it (it
// runs at the driver's evFree, after the cancellation returns).
func (p *pathRef) settle(t *testing.T, st *Stream, d int) {
	t.Helper()
	ti, ok := p.pending[d]
	if !ok {
		return
	}
	if _, waiting := st.r.revert[d]; waiting {
		return
	}
	path := p.paths[d]
	if len(path) == 0 || path[len(path)-1] != ti {
		t.Fatalf("driver %d: revert of task %d, reference path %v", d, ti, path)
	}
	p.paths[d] = path[:len(path)-1]
	delete(p.pending, d)
	p.reverts++
}

func (p *pathRef) commit(t *testing.T, st *Stream, dec TaskDecision) {
	t.Helper()
	if !dec.Assigned {
		return
	}
	p.settle(t, st, dec.Driver)
	p.paths[dec.Driver] = append(p.paths[dec.Driver], dec.Task)
}

// check holds the run's DriverPaths to the reference, and every path's
// backing slots [0, cap) to its driver alone.
func (p *pathRef) check(t *testing.T, st *Stream, label string) {
	t.Helper()
	for d := range p.paths {
		p.settle(t, st, d)
	}
	got := st.r.res.DriverPaths
	if len(got) != len(p.paths) {
		t.Fatalf("%s: %d paths, reference %d", label, len(got), len(p.paths))
	}
	owner := make(map[*int]int)
	for d, path := range got {
		if fmt.Sprint(path) != fmt.Sprint(p.paths[d]) {
			t.Fatalf("%s: driver %d path %v, reference %v", label, d, path, p.paths[d])
		}
		full := path[:cap(path)]
		for k := range full {
			if o, taken := owner[&full[k]]; taken {
				t.Fatalf("%s: drivers %d and %d share a path slot", label, o, d)
			}
			owner[&full[k]] = d
		}
	}
}

func (p *pathRef) clone() *pathRef {
	c := &pathRef{paths: clonePaths(p.paths), pending: make(map[int]int, len(p.pending))}
	for d, ti := range p.pending {
		c.pending[d] = ti
	}
	return c
}

// TestDriverPathsOwnTheirSlots: a driver's first path slot comes from a
// per-run chunk, so the run's DriverPaths are checked after every
// operation against a reference built from commit order, and no two
// drivers' paths may share a slot. The day interleaves commits across
// 25 drivers, revokes assignments by cancellation (handleFree's
// path[:len-1], after which the next commit reuses the emptied slot),
// and is captured and restored at several cuts, the restored stream
// continuing under the same checks. The books must equal the
// uninterrupted run's.
func TestDriverPathsOwnTheirSlots(t *testing.T) {
	cfg := trace.NewConfig(41, 120, 25, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	events := trace.WithChurn(tr, trace.DefaultChurn(3, 0.4, 0.3))
	feed, fleet := buildFeed(tr.Tasks, events)

	for _, batched := range []bool{false, true} {
		mk := func(capture *StreamState) *Stream {
			e, err := New(cfg.Market, tr.Drivers, 7)
			if err != nil {
				t.Fatal(err)
			}
			var st *Stream
			switch {
			case capture != nil && batched:
				st, err = e.RestoreStream(capture, nil, 45)
			case capture != nil:
				st, err = e.RestoreStream(capture, diffRandom{}, 0)
			case batched:
				st, err = e.NewBatchedStream(45, BatchHungarian, fleet)
			default:
				st, err = e.NewStream(diffRandom{}, fleet)
			}
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		// drive applies feed items to st under ref's checks.
		drive := func(t *testing.T, st *Stream, ref *pathRef, items []feedItem, from int) {
			st.SetDecisionHandler(func(dec TaskDecision) { ref.commit(t, st, dec) })
			for k, it := range items {
				if it.isTask {
					dec, err := st.SubmitTask(tr.Tasks[it.task])
					if err != nil {
						t.Fatal(err)
					}
					ref.commit(t, st, dec)
				} else {
					if _, _, err := st.CancelTask(it.task, it.at); err != nil {
						t.Fatal(err)
					}
				}
				// A revocation is read off the run: CancelTask names
				// the freed driver only when the task was assigned
				// before the call, not when a window the call closed
				// assigned it.
				for d, info := range st.r.revert {
					ref.pending[d] = info.Task
				}
				ref.check(t, st, fmt.Sprintf("op %d", from+k))
			}
		}
		name := map[bool]string{false: "instant", true: "batched"}[batched]
		t.Run(name, func(t *testing.T) {
			base := mk(nil)
			ref := &pathRef{paths: make([][]int, len(tr.Drivers)), pending: map[int]int{}}
			drive(t, base, ref, feed, 0)
			want, err := base.Finish()
			if err != nil {
				t.Fatal(err)
			}
			longest := 0
			for _, path := range want.DriverPaths {
				longest = max(longest, len(path))
			}
			if ref.reverts == 0 || longest < 2 {
				t.Fatalf("day too quiet to test slots: %d reverts, longest path %d", ref.reverts, longest)
			}

			for _, cut := range []int{0, len(feed) / 3, len(feed) / 2, len(feed) - 1} {
				st := mk(nil)
				ref := &pathRef{paths: make([][]int, len(tr.Drivers)), pending: map[int]int{}}
				drive(t, st, ref, feed[:cut], 0)
				snap, err := st.CaptureState()
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(snap.Res.DriverPaths) != fmt.Sprint(st.r.res.DriverPaths) {
					t.Fatalf("cut %d: captured paths differ from the run's", cut)
				}
				// snap is a view of st, which goes on below: restore a
				// copy of it.
				restored := mk(cloneState(snap))
				rref := ref.clone()
				rref.check(t, restored, fmt.Sprintf("cut %d restored", cut))
				// The suspended run goes on after the restored one: a
				// slot the two shared would show in the second's checks.
				drive(t, restored, rref, feed[cut:], cut)
				drive(t, st, ref, feed[cut:], cut)
				got, err := restored.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("cut %d: restored books differ: served %d/%d cancelled %d/%d",
						cut, got.Served, want.Served, got.Cancelled, want.Cancelled)
				}
			}
		})
	}
}
