package sim

import (
	"math"
	"slices"
	"testing"
)

// auditIndex is the check that stands where a single setter for driver
// state would: after a day — or in the middle of one — every driver's
// index entry must mirror the engine, or a stale line would prune a
// winner without any book showing why. The five places that write
// states[i].Loc or FreeAt (assign, handleFree, handleJoin, AddDriver,
// and resetAbsent / RestoreStream through Bind) each reach the source by
// Moved, Presence, Added or Bind; this is where a sixth that forgot to
// would show. It does nothing for an engine on another source. The
// payload is held the same way, bit for bit, whichever call placed her —
// Load in Bind (RestoreStream and Added's poleward rebind included), Add
// on a join, Move in Moved: on a market the walks bound, crow-fly or with
// a node table, HomeKm is the distance home from where she stands; on a
// table market Node is the node her spot snaps to. Every other entry
// carries neither, NaN and -1 (GridSource.place). Her way home puts her
// in the index's near layer exactly when it is at most h₀
// (spatial.Index.NearKm), every driver while there is one layer.
//
// An absent driver's window is the empty span Presence gave her — or her
// engine window again, if a revoked ride was handed back to her after
// she retired (handleFree → Moved): the engine's own presence check
// keeps her out either way.
//
// An entry that mirrors the engine is still lost to a window query if it
// lies in the wrong region of its cell — parked or expired when its
// window says live, under a header that does not say the cell is
// behind. The regions are the index's own business, so the audit asks:
// every driver with an open window must answer a query at the spot she
// stands on, at the instant she is free, that demands no shift longer
// than hers. That raises the horizon to her free time, so her cell is
// settled for it; and the query reads the live range alone whenever her
// shift end is not already below the index's clock (below it, every
// region is read and the check is vacuous — rightly, she is expired).
func auditIndex(t testing.TB, label string, e *Engine) {
	t.Helper()
	s, ok := e.source.(*GridSource)
	if !ok {
		return
	}
	if s.ix.Len() != len(e.Drivers) || s.ix.Members() != len(e.Drivers) {
		t.Fatalf("%s: index of %d ids, %d present, for a fleet of %d", label, s.ix.Len(), s.ix.Members(), len(e.Drivers))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i, d := range e.Drivers {
		st := e.states[i]
		en, _ := s.ix.Lookup(i)
		if px, py := s.ix.Project(st.Loc); !same(en.PX, px) || !same(en.PY, py) {
			t.Fatalf("%s: driver %d stands at %v, her entry at (%g, %g), not (%g, %g)", label, i, st.Loc, en.PX, en.PY, px, py)
		}
		open := same(en.FreeAt, st.FreeAt) && same(en.RetireAt, d.End)
		shut := same(en.FreeAt, math.Inf(1)) && same(en.RetireAt, math.Inf(-1))
		if !open && (e.present[i] || !shut) {
			t.Fatalf("%s: driver %d (present=%v) has the window (%g, %g), her entry (%g, %g)", label, i, e.present[i], st.FreeAt, d.End, en.FreeAt, en.RetireAt)
		}
		if hx, hy := s.ix.Project(d.Dest); !same(en.HomeX, hx) || !same(en.HomeY, hy) {
			t.Fatalf("%s: driver %d is headed for %v, her entry for (%g, %g), not (%g, %g)", label, i, d.Dest, en.HomeX, en.HomeY, hx, hy)
		}
		km, node := math.NaN(), int32(-1)
		if s.walks() {
			km = e.Market.Dist(st.Loc, d.Dest)
		}
		if s.road.table != nil {
			node = e.Market.Batch.Snap(st.Loc).Node
		}
		if !same(en.HomeKm, km) || en.Node != node {
			t.Fatalf("%s: driver %d at %v is %g km from home at node %d, her entry says %g km at node %d", label, i, st.Loc, km, node, en.HomeKm, en.Node)
		}
		if h0 := s.ix.NearKm(); (en.HomeKm <= h0 || math.IsInf(h0, 1)) == s.ix.Far(i) {
			t.Fatalf("%s: driver %d, %g km from home, is in the far layer: %v, against h₀ %g", label, i, en.HomeKm, s.ix.Far(i), h0)
		}
		if open && !math.IsInf(st.FreeAt, 0) {
			s.ids = s.ix.AppendReachable(s.ids[:0], st.Loc, 1, st.FreeAt, st.FreeAt, d.End)
			if _, found := slices.BinarySearch(s.ids, i); !found {
				t.Fatalf("%s: driver %d, free at %g until %g, is not among the %d a query for exactly that finds where she stands", label, i, st.FreeAt, d.End, len(s.ids))
			}
		}
	}
}
