#!/usr/bin/env sh
# Coverage ratchet for the packages the differential-testing discipline
# lives in: fails if `go test -cover` for any of them drops below the
# floor recorded when the batched streaming PR landed (the pre-PR
# baseline). Raise a floor when coverage durably improves; never lower
# one to make a change pass.
#
# Usage: scripts/coverage_check.sh
set -eu
cd "$(dirname "$0")/.."

check() {
  pkg="$1"
  floor="$2"
  out=$(go test -count=1 -cover "$pkg")
  echo "$out"
  pct=$(echo "$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
  if [ -z "$pct" ]; then
    echo "coverage_check: no coverage figure for $pkg" >&2
    exit 1
  fi
  # All-integer comparison (tenths of a percent): POSIX sh has no floats.
  pct10=$(echo "$pct" | awk '{printf "%d", $1 * 10}')
  floor10=$(echo "$floor" | awk '{printf "%d", $1 * 10}')
  if [ "$pct10" -lt "$floor10" ]; then
    echo "coverage_check: $pkg coverage $pct% fell below the $floor% floor" >&2
    exit 1
  fi
}

# Floors raised with the sparse window-matching PR (sim 91.0 -> 92.5,
# dispatch 80.7 -> 84.0, matching 97.7 -> 98.0 after its tests landed);
# dispatch re-ratcheted to 93.0 when the durability PR's journal-failure
# and replay-rejection tests pushed it to 94.2. sim re-ratcheted to 93.5
# when the zone-sharded source was deleted (93.6 with one indexed source),
# and to 94.0 when the dense window oracle moved into a test file and the
# bounded rows landed fully covered (94.2). Both re-ratcheted when the
# window worker pool, the live-pricing hooks and the version-1 log
# reader were deleted (sim 94.4, dispatch 96.1, matching 98.2).
# dispatch and matching re-ratcheted when the ε-auction and its option
# plumbing were deleted (dispatch 96.3, matching 98.9; sim stayed at 94.4
# and keeps its floor; 94.5 with the cell walk). sim re-ratcheted to its
# measured 94.7 when the margin walks learned the road metric's node
# table, with a table-market mode in both bounded-path fuzz targets.
# sim re-ratcheted to its measured 95.9 when the event core folded into
# one run opener and the restore checks gained one named case each.
# Both re-ratcheted to their measured figures, the same on three runs,
# when snapshots went copy-free (a cut encodes a view of the live run, a
# restore adopts what it decodes, paths are decoded from one block):
# sim 96.3 (95.9 floor; 96.3 before too, clonePaths' lines leaving with
# their cover), dispatch 96.4 (96.2 before; the cut, block-decode and
# view-bytes tests, and a dead nil-map guard in loadSnapshot gone).
# Both re-ratcheted to their measured figures, the same on three runs,
# when the boot lost its driver-ID map and its second fleet copy: sim
# 96.4 (NewOwned and CaptureState's sort scratch, fully covered),
# dispatch 96.5 (the dense driver table, its map for IDs outside the
# fleet's range covered by TestDriverTable and a restored sparse fleet).
check ./internal/sim 96.4
check ./dispatch 96.5
check ./internal/matching 98.5
# The oracle rail's solver stack, floored when the offline-optimum PR
# landed (lp 93.9, bound 94.1, offline 93.8 at the time; bound 94.7
# without its component fan-out, floor kept). Held when the
# arc-formulation MILP and lp's branch-and-bound were deleted: lp 94.4
# with direct tests of its range panics and unknown-value strings (92.6
# without them), bound 94.4. lp re-ratcheted to its measured 95.8, the
# same on every run, when it narrowed to one shape (Ax ≤ b, b ≥ 0, from
# the all-slack basis) and one entry point: phase 1, artificials and
# GE/EQ rows left with their partly covered lines (94.2 before).
# bound and offline re-ratcheted to their measured figures, the same on
# three runs, when the sparse oracle's incumbent came to read
# offline.Greedy's picks and the dense task map became bound's test
# code: bound 94.3 (94.8 before; the fully covered second greedy left),
# offline 95.4 (95.6 before; the dense-parity tests moved to bound, so
# offline's own tests no longer reach Path.Len, and the deleted
# Solution.Assignment took its covered lines).
check ./internal/lp 95.8
check ./internal/bound 94.3
check ./internal/offline 95.4
# The durability rail and the federation router, floored when the WAL +
# multi-market PR landed (wal 90.1, fed 97.2 at the time; the ≥90 bar
# is the PR's acceptance criterion). fed re-ratcheted to its measured
# 98.1, the same on eight runs and at GOMAXPROCS 1, when a failed
# rolling restart became retryable and SetService was deleted.
check ./internal/wal 90.0
check ./internal/fed 98.1
# The road-network distance rail and the surge pricer, floored when
# the roadnet-metric PR landed (roadnet 93.9, pricing 100.0 at the
# time; the ≥90 bar is the PR's acceptance criterion). roadnet
# re-ratcheted to 96.0 when the all-pairs table landed (96.9: the test
# seam that keeps kernels and cache on small graphs, plus the table's
# own tests; 96.3 before). Held when the hub-label tier was deleted
# (97.0), and when the hierarchy's six copies of its upward search
# folded into one side type and route moved onto chHeap (96.2–96.8
# across runs, from 96.6–97.1: the covered copies left, the uncovered
# guards stayed). Held when every snap-grid cell got its list of the
# nodes that can be nearest to a point in it (97.0, from 96.8):
# TestSnapMatchesScan alone covers the list build (buildLists) and both
# snap paths — the list of a point inside the box and the ring search of
# a point outside it (nearest, ring) — as do TestNearestNodeDifferential
# and TestSnappedFormsMatchReference. Re-ratcheted to 97.0 when the
# kernel tier went onto one mutex: 97.2 on every run, with no spread left
# now that the route cache has no coalescing path for colliding
# goroutines to reach (96.8 before TestCircuityAcrossTiers took Circuity
# onto the kernel tier).
check ./internal/roadnet 97.0
check ./internal/pricing 90.0
# The candidate index, floored when it learned the time (live, parked
# and expired entries; 98.6 at the time, what is left being the two
# id-space-overflow panics). Held through the cell walk (98.9): the
# cursor, its ring order and the cell aggregate are covered by this
# package's own tests, not only through sim. Held again when the two
# global queues gave way to per-cell regions (98.9): the
# expired-while-parked step, the unsorted leave and the insertion shift
# each have a named case in cell_test.go. Raised to 99.0 with the bulk
# Load (99.4): its hot-cell sort has TestLoadHotCell, its regions the
# fuzz op that reloads every id.
check ./internal/spatial 99.0
# The typed heap under the engine's event queue, TopRow's rows and the
# offline greedy, floored at its measured 100.0 when it replaced
# container/heap: its one test runs every function against
# container/heap, move for move.
check ./internal/heap 100.0
# The online choosers, floored at their measured 100.0 when MaxMargin
# became one rule — the first of the greatest positive margins, the
# rule of the margin rank's row of one — so that the contract the
# bounded instant path leans on is held by the package's own tests.
check ./internal/online 100.0
echo "coverage_check: all floors held"
