package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/spatial"
	"repro/internal/wal"
)

// Probes call one layer's public functions directly, on inputs taken
// from the workload, to price what the decorators can only count.

// sink keeps probed results alive so the calls are not optimised away.
var sink float64

// probeGeo returns the mean cost of one crow-fly distance, in ns, over
// pickup-to-driver pairs of the day.
func probeGeo(d *day) float64 {
	const calls = 1 << 18
	start := time.Now()
	for i := 0; i < calls; i++ {
		sink += geo.Equirectangular(d.tasks[i%len(d.tasks)].Source, d.fleet[i%len(d.fleet)].Source)
	}
	return float64(time.Since(start)) / calls
}

// probeSpatial runs the reachability query the candidate sources issue,
// for every pickup of the day (at most maxQueries), against one index
// over the opening fleet. It returns the mean query time in µs and the
// mean number of drivers visited.
func probeSpatial(d *day) (usMean, visitedMean float64) {
	const maxQueries = 2000
	box := geo.BoundingBox{MinLat: math.Inf(1), MinLon: math.Inf(1), MaxLat: math.Inf(-1), MaxLon: math.Inf(-1)}
	locs := make([]geo.Point, len(d.fleet))
	speed := 30.0
	for i, f := range d.fleet {
		locs[i] = f.Source
		box.MinLat, box.MaxLat = math.Min(box.MinLat, f.Source.Lat), math.Max(box.MaxLat, f.Source.Lat)
		box.MinLon, box.MaxLon = math.Min(box.MinLon, f.Source.Lon), math.Max(box.MaxLon, f.Source.Lon)
		speed = math.Max(speed, f.SpeedKmh)
	}
	// Two drivers per cell, as the sources size their own grids.
	dim := min(512, max(1, int(math.Ceil(math.Sqrt(float64(len(locs))/2)))))
	ix := spatial.NewIndex(geo.NewGrid(box, dim, dim), locs)
	for i, f := range d.fleet {
		ix.SetSpan(i, f.Start, f.End)
	}
	n := min(len(d.tasks), maxQueries)
	visited := 0
	start := time.Now()
	for _, t := range d.tasks[:n] {
		ix.NearReachable(t.Source, speed, t.StartBy, t.Publish, t.EndBy, func(int) { visited++ })
	}
	return float64(time.Since(start)) / 1e3 / float64(n), float64(visited) / float64(n)
}

// probeRoadnet prices the two halves of a network distance on a fresh
// router: snapping a point to its node, and a point-to-point query
// whose node pair the cache has not seen.
func probeRoadnet(d *day, r *roadnet.Router) (nearestNs, coldNs float64) {
	const snaps = 20000
	start := time.Now()
	for i := 0; i < snaps; i++ {
		sink += float64(r.NearestNode(d.tasks[i%len(d.tasks)].Source))
	}
	nearestNs = float64(time.Since(start)) / snaps

	// The same pairs twice: the first sweep misses the cache, the second
	// hits it, and the snaps cost the same in both.
	pairs := d.tasks[:min(len(d.tasks), 1000)]
	sweep := func() float64 {
		start := time.Now()
		for _, t := range pairs {
			sink += r.Dist(t.Source, t.Dest)
		}
		return float64(time.Since(start))
	}
	r.ResetCacheStats()
	cold := sweep()
	_, misses, _ := r.CacheStats()
	warm := sweep()
	if misses == 0 {
		return nearestNs, 0
	}
	return nearestNs, math.Max(0, cold-warm) / float64(misses)
}

// walShape is what a halted log directory looks like from outside.
type walShape struct {
	records       int // LSNs assigned so far
	segments      int
	snapshots     int
	snapshotBytes int64
	payloads      [][]byte // the recovered suffix, for the append probe
}

func walShapeOf(dir string, rec *wal.Recovery) walShape {
	sh := walShape{records: int(rec.NextLSN)}
	for _, r := range rec.Records {
		sh.payloads = append(sh.payloads, r.Data)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		switch {
		case strings.HasSuffix(e.Name(), ".wal"):
			sh.segments++
		case strings.HasSuffix(e.Name(), ".snap"):
			sh.snapshots++
			if info, err := e.Info(); err == nil {
				sh.snapshotBytes += info.Size()
			}
		}
	}
	return sh
}

// probeWAL re-appends recovered payloads to a fresh log under the
// options the service used, timing Append and an explicit Sync every
// syncEvery records.
func probeWAL(payloads [][]byte) (appendUs, syncUs float64, err error) {
	const syncEvery = 256
	if len(payloads) == 0 {
		return 0, 0, nil
	}
	dir, err := os.MkdirTemp("", "bench-walprobe-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	lg, err := wal.Create(filepath.Join(dir, "log"), wal.Options{Fsync: wal.FsyncInterval})
	if err != nil {
		return 0, 0, err
	}
	defer lg.Close()
	var appendNs, syncNs int64
	syncs := 0
	for i, p := range payloads {
		start := time.Now()
		if _, err := lg.Append(p); err != nil {
			return 0, 0, err
		}
		appendNs += int64(time.Since(start))
		if (i+1)%syncEvery == 0 {
			start = time.Now()
			if err := lg.Sync(); err != nil {
				return 0, 0, err
			}
			syncNs += int64(time.Since(start))
			syncs++
		}
	}
	if syncs > 0 {
		syncUs = float64(syncNs) / 1e3 / float64(syncs)
	}
	return float64(appendNs) / 1e3 / float64(len(payloads)), syncUs, nil
}

// fsTypeOf names the filesystem holding dir, from /proc/mounts.
func fsTypeOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > len(best) {
			best, fs = mnt, f[2]
		}
	}
	return fs
}
