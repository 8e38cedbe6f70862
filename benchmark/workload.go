package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/dispatch"
	"repro/internal/model"
	"repro/internal/trace"
)

// workload is one fixed input shape. Names, fleet sizes and
// configurations are part of the benchmark's definition (later issues
// cite them); only order counts were scaled to the run-time budget.
type workload struct {
	name    string
	drivers int
	orders  int
	window  float64               // batch window in seconds, 0 = instant MaxMargin
	roadnet *dispatch.RoadNetwork // nil = crow-fly
	churn   bool                  // joins, retirements and cancellations ride along
	durable bool                  // WAL on, halt + restore at 90 % of the day
	http    bool                  // driven over loopback HTTP instead of the library
}

const (
	shards      = 2     // WithShards everywhere: 1 is the O(N) scan
	batchWindow = 60.0  // seconds
	haltAt      = 0.9   // durable_churn: fraction of operations before Halt
	openRate    = 1000. // http_instant, traced pass: open loop, orders/s
	openOrders  = 1000  // and how many orders it sends (half the day at smoke size)
	httpConns   = 2     // keep-alive connections and client goroutines
	sliceOrders = 100   // http_instant: answers per throughput step
)

// workloads returns the five fixed workloads, or their sub-second
// smoke sizes (same shapes, hundreds of drivers and orders).
func workloads(smoke bool) []workload {
	ws := []workload{
		{name: "instant_50k", drivers: 50000, orders: 1000},
		{name: "batched_network", drivers: 10000, orders: 1200, window: batchWindow,
			roadnet: &dispatch.RoadNetwork{}},
		{name: "network_large", drivers: 5000, orders: 500, window: batchWindow,
			roadnet: &dispatch.RoadNetwork{Rows: 60, Cols: 72}},
		{name: "durable_churn", drivers: 10000, orders: 4000, window: batchWindow,
			churn: true, durable: true},
		{name: "http_instant", drivers: 2000, orders: 4000, http: true},
	}
	if smoke {
		for i := range ws {
			ws[i].drivers, ws[i].orders = 300, 420
			if ws[i].roadnet != nil && ws[i].roadnet.Rows > 0 {
				// The 60x72 graph takes most of a second to preprocess.
				ws[i].roadnet = &dispatch.RoadNetwork{Rows: 24, Cols: 30}
			}
		}
	}
	return ws
}

type opKind uint8

const (
	opSubmit opKind = iota
	opCancel
	opRetire
)

// op is one externally injected operation of the day.
type op struct {
	kind opKind
	at   float64
	idx  int // task index (submit, cancel) or driver index (retire)
}

// day is a workload's generated input: everything below derives from
// the seed alone, and the program under test sees nothing else.
type day struct {
	w      workload
	seed   int64
	fleet  []model.Driver
	joinAt map[int]float64
	tasks  []model.Task
	pub    []dispatch.Task
	bodies [][]byte // JSON request bodies, http leg only
	ops    []op     // canonical order: time, then retire < cancel < submit
}

// generateFleet builds the fleet exactly as `rideshare serve` does; it
// is part of every rep's timed set-up.
func generateFleet(seed int64, drivers int) []model.Driver {
	return trace.NewGenerator(trace.NewConfig(seed, 1, drivers, trace.Hitchhiking)).GenerateDrivers()
}

func generateDay(w workload, seed int64) (*day, error) {
	d := &day{w: w, seed: seed, fleet: generateFleet(seed, w.drivers), joinAt: map[int]float64{}}
	// The order stream has its own generator so the fleet above is
	// byte-identical to what the timed set-up regenerates.
	d.tasks = trace.NewGenerator(trace.NewConfig(seed+1, w.orders, 1, trace.Hitchhiking)).Generate(nil).Tasks
	d.pub = make([]dispatch.Task, len(d.tasks))
	for i, t := range d.tasks {
		d.tasks[i].ID = i // spans carry it as the order id
		d.pub[i] = dispatch.Task{
			ID: i, Publish: t.Publish, Source: dispatch.Point(t.Source), Dest: dispatch.Point(t.Dest),
			StartBy: t.StartBy, EndBy: t.EndBy, Price: t.Price, WTP: t.WTP,
		}
		d.ops = append(d.ops, op{kind: opSubmit, at: t.Publish, idx: i})
	}
	if w.churn {
		events := trace.WithChurn(model.Trace{Drivers: d.fleet, Tasks: d.tasks}, trace.DefaultChurn(seed, 0.2, 0.15))
		for _, ev := range events {
			switch ev.Kind {
			case model.EventJoin:
				d.joinAt[ev.Driver] = ev.At
			case model.EventRetire:
				d.ops = append(d.ops, op{kind: opRetire, at: ev.At, idx: ev.Driver})
			case model.EventCancel:
				d.ops = append(d.ops, op{kind: opCancel, at: ev.At, idx: ev.Task})
			}
		}
	}
	rank := [...]int{opSubmit: 2, opCancel: 1, opRetire: 0}
	sort.SliceStable(d.ops, func(a, b int) bool {
		if d.ops[a].at != d.ops[b].at {
			return d.ops[a].at < d.ops[b].at
		}
		return rank[d.ops[a].kind] < rank[d.ops[b].kind]
	})
	if w.http {
		d.bodies = make([][]byte, len(d.pub))
		for i := range d.pub {
			b, err := json.Marshal(d.pub[i])
			if err != nil {
				return nil, fmt.Errorf("encoding order %d: %w", i, err)
			}
			d.bodies[i] = b
		}
	}
	return d, nil
}

// market converts a fleet to the public type, index as ID, churn joins
// riding in as JoinAt.
func (d *day) market(fleet []model.Driver) dispatch.Market {
	m := dispatch.Market{Drivers: make([]dispatch.Driver, len(fleet))}
	for i, f := range fleet {
		m.Drivers[i] = dispatch.Driver{
			ID: i, Source: dispatch.Point(f.Source), Dest: dispatch.Point(f.Dest),
			Start: f.Start, End: f.End, SpeedKmh: f.SpeedKmh, JoinAt: d.joinAt[i],
		}
	}
	return m
}

// options is the service configuration of the workload, minus
// durability (which needs a directory per run).
func (d *day) options() []dispatch.Option {
	opts := []dispatch.Option{dispatch.WithShards(shards), dispatch.WithMatchWorkers(1), dispatch.WithSeed(1)}
	if !d.w.http {
		// One submitter in Publish order: strict times keep the books
		// deterministic. Two HTTP connections can reorder, so that leg
		// lets late orders be processed at the current time.
		opts = append(opts, dispatch.WithStrictTimes())
	}
	if d.w.window > 0 {
		opts = append(opts, dispatch.WithBatching(d.w.window, dispatch.Hungarian))
	} else {
		opts = append(opts, dispatch.WithDispatcher(dispatch.MaxMargin))
	}
	if d.w.roadnet != nil {
		opts = append(opts, dispatch.WithRoadNetwork(*d.w.roadnet))
	}
	return opts
}
