package dispatch_test

import (
	"context"
	"fmt"

	"repro/dispatch"
	"repro/internal/model"
	"repro/internal/trace"
)

// fleet and order carry a generated day into the public API's types.
func fleet(tr model.Trace) dispatch.Market {
	var m dispatch.Market
	for i, d := range tr.Drivers {
		m.Drivers = append(m.Drivers, dispatch.Driver{
			ID: i, Source: dispatch.Point(d.Source), Dest: dispatch.Point(d.Dest),
			Start: d.Start, End: d.End, SpeedKmh: d.SpeedKmh,
		})
	}
	return m
}

func order(i int, t model.Task) dispatch.Task {
	return dispatch.Task{
		ID: i, Publish: t.Publish, Source: dispatch.Point(t.Source), Dest: dispatch.Point(t.Dest),
		StartBy: t.StartBy, EndBy: t.EndBy, Price: t.Price, WTP: t.WTP,
	}
}

// A fleet of 20 commuting drivers is registered upfront; a day of 120
// orders is submitted one at a time, each answered before the next is
// placed; Close settles the books. The day runs once under each online
// policy, maxMargin (Algorithm 4) and Nearest (Algorithm 3).
func Example() {
	tr := trace.NewGenerator(trace.NewConfig(42, 120, 20, trace.Hitchhiking)).Generate(nil)
	ctx := context.Background()
	for _, policy := range []dispatch.Policy{dispatch.MaxMargin, dispatch.Nearest} {
		svc, err := dispatch.New(fleet(tr), dispatch.WithDispatcher(policy), dispatch.WithSeed(1))
		if err != nil {
			panic(err)
		}
		for i, t := range tr.Tasks {
			if _, err := svc.SubmitTask(ctx, order(i, t)); err != nil {
				panic(err)
			}
		}
		stats, err := svc.Close()
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-9v served %2d of %d, revenue %.2f, drivers' profit %.2f\n",
			policy, stats.Served, stats.Tasks, stats.Revenue, stats.Profit)
	}
	// Output:
	// maxmargin served 54 of 120, revenue 75.24, drivers' profit 65.19
	// nearest   served 56 of 120, revenue 78.79, drivers' profit 68.25
}

// The event feed, read by the one goroutine that drives the market. A
// rider asks to cancel every fifth assignment 30 s after it is made, and
// mid-day one driver retires and another joins. After Close the feed
// tallies to the books: every assigned order was served or cancelled.
func ExampleService_Subscribe() {
	tr := trace.NewGenerator(trace.NewConfig(7, 300, 60, trace.Hitchhiking)).Generate(nil)
	market := fleet(tr)
	svc, err := dispatch.New(market, dispatch.WithSeed(7))
	if err != nil {
		panic(err)
	}
	// The buffer holds every event of the day, so none is dropped; Close
	// closes the channel, so its cancel is not needed.
	feed, _ := svc.Subscribe(1024)
	ctx := context.Background()
	assigned := 0
	for i, t := range tr.Tasks {
		a, err := svc.SubmitTask(ctx, order(i, t))
		if err != nil {
			panic(err)
		}
		if a.Assigned {
			if assigned++; assigned%5 == 0 {
				if _, err := svc.CancelTask(ctx, i, a.DecidedAt+30); err != nil {
					panic(err)
				}
			}
		}
		if i == len(tr.Tasks)/2 {
			if err := svc.RetireDriver(ctx, 0, 0); err != nil {
				panic(err)
			}
			src := market.Drivers[0].Source
			if err := svc.AddDriver(ctx, dispatch.Driver{ID: 60, Source: src, Dest: src, End: 24 * 3600}); err != nil {
				panic(err)
			}
		}
	}
	stats, err := svc.Close()
	if err != nil {
		panic(err)
	}
	tally := map[dispatch.EventType]int{}
	for ev := range feed {
		tally[ev.Type]++
	}
	fmt.Printf("books: served %d, rejected %d, cancelled %d of %d orders, feed drops %d\n",
		stats.Served, stats.Rejected, stats.Cancelled, stats.Tasks, stats.FeedDrops)
	for _, typ := range []dispatch.EventType{dispatch.EventAssigned, dispatch.EventRejected,
		dispatch.EventCancelled, dispatch.EventDriverRetired, dispatch.EventDriverJoined} {
		fmt.Printf("%-14s %d\n", typ, tally[typ])
	}
	// Output:
	// books: served 157, rejected 106, cancelled 37 of 300 orders, feed drops 0
	// assigned       194
	// rejected       106
	// cancelled      37
	// driver_retired 1
	// driver_joined  1
}
