// Streamserve: the open-loop market end to end, in process. A
// dispatch.Service is opened over a morning fleet; then four actors run
// against it concurrently, the way live traffic actually arrives —
//
//   - riders submitting orders in publish order,
//   - a fleet desk retiring drivers early and announcing replacements,
//   - fickle riders cancelling a slice of assigned orders before pickup,
//   - an operations dashboard following the assignment-event feed.
//
// Everything the actors see — instant assignments, revocations, churn —
// streams out of the same event-driven core the batch experiments use,
// and the closing books balance to the task exactly.
//
// Run with:
//
//	go run ./examples/streamserve
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"

	"repro/dispatch"
	"repro/internal/trace"
)

func main() {
	const (
		drivers = 150
		orders  = 600
	)
	cfg := trace.NewConfig(7, orders, drivers, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)

	market := dispatch.Market{}
	for i, d := range tr.Drivers {
		market.Drivers = append(market.Drivers, dispatch.Driver{
			ID: i, Source: dispatch.Point(d.Source), Dest: dispatch.Point(d.Dest),
			Start: d.Start, End: d.End, SpeedKmh: d.SpeedKmh,
		})
	}
	svc, err := dispatch.New(market,
		dispatch.WithDispatcher(dispatch.MaxMargin),
		dispatch.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}

	// Operations dashboard: tally the feed while the market runs.
	feed, unsubscribe := svc.Subscribe(4096)
	defer unsubscribe()
	tally := make(map[dispatch.EventType]int)
	var dashboard sync.WaitGroup
	dashboard.Add(1)
	go func() {
		defer dashboard.Done()
		for ev := range feed {
			tally[ev.Type]++
		}
	}()

	ctx := context.Background()
	var wg sync.WaitGroup

	// Riders: submit the day's orders in publish order, cancelling 15%
	// of assignments moments later.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i, t := range tr.Tasks {
			a, err := svc.SubmitTask(ctx, dispatch.Task{
				ID: i, Publish: t.Publish, Source: dispatch.Point(t.Source), Dest: dispatch.Point(t.Dest),
				StartBy: t.StartBy, EndBy: t.EndBy, Price: t.Price, WTP: t.WTP,
			})
			if err != nil {
				log.Fatalf("submit %d: %v", i, err)
			}
			if a.Assigned && rng.Float64() < 0.15 {
				if _, err := svc.CancelTask(ctx, i, a.DecidedAt+30); err != nil {
					log.Fatalf("cancel %d: %v", i, err)
				}
			}
		}
	}()

	// Fleet desk: every so often one driver calls it a day and a fresh
	// one is announced in her place.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 10; k++ {
			victim := k * 7 % drivers
			if err := svc.RetireDriver(ctx, victim, 0); err != nil {
				log.Fatalf("retire %d: %v", victim, err)
			}
			src := market.Drivers[victim].Source
			if err := svc.AddDriver(ctx, dispatch.Driver{
				ID: drivers + k, Source: src, Dest: src,
				Start: 0, End: 24 * 3600,
			}); err != nil {
				log.Fatalf("announce %d: %v", drivers+k, err)
			}
		}
	}()

	wg.Wait()
	snap, err := svc.Snapshot(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mid-day snapshot: t=%.0fs, %d/%d drivers present, %d orders in\n",
		snap.Now, snap.PresentDrivers, snap.Drivers, snap.Tasks)

	stats, err := svc.Close()
	if err != nil {
		log.Fatal(err)
	}
	dashboard.Wait()

	fmt.Printf("final books:      served %d, rejected %d, cancelled %d (of %d orders)\n",
		stats.Served, stats.Rejected, stats.Cancelled, stats.Tasks)
	fmt.Printf("                  revenue %.2f, drivers' profit %.2f\n", stats.Revenue, stats.Profit)
	fmt.Printf("event feed:       %d assigned, %d rejected, %d cancelled, %d joins, %d retirements\n",
		tally[dispatch.EventAssigned], tally[dispatch.EventRejected], tally[dispatch.EventCancelled],
		tally[dispatch.EventDriverJoined], tally[dispatch.EventDriverRetired])
	if stats.Served+stats.Rejected+stats.Cancelled != stats.Tasks {
		log.Fatal("books do not balance")
	}
	fmt.Println("books balance: served + rejected + cancelled == submitted ✓")
}
