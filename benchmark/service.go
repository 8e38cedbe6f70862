package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/dispatch"
	"repro/internal/wal"
)

// books is the part of a run's outcome that must not depend on how fast
// or through which rail the day was driven.
type books struct {
	Tasks     int     `json:"tasks"`
	Served    int     `json:"served"`
	Rejected  int     `json:"rejected"`
	Cancelled int     `json:"cancelled"`
	Pending   int     `json:"pending"`
	Revenue   float64 `json:"revenue"`
	Profit    float64 `json:"profit"`
}

func booksOf(st dispatch.Stats) books {
	return books{st.Tasks, st.Served, st.Rejected, st.Cancelled, st.Pending, st.Revenue, st.Profit}
}

// balanced is the books identity every leg must satisfy.
func (b books) balanced() bool {
	return b.Served+b.Rejected+b.Cancelled+b.Pending == b.Tasks
}

func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// equal compares counts exactly and money to 1e-9 relative.
func (b books) equal(o books) bool {
	return b.Tasks == o.Tasks && b.Served == o.Served && b.Rejected == o.Rejected &&
		b.Cancelled == o.Cancelled && b.Pending == o.Pending &&
		relClose(b.Revenue, o.Revenue) && relClose(b.Profit, o.Profit)
}

// memDelta is the runtime's view of a timed region, read outside it
// (ReadMemStats stops the world).
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNs      uint64
	heapSysMB      float64
}

func memSince(before *runtime.MemStats) memDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memDelta{
		mallocs:   after.Mallocs - before.Mallocs,
		bytes:     after.TotalAlloc - before.TotalAlloc,
		gcCycles:  after.NumGC - before.NumGC,
		gcPauseNs: after.PauseTotalNs - before.PauseTotalNs,
		heapSysMB: float64(after.HeapSys) / (1 << 20),
	}
}

// runResult is everything one run of a workload yields when observed
// from outside the program under test.
type runResult struct {
	setupS float64
	wallS  float64 // first operation to Close returned, the restore included
	orders int     // orders the throughput is over

	// stepNs is the wall time of every timed step of the run, in the
	// order the day fixes: each operation, the Restore, the Close (over
	// HTTP: each round trip, then the arrival of each further hundred
	// answers). The same seed gives the same steps doing the same work in
	// every rep, which is what lets the untraced pass take each step's
	// time from the rep the host disturbed least.
	stepNs   []int64
	decide   []int // indices into stepNs of the steps that produced decisions
	tputFrom int   // first step that counts towards throughput

	submitNs int64 // total time inside SubmitTask
	submits  int
	closeMs  float64
	stallMs  float64 // slowest call that closed no window (durable: a snapshot cut)

	feedEvents, feedDrops int

	restoreS       float64
	restoreRecords int
	recoverMs      float64
	walBytes       int64 // log directory at Halt
	walOrders      int   // orders journaled by then
	wal            walShape

	books     books
	mem       memDelta
	attempted int
	failed    int
	errs      []string // failed checks
}

func (r *runResult) failf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// step files one timed step and whether it produced decisions.
func (r *runResult) step(d time.Duration, decided bool) {
	if decided {
		r.decide = append(r.decide, len(r.stepNs))
	}
	r.stepNs = append(r.stepNs, int64(d))
}

// decideMs is one latency sample per step that produced decisions.
func (r *runResult) decideMs() []float64 {
	ms := make([]float64, len(r.decide))
	for i, s := range r.decide {
		ms[i] = float64(r.stepNs[s]) / 1e6
	}
	return ms
}

// feedWatch drains a batched service's event feed after every call, so
// the call that closed a window — the one its riders waited for — is
// identified by the batch_closed entry it published.
type feedWatch struct {
	ch        <-chan dispatch.Event
	decisions []uint8 // per order
	events    int
	drops     int
	closed    bool // a window closed since the last reset
}

// feedBuffer holds every event one call can publish: a window's
// pending acks and decisions. Windows here hold tens of orders.
const feedBuffer = 1 << 14

func watchFeed(svc *dispatch.Service, orders int, prev *feedWatch) *feedWatch {
	ch, _ := svc.Subscribe(feedBuffer)
	fw := &feedWatch{ch: ch, decisions: make([]uint8, orders)}
	if prev != nil {
		fw.decisions, fw.events, fw.drops = prev.decisions, prev.events, prev.drops
	}
	return fw
}

func (fw *feedWatch) note(ev dispatch.Event) {
	fw.events++
	switch ev.Type {
	case dispatch.EventAssigned, dispatch.EventRejected:
		fw.decisions[ev.TaskID]++
	case dispatch.EventBatchClosed:
		fw.closed = true
	case dispatch.EventGap:
		fw.drops += ev.Dropped
	}
}

// poll takes what the last call published, without blocking.
func (fw *feedWatch) poll() {
	for {
		select {
		case ev, ok := <-fw.ch:
			if !ok {
				return
			}
			fw.note(ev)
		default:
			return
		}
	}
}

// drain reads until the service closes the channel (Close, Halt).
func (fw *feedWatch) drain() {
	for ev := range fw.ch {
		fw.note(ev)
	}
}

// library is one fresh service ready for its first order.
type library struct {
	svc     *dispatch.Service
	fw      *feedWatch // batched markets only
	logDir  string     // durable markets only
	durOpts []dispatch.DurOption
	setupS  float64
	cleanup func()
}

// setUp does what a rep pays before its first order: the fleet
// generated as `serve` generates it, dispatch.New (road graph and CH
// build, WAL create and init record) and the feed subscription.
func setUp(d *day, durable bool) (*library, error) {
	runtime.GC()
	l := &library{cleanup: func() {}}
	t0 := time.Now()
	opts := d.options()
	if durable {
		dir, err := os.MkdirTemp("", "bench-wal-")
		if err != nil {
			return nil, err
		}
		l.cleanup = func() { os.RemoveAll(dir) }
		l.durOpts = []dispatch.DurOption{dispatch.DurFsync("interval")}
		l.logDir = filepath.Join(dir, "log")
		opts = append(opts, dispatch.WithDurability(l.logDir, l.durOpts...))
	}
	svc, err := dispatch.New(d.market(generateFleet(d.seed, d.w.drivers)), opts...)
	if err != nil {
		l.cleanup()
		return nil, err
	}
	l.svc = svc
	if d.w.window > 0 {
		l.fw = watchFeed(svc, len(d.pub), nil)
	}
	l.setupS = time.Since(t0).Seconds()
	return l, nil
}

// timeSetup sets the workload's market up once more and tears it down
// unused: an extra sample for setup_s.
func timeSetup(d *day) (float64, error) {
	if d.w.http {
		m, err := openMarket(d, nil)
		if err != nil {
			return 0, err
		}
		m.svc.Close()
		return m.setupS, m.shutdown()
	}
	l, err := setUp(d, d.w.durable)
	if err != nil {
		return 0, err
	}
	defer l.cleanup()
	_, err = l.svc.Close()
	return l.setupS, err
}

// runLibrary drives the day through a fresh dispatch.Service as a
// closed loop with one submitter. durable selects the WAL rail with
// the halt-and-restore at 90 %; the same day without it is the
// in-memory baseline the traced pass compares against.
func runLibrary(d *day, durable bool) (res *runResult) {
	res = &runResult{orders: len(d.pub)}
	ctx := context.Background()
	batched := d.w.window > 0

	l, err := setUp(d, durable)
	if err != nil {
		res.failf("set-up: %v", err)
		return res
	}
	defer l.cleanup()
	svc, fw, logDir, durOpts := l.svc, l.fw, l.logDir, l.durOpts
	res.setupS = l.setupS

	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	// apply times each operation and files its latency: on an instant
	// market every submission is a decision; on a batched one the call
	// that drained a window close is.
	apply := func(svc *dispatch.Service, ops []op) {
		for _, o := range ops {
			var err error
			start := time.Now()
			switch o.kind {
			case opSubmit:
				_, err = svc.SubmitTask(ctx, d.pub[o.idx])
			case opCancel:
				_, err = svc.CancelTask(ctx, o.idx, o.at)
			case opRetire:
				err = svc.RetireDriver(ctx, o.idx, o.at)
			}
			dur := time.Since(start)
			res.attempted++
			if err != nil {
				res.failed++
				if len(res.errs) < 5 {
					res.failf("operation %d: %v", res.attempted, err)
				}
			}
			decided := o.kind == opSubmit && !batched
			if o.kind == opSubmit {
				res.submitNs += int64(dur)
				res.submits++
			}
			if fw != nil {
				fw.poll()
				decided, fw.closed = fw.closed, false
			}
			res.step(dur, decided)
			if ms := float64(dur) / 1e6; !decided && ms > res.stallMs {
				res.stallMs = ms
			}
		}
	}

	start := time.Now()
	var paused time.Duration // probing the halted log is not part of the day
	if durable {
		cut := int(haltAt * float64(len(d.ops)))
		apply(svc, d.ops[:cut])
		halted, err := svc.Halt()
		if err != nil {
			res.failf("Halt: %v", err)
			return res
		}
		fw.drain()
		pauseStart := time.Now()
		res.walBytes = dirBytes(logDir)
		res.walOrders = halted.Tasks
		recStart := time.Now()
		rec, err := wal.Recover(logDir)
		res.recoverMs = float64(time.Since(recStart)) / 1e6
		if err != nil {
			res.failf("wal.Recover: %v", err)
			return res
		}
		if rec.TornTail {
			res.failf("wal.Recover reports a torn tail after a clean Halt")
		}
		res.restoreRecords = len(rec.Records)
		res.wal = walShapeOf(logDir, rec)
		paused = time.Since(pauseStart)

		rs := time.Now()
		svc, err = dispatch.Restore(logDir, durOpts...)
		restore := time.Since(rs)
		res.restoreS = restore.Seconds()
		res.step(restore, false)
		if err != nil {
			res.failf("Restore: %v", err)
			return res
		}
		fw = watchFeed(svc, len(d.pub), fw)
		restored, err := svc.Snapshot(ctx)
		if err != nil || !booksOf(restored).equal(booksOf(halted)) {
			res.failf("Restore did not replay every record: halted %+v, restored %+v (%v)",
				booksOf(halted), booksOf(restored), err)
		}
		apply(svc, d.ops[cut:])
	} else {
		apply(svc, d.ops)
	}
	closeStart := time.Now()
	final, err := svc.Close()
	end := time.Now()
	res.attempted++
	if err != nil {
		res.failed++
		res.failf("Close: %v", err)
	}
	res.closeMs = float64(end.Sub(closeStart)) / 1e6
	res.wallS = (end.Sub(start) - paused).Seconds()
	res.mem = memSince(&before)

	if fw != nil {
		fw.drain()
	}
	res.step(end.Sub(closeStart), fw != nil && fw.closed) // Close decides the last open window
	if fw != nil {
		res.feedEvents, res.feedDrops = fw.events, fw.drops+final.FeedDrops
		// Every order gets exactly one decision, except those withdrawn
		// while still waiting in their window, which get none. (A restore
		// replays decisions no subscriber can see, so that run is exempt.)
		twice, undecided := 0, 0
		for _, n := range fw.decisions {
			if n > 1 {
				twice++
			} else if n == 0 {
				undecided++
			}
		}
		if durable {
			undecided = 0
		}
		if res.feedDrops != 0 || twice != 0 || undecided > final.Cancelled {
			res.failf("feed: %d drops, %d orders decided twice, %d undecided with %d cancelled",
				res.feedDrops, twice, undecided, final.Cancelled)
		}
	}
	res.books = booksOf(final)
	if !res.books.balanced() {
		res.failf("books do not balance: %+v", res.books)
	}
	if res.books.Tasks != len(d.pub) || res.books.Pending != 0 {
		res.failf("settled %d of %d orders, %d pending", res.books.Tasks, len(d.pub), res.books.Pending)
	}
	return res
}

// dirBytes sums the file sizes under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
