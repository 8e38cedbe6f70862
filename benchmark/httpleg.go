package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/dispatch"
	"repro/internal/fed"
)

// orderHeader carries the order id to the handler middleware of the
// traced pass, so a handler span finds its round-trip span.
const orderHeader = "X-Bench-Order"

// market is one in-process `serve`: a fresh service behind
// fed.MarketHandler on a loopback listener, and a client holding
// exactly httpConns keep-alive connections.
type httpMarket struct {
	svc    *dispatch.Service
	srv    *http.Server
	served chan error
	done   chan struct{}
	client *http.Client
	url    string
	setupS float64 // until the first order can be sent
}

// handlerStats is what the traced pass's middleware sees: one
// fed.handler span per request, and the request bytes.
type handlerStats struct {
	tr       *tracer
	reqBytes atomic.Int64
}

func (h *handlerStats) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := h.tr.now()
		next.ServeHTTP(w, r)
		end := h.tr.now()
		order, _ := strconv.Atoi(r.Header.Get(orderHeader))
		h.tr.add("fed.handler", order, start, end)
		h.reqBytes.Add(r.ContentLength)
	})
}

func openMarket(d *day, hs *handlerStats) (*httpMarket, error) {
	runtime.GC()
	t0 := time.Now()
	svc, err := dispatch.New(d.market(generateFleet(d.seed, d.w.drivers)), d.options()...)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	m := &httpMarket{svc: svc, served: make(chan error, 1), done: make(chan struct{}), url: "http://" + ln.Addr().String() + "/v1/tasks"}
	handler := fed.MarketHandler(svc, m.done)
	if hs != nil {
		handler = hs.wrap(handler)
	}
	m.srv = &http.Server{Handler: handler}
	go func() { m.served <- m.srv.Serve(ln) }()
	m.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: httpConns, MaxIdleConnsPerHost: httpConns, MaxConnsPerHost: httpConns,
	}}
	m.setupS = time.Since(t0).Seconds()
	return m, nil
}

// shutdown stops the listener and waits for the server goroutine.
func (m *httpMarket) shutdown() error {
	close(m.done)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := m.srv.Shutdown(ctx)
	if err != nil {
		m.srv.Close()
	}
	<-m.served
	m.client.CloseIdleConnections()
	return err
}

// phase is one stretch of HTTP load and what the client saw.
type phase struct {
	wallS     float64
	rttMs     []float64 // per order sent; open loop: from the order's due time
	doneNs    []int64   // per order sent: when its answer had been read, from the start
	lagMsMax  float64   // how late the generator sent, at worst
	respBytes int64
	non2xx    int
	s429      int
	s5xx      int
	errs      int
}

// drive posts orders [from, to) over httpConns client goroutines. With
// rate > 0 the loop is open: order i is due at start + i/rate whatever
// happened to the ones before it, and its latency counts from then.
// With rate 0 each goroutine sends its next order when the previous
// answer arrives.
func (m *httpMarket) drive(d *day, from, to int, rate float64, tr *tracer) phase {
	ph := phase{rttMs: make([]float64, to-from), doneNs: make([]int64, to-from)}
	var mu sync.Mutex
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < httpConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lagMax float64
			var respBytes int64
			var non2xx, s429, s5xx, errs int
			for {
				i := int(next.Add(1)) - 1
				if i >= to {
					break
				}
				sent := time.Now()
				due := sent
				if rate > 0 {
					due = start.Add(time.Duration(float64(i-from) / rate * float64(time.Second)))
					if wait := due.Sub(sent); wait > 0 {
						time.Sleep(wait)
					}
					sent = time.Now()
					if lag := float64(sent.Sub(due)) / 1e6; lag > lagMax {
						lagMax = lag
					}
				}
				req, err := http.NewRequest(http.MethodPost, m.url, bytes.NewReader(d.bodies[i]))
				if err != nil {
					errs++
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				if tr != nil {
					req.Header.Set(orderHeader, strconv.Itoa(i))
				}
				resp, err := m.client.Do(req)
				if err != nil {
					errs++
					continue
				}
				n, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				done := time.Now()
				respBytes += n
				switch {
				case resp.StatusCode == http.StatusTooManyRequests:
					s429++
				case resp.StatusCode >= 500:
					s5xx++
				}
				if resp.StatusCode/100 != 2 {
					non2xx++
				}
				// Slot i-from is this goroutine's alone.
				ph.rttMs[i-from] = float64(done.Sub(due)) / 1e6
				ph.doneNs[i-from] = int64(done.Sub(start))
				if tr != nil {
					tr.add("http.roundtrip", i, int64(sent.Sub(tr.epoch)), int64(done.Sub(tr.epoch)))
				}
			}
			mu.Lock()
			ph.lagMsMax = max(ph.lagMsMax, lagMax)
			ph.respBytes += respBytes
			ph.non2xx += non2xx
			ph.s429 += s429
			ph.s5xx += s5xx
			ph.errs += errs
			mu.Unlock()
		}()
	}
	wg.Wait()
	ph.wallS = time.Since(start).Seconds()
	return ph
}

// httpResult extends a run with what only the HTTP leg has.
type httpResult struct {
	runResult
	open, closedLoop phase
}

// runHTTP is the http_instant day: every order posted as a closed loop
// over the two connections of one market. The traced pass (hs != nil)
// first sends openOrders of them as an open loop at openRate over the
// same connections: the latency-at-rate point the host cannot hold
// steady enough for a bound.
func runHTTP(d *day, hs *handlerStats) *httpResult {
	res := &httpResult{}
	m, err := openMarket(d, hs)
	if err != nil {
		res.failf("opening market: %v", err)
		return res
	}
	res.setupS = m.setupS

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	from := 0
	var tr *tracer
	if hs != nil {
		tr = hs.tr
		from = min(openOrders, len(d.pub)/2)
		res.open = m.drive(d, 0, from, openRate, tr)
	}
	res.orders = len(d.pub) - from // throughput is the closed loop's
	res.closedLoop = m.drive(d, from, len(d.pub), 0, tr)
	closeStart := time.Now()
	final, cerr := m.svc.Close()
	res.closeMs = float64(time.Since(closeStart)) / 1e6
	res.wallS = res.closedLoop.wallS + res.closeMs/1e3
	res.mem = memSince(&before)
	if err := m.shutdown(); err != nil {
		res.failf("server shutdown: %v", err)
	}
	if cerr != nil {
		res.failf("Close: %v", cerr)
	}

	// Steps: each closed-loop round trip (the decisions); then, for the
	// throughput, the time every further sliceOrders answers took to
	// arrive — the connections overlap, so round trips do not add up to
	// the wall time — and Close.
	for _, ms := range res.closedLoop.rttMs {
		res.step(time.Duration(ms*1e6), true)
	}
	res.tputFrom = len(res.stepNs)
	done := slices.Clone(res.closedLoop.doneNs)
	slices.Sort(done)
	var last int64
	for i := sliceOrders; i < len(done); i += sliceOrders {
		res.step(time.Duration(done[i-1]-last), false)
		last = done[i-1]
	}
	res.step(time.Duration(int64(res.closedLoop.wallS*1e9)-last), false)
	res.step(time.Duration(res.closeMs*1e6), false)
	res.attempted = len(d.pub)
	for _, ph := range []phase{res.open, res.closedLoop} {
		res.failed += ph.non2xx + ph.errs
	}
	res.books = booksOf(final)
	if !res.books.balanced() {
		res.failf("books do not balance: %+v", res.books)
	}
	if res.failed != 0 || res.books.Tasks != len(d.pub) {
		res.failf("http: %d of %d requests failed or were refused, service registered %d orders",
			res.failed, len(d.pub), res.books.Tasks)
	}
	return res
}

// openLoopAt measures one extra open-loop stretch at the given rate on
// a fresh market: the traced pass's latency-at-rate points.
func openLoopAt(d *day, rate float64, orders int) (phase, error) {
	m, err := openMarket(d, nil)
	if err != nil {
		return phase{}, err
	}
	ph := m.drive(d, 0, orders, rate, nil)
	m.svc.Close()
	if err := m.shutdown(); err != nil {
		return ph, err
	}
	if ph.non2xx+ph.errs > 0 {
		return ph, fmt.Errorf("open loop at %.0f/s: %d requests failed", rate, ph.non2xx+ph.errs)
	}
	return ph, nil
}
