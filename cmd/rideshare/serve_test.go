package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/dispatch"
	"repro/internal/fed"
	"repro/internal/trace"
)

// newTestServer starts the HTTP API over a synthetic fleet, behind the
// same limits `serve` and `router` listen with, and returns the server
// plus the service behind it.
func newTestServer(t *testing.T, drivers int, opts ...dispatch.Option) (*httptest.Server, *dispatch.Service) {
	t.Helper()
	cfg := trace.NewConfig(17, 1, drivers, trace.Hitchhiking)
	m := dispatch.Market{}
	for i, d := range trace.NewGenerator(cfg).GenerateDrivers() {
		m.Drivers = append(m.Drivers, dispatch.Driver{
			ID: i, Source: dispatch.Point(d.Source), Dest: dispatch.Point(d.Dest),
			Start: d.Start, End: d.End, SpeedKmh: d.SpeedKmh,
		})
	}
	svc, err := dispatch.New(m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHTTPServer("", fed.MarketHandler(svc, nil)).Handler)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { svc.Close() })
	return srv, svc
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp.StatusCode
}

// TestServeEndToEnd exercises every endpoint of the HTTP API against a
// live server: health, submission, cancellation with revocation,
// driver churn, stats, and the SSE event feed.
func TestServeEndToEnd(t *testing.T) {
	srv, _ := newTestServer(t, 40, dispatch.WithSeed(2))
	client := &http.Client{}

	var health struct {
		Status  string `json:"status"`
		Drivers int    `json:"drivers"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != 200 || health.Status != "ok" || health.Drivers != 40 {
		t.Fatalf("healthz: %d %+v", code, health)
	}

	// Open the event feed before generating traffic.
	feedResp, err := http.Get(srv.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer feedResp.Body.Close()
	feedLines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(feedResp.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "data: ") {
				feedLines <- strings.TrimPrefix(line, "data: ")
			}
		}
		close(feedLines)
	}()

	// Submit a servable order.
	cfg := trace.NewConfig(99, 50, 40, trace.Hitchhiking)
	tasks := trace.NewGenerator(cfg).Generate(nil).Tasks
	sort.Slice(tasks, func(a, b int) bool { return tasks[a].Publish < tasks[b].Publish })
	var first dispatch.Assignment
	var firstID int
	for i, mt := range tasks {
		task := dispatch.Task{ID: i, Publish: mt.Publish, Source: dispatch.Point(mt.Source),
			Dest: dispatch.Point(mt.Dest), StartBy: mt.StartBy, EndBy: mt.EndBy, Price: mt.Price, WTP: mt.WTP}
		if err := postJSON(client, srv.URL+"/v1/tasks", task, &first); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if first.Assigned {
			firstID = i
			break
		}
	}
	if !first.Assigned {
		t.Fatal("no task found a driver")
	}

	// The feed reports the assignment.
	ev := dispatch.Event{}
	for raw := range feedLines {
		if err := json.Unmarshal([]byte(raw), &ev); err != nil {
			t.Fatalf("feed json: %v (%s)", err, raw)
		}
		if ev.Type == dispatch.EventAssigned && ev.TaskID == firstID {
			break
		}
	}
	if ev.DriverID != first.DriverID {
		t.Fatalf("feed driver %d, assignment driver %d", ev.DriverID, first.DriverID)
	}

	// Cancel it before pickup: the assignment is revoked.
	var out dispatch.CancelOutcome
	cancelURL := srv.URL + "/v1/tasks/" + jsonInt(firstID) + "/cancel"
	if err := postJSON(client, cancelURL, map[string]float64{"at": first.PickupBy - 0.5}, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cancelled || out.FreedDriverID != first.DriverID {
		t.Fatalf("cancel outcome %+v", out)
	}

	// Unknown IDs surface as 404s.
	resp, err := client.Post(srv.URL+"/v1/tasks/424242/cancel", "application/json",
		strings.NewReader(`{"at": 1e6}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown task: %d", resp.StatusCode)
	}

	// Retire the freed driver at the current market instant (a future
	// retirement would only be scheduled, and a scheduled retiree
	// cannot re-enter yet), then re-announce them.
	var retired map[string]any
	if err := postJSON(client, srv.URL+"/v1/drivers/"+jsonInt(first.DriverID)+"/retire",
		map[string]float64{"at": first.PickupBy - 0.5}, &retired); err != nil {
		t.Fatal(err)
	}
	rejoin := dispatch.Driver{ID: first.DriverID, Source: dispatch.Point{Lat: 41.15, Lon: -8.61},
		Dest: dispatch.Point{Lat: 41.16, Lon: -8.60}, Start: 0, End: 86400}
	var joined map[string]any
	if err := postJSON(client, srv.URL+"/v1/drivers", rejoin, &joined); err != nil {
		t.Fatal(err)
	}

	var stats dispatch.Stats
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: %d", code)
	}
	if stats.Cancelled != 1 || stats.PresentDrivers != 40 {
		t.Fatalf("stats %+v", stats)
	}
}

// TestServeSustainsLoad is the acceptance check: a running server
// absorbs a load-generated stream of ≥ 1k task submissions end-to-end
// (concurrent submitters, 10% cancellations) without a single error,
// and the books balance afterwards.
func TestServeSustainsLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	srv, _ := newTestServer(t, 200, dispatch.WithSeed(3))

	const n = 1200
	cfg := trace.NewConfig(5, n, 1, trace.Hitchhiking)
	tasks := trace.NewGenerator(cfg).Generate(nil).Tasks
	sort.Slice(tasks, func(a, b int) bool { return tasks[a].Publish < tasks[b].Publish })

	report, err := runLoad(srv.URL, 8, 0, 0.1, 42, func(i int) dispatch.Task {
		mt := tasks[i]
		return dispatch.Task{ID: i, Publish: mt.Publish, Source: dispatch.Point(mt.Source),
			Dest: dispatch.Point(mt.Dest), StartBy: mt.StartBy, EndBy: mt.EndBy, Price: mt.Price, WTP: mt.WTP}
	}, n)
	if err != nil {
		t.Fatalf("load run: %v (%+v)", err, report)
	}
	if report.Submitted != n || report.SubmitErrors != 0 || report.CancelErrors != 0 || report.PollErrors != 0 {
		t.Fatalf("report %+v", report)
	}
	if report.Assigned == 0 {
		t.Fatal("no task was ever assigned")
	}
	if report.Latency.N != int64(n) || report.Latency.P50Ms <= 0 || report.Latency.P50Ms > report.Latency.MaxMs {
		t.Fatalf("latency summary not populated sanely: %+v", report.Latency)
	}

	var stats dispatch.Stats
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: %d", code)
	}
	if stats.Tasks != n {
		t.Fatalf("server saw %d of %d tasks", stats.Tasks, n)
	}
	if stats.Served+stats.Rejected+stats.Cancelled != n {
		t.Fatalf("books do not balance: %+v", stats)
	}
}

// TestServeBatchedEndToEnd drives the HTTP API of a batched market:
// submissions answer pending, GET /v1/tasks/{id} polls the decision,
// the SSE feed streams pending → decision → batch_closed, and the
// stats expose the pending column.
func TestServeBatchedEndToEnd(t *testing.T) {
	srv, _ := newTestServer(t, 40, dispatch.WithSeed(2), dispatch.WithBatching(30, dispatch.Hungarian))
	client := &http.Client{}

	feedResp, err := http.Get(srv.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer feedResp.Body.Close()
	feedLines := make(chan string, 256)
	go func() {
		sc := bufio.NewScanner(feedResp.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "data: ") {
				feedLines <- strings.TrimPrefix(line, "data: ")
			}
		}
		close(feedLines)
	}()

	cfg := trace.NewConfig(99, 30, 40, trace.Hitchhiking)
	tasks := trace.NewGenerator(cfg).Generate(nil).Tasks
	sort.Slice(tasks, func(a, b int) bool { return tasks[a].Publish < tasks[b].Publish })
	var last dispatch.Assignment
	for i, mt := range tasks {
		task := dispatch.Task{ID: i, Publish: mt.Publish, Source: dispatch.Point(mt.Source),
			Dest: dispatch.Point(mt.Dest), StartBy: mt.StartBy, EndBy: mt.EndBy, Price: mt.Price, WTP: mt.WTP}
		if err := postJSON(client, srv.URL+"/v1/tasks", task, &last); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if !last.Pending || last.Assigned || last.DecideBy <= last.DecidedAt {
			t.Fatalf("batched submission %d not pending: %+v", i, last)
		}
	}

	// The last submission is still in its window; earlier ones have
	// been decided as later traffic closed their windows.
	var dec dispatch.Assignment
	lastID := len(tasks) - 1
	if code := getJSON(t, srv.URL+"/v1/tasks/"+jsonInt(lastID), &dec); code != 200 || !dec.Pending {
		t.Fatalf("last task decision: %d %+v", code, dec)
	}
	var first dispatch.Assignment
	if code := getJSON(t, srv.URL+"/v1/tasks/"+jsonInt(0), &first); code != 200 || first.Pending {
		t.Fatalf("first task decision still pending: %d %+v", code, first)
	}
	resp, err := client.Get(srv.URL + "/v1/tasks/424242")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("decision of unknown task: %d", resp.StatusCode)
	}

	var stats dispatch.Stats
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: %d", code)
	}
	if stats.Tasks != len(tasks) || stats.Pending == 0 {
		t.Fatalf("stats %+v (want the open window's orders pending)", stats)
	}
	if stats.Served+stats.Rejected+stats.Cancelled+stats.Pending != stats.Tasks {
		t.Fatalf("books do not balance: %+v", stats)
	}

	// The feed carries pending acknowledgements, window decisions and
	// batch_closed entries with stats.
	var sawPending, sawDecision, sawClose bool
	for raw := range feedLines {
		var ev dispatch.Event
		if err := json.Unmarshal([]byte(raw), &ev); err != nil {
			t.Fatalf("feed json: %v (%s)", err, raw)
		}
		switch ev.Type {
		case dispatch.EventPending:
			sawPending = true
		case dispatch.EventAssigned, dispatch.EventRejected:
			sawDecision = true
		case dispatch.EventBatchClosed:
			sawClose = true
			if ev.Batch == nil || ev.Batch.Submitted != ev.Batch.Matched+ev.Batch.Rejected+ev.Batch.Cancelled {
				t.Fatalf("batch_closed stats %+v", ev.Batch)
			}
		}
		if sawPending && sawDecision && sawClose {
			break
		}
	}
	if !sawPending || !sawDecision || !sawClose {
		t.Fatalf("feed missing batched vocabulary: pending=%v decision=%v close=%v",
			sawPending, sawDecision, sawClose)
	}
}

// TestServeBatchedSustainsLoad: the sustained-load acceptance check
// against a batched market — loadgen's pending accounting plus the
// server's books must still cover every submission.
func TestServeBatchedSustainsLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	srv, _ := newTestServer(t, 200, dispatch.WithSeed(3),
		dispatch.WithBatching(60, dispatch.Hungarian))

	const n = 1200
	cfg := trace.NewConfig(5, n, 1, trace.Hitchhiking)
	tasks := trace.NewGenerator(cfg).Generate(nil).Tasks
	sort.Slice(tasks, func(a, b int) bool { return tasks[a].Publish < tasks[b].Publish })

	report, err := runLoad(srv.URL, 8, 0, 0.1, 42, func(i int) dispatch.Task {
		mt := tasks[i]
		return dispatch.Task{ID: i, Publish: mt.Publish, Source: dispatch.Point(mt.Source),
			Dest: dispatch.Point(mt.Dest), StartBy: mt.StartBy, EndBy: mt.EndBy, Price: mt.Price, WTP: mt.WTP}
	}, n)
	if err != nil {
		t.Fatalf("load run: %v (%+v)", err, report)
	}
	if report.Submitted != n || report.SubmitErrors != 0 || report.CancelErrors != 0 || report.PollErrors != 0 {
		t.Fatalf("report %+v", report)
	}
	if report.Assigned == 0 {
		t.Fatal("no task was ever assigned")
	}

	var stats dispatch.Stats
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: %d", code)
	}
	if stats.Tasks != n {
		t.Fatalf("server saw %d of %d tasks", stats.Tasks, n)
	}
	if stats.Served+stats.Rejected+stats.Cancelled+stats.Pending != n {
		t.Fatalf("books do not balance: %+v", stats)
	}
}

// overloadServeTask builds a valid order near the synthetic fleet's
// home region with the given publish time, for the admission tests.
func overloadServeTask(id int, publish float64) dispatch.Task {
	base := dispatch.Point{Lat: 41.15, Lon: -8.61}
	return dispatch.Task{
		ID: id, Publish: publish,
		Source:  dispatch.Point{Lat: base.Lat + 0.001, Lon: base.Lon},
		Dest:    dispatch.Point{Lat: base.Lat + 0.01, Lon: base.Lon + 0.01},
		StartBy: publish + 900, EndBy: publish + 4500, Price: 10,
	}
}

// TestServeOverloadSheds is the backpressure acceptance check: a
// batched server with an admission bound answers submissions beyond
// the cap with 429 + Retry-After while the window is open, keeps the
// pending queue bounded at the cap, exposes the shed count through
// /healthz, and still admits the submission that closes the window so
// a full market can never wedge.
func TestServeOverloadSheds(t *testing.T) {
	srv, _ := newTestServer(t, 40, dispatch.WithSeed(2),
		dispatch.WithBatching(600, dispatch.Hungarian), dispatch.WithMaxPending(8))
	client := &http.Client{}

	const n = 100
	admitted, shed := 0, 0
	for i := 0; i < n; i++ {
		body, _ := json.Marshal(overloadServeTask(i, float64(i)))
		resp, err := client.Post(srv.URL+"/v1/tasks", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		resp.Body.Close()
		switch {
		case resp.StatusCode/100 == 2:
			admitted++
		case resp.StatusCode == http.StatusTooManyRequests:
			shed++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("submit %d: 429 without Retry-After", i)
			}
		default:
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
	}
	if admitted != 8 || shed != n-8 {
		t.Fatalf("admitted %d shed %d, want 8/%d", admitted, shed, n-8)
	}

	var health struct {
		Pending    int `json:"pending"`
		MaxPending int `json:"max_pending"`
		Shed       int `json:"shed"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	if health.Pending != 8 || health.MaxPending != 8 || health.Shed != n-8 {
		t.Fatalf("healthz %+v", health)
	}

	// The submission at the window close drains the window first and is
	// admitted even though it finds the queue at the cap.
	var a dispatch.Assignment
	if err := postJSON(client, srv.URL+"/v1/tasks", overloadServeTask(n, 600), &a); err != nil {
		t.Fatalf("window-closing submission shed: %v", err)
	}
	if !a.Pending {
		t.Fatalf("window-closing submission: %+v", a)
	}

	var stats dispatch.Stats
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: %d", code)
	}
	if stats.Tasks != 9 || stats.Shed != n-8 || stats.Pending != 1 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.Served+stats.Rejected+stats.Cancelled+stats.Pending != stats.Tasks {
		t.Fatalf("books do not balance: %+v", stats)
	}
}

// TestServeOversizeBodyRefused: the listeners cap request bodies. A
// declared body over the cap is answered 413 before the market handler
// runs — the padded body below leads with a valid task an uncapped
// decoder would have registered — and a chunked one is cut off at the
// cap and refused as malformed. Neither moves the books, and the
// server keeps serving.
func TestServeOversizeBodyRefused(t *testing.T) {
	if newHTTPServer("", http.NotFoundHandler()).ReadHeaderTimeout <= 0 {
		t.Error("listener has no ReadHeaderTimeout")
	}
	srv, _ := newTestServer(t, 40, dispatch.WithSeed(2))
	client := &http.Client{}
	task, _ := json.Marshal(overloadServeTask(1, 10))
	pad := strings.Repeat(" ", maxBodyBytes)

	resp, err := client.Post(srv.URL+"/v1/tasks", "application/json", strings.NewReader(string(task)+pad))
	if err != nil {
		t.Fatalf("declared oversize body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("declared oversize body: status %d, want 413", resp.StatusCode)
	}

	// Hiding the reader's type makes the client send it chunked, with
	// no Content-Length to refuse up front.
	chunked := struct{ io.Reader }{strings.NewReader(pad + string(task))}
	resp, err = client.Post(srv.URL+"/v1/tasks", "application/json", chunked)
	if err != nil {
		t.Fatalf("chunked oversize body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("chunked oversize body: status %d, want 400", resp.StatusCode)
	}

	var stats dispatch.Stats
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != 200 || stats.Tasks != 0 {
		t.Fatalf("refused bodies moved the books: %d %+v", code, stats)
	}
	var a dispatch.Assignment
	if err := postJSON(client, srv.URL+"/v1/tasks", overloadServeTask(1, 10), &a); err != nil {
		t.Fatalf("in-limit submission after refusals: %v", err)
	}
}

// TestServeLoadgenCountsSheds drives runLoad against a bounded batched
// market: shed submissions land in Overloaded (not in errors, not in
// the latency distribution), throughput counts successes only, and the
// client's view of the shed count matches the server's.
func TestServeLoadgenCountsSheds(t *testing.T) {
	srv, _ := newTestServer(t, 40, dispatch.WithSeed(2),
		dispatch.WithBatching(600, dispatch.Hungarian), dispatch.WithMaxPending(8))

	const n = 60
	report, err := runLoad(srv.URL, 4, 0, 0, 7, func(i int) dispatch.Task {
		return overloadServeTask(i, float64(i))
	}, n)
	if err != nil {
		t.Fatalf("load run: %v (%+v)", err, report)
	}
	if report.Submitted != 8 || report.Overloaded != n-8 {
		t.Fatalf("submitted %d overloaded %d, want 8/%d (%+v)",
			report.Submitted, report.Overloaded, n-8, report)
	}
	if report.SubmitErrors != 0 || report.CancelErrors != 0 || report.PollErrors != 0 {
		t.Fatalf("sheds leaked into the error columns: %+v", report)
	}
	if report.Latency.N != 8 {
		t.Fatalf("latency N = %d, want the 8 successes only", report.Latency.N)
	}
	if report.Pending != 8 {
		t.Fatalf("pending %d, want the full bounded window (%+v)", report.Pending, report)
	}

	var stats dispatch.Stats
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: %d", code)
	}
	if stats.Tasks != 8 || stats.Pending != 8 || stats.Shed != n-8 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.Served+stats.Rejected+stats.Cancelled+stats.Pending != stats.Tasks {
		t.Fatalf("books do not balance: %+v", stats)
	}
}

func jsonInt(i int) string {
	b, _ := json.Marshal(i)
	return string(b)
}
