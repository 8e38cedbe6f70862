package fed

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/dispatch"
	"repro/internal/model"
	"repro/internal/trace"
)

// marketFixture is one synthetic city: a fresh dispatch service plus
// the day's publish-sorted order stream.
type marketFixture struct {
	svc   *dispatch.Service
	tasks []dispatch.Task
}

func toDriver(i int, d model.Driver) dispatch.Driver {
	return dispatch.Driver{
		ID: i, Source: dispatch.Point(d.Source), Dest: dispatch.Point(d.Dest),
		Start: d.Start, End: d.End, SpeedKmh: d.SpeedKmh,
	}
}

func toTask(i int, t model.Task) dispatch.Task {
	return dispatch.Task{
		ID: i, Publish: t.Publish, Source: dispatch.Point(t.Source), Dest: dispatch.Point(t.Dest),
		StartBy: t.StartBy, EndBy: t.EndBy, Price: t.Price, WTP: t.WTP,
	}
}

func newFixture(t *testing.T, seed int64, nTasks, nDrivers int, opts ...dispatch.Option) marketFixture {
	t.Helper()
	cfg := trace.NewConfig(seed, nTasks, nDrivers, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	m := dispatch.Market{}
	for i, d := range tr.Drivers {
		m.Drivers = append(m.Drivers, toDriver(i, d))
	}
	tasks := make([]dispatch.Task, len(tr.Tasks))
	for i, task := range tr.Tasks {
		tasks[i] = toTask(i, task)
	}
	svc, err := dispatch.New(m, append([]dispatch.Option{dispatch.WithSeed(seed)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return marketFixture{svc: svc, tasks: tasks}
}

// postJSON posts v and decodes the response, returning the status.
func postJSON(t *testing.T, url string, v, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestRouterEndToEnd drives three markets through the full federated
// surface: per-market submissions, cancellations, driver churn,
// decisions, health, and the aggregate stats that must reconcile with
// the per-market books.
func TestRouterEndToEnd(t *testing.T) {
	names := []string{"porto", "lisbon", "braga"}
	fixtures := make(map[string]marketFixture)
	rt := NewRouter(nil)
	for i, name := range names {
		fx := newFixture(t, int64(11+i), 25, 30)
		fixtures[name] = fx
		if err := rt.Register(Market{Name: name, Svc: fx.svc}); err != nil {
			t.Fatal(err)
		}
	}
	defer rt.Close()
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	var list struct {
		Markets []string `json:"markets"`
	}
	if code := getJSON(t, srv.URL+"/v1/markets", &list); code != http.StatusOK {
		t.Fatalf("GET /v1/markets: status %d", code)
	}
	if !reflect.DeepEqual(list.Markets, []string{"braga", "lisbon", "porto"}) {
		t.Fatalf("market list %v", list.Markets)
	}

	// Submit every market's day through its own route.
	for _, name := range names {
		for _, task := range fixtures[name].tasks {
			var a dispatch.Assignment
			code := postJSON(t, srv.URL+"/v1/markets/"+name+"/tasks", task, &a)
			if code != http.StatusOK {
				t.Fatalf("market %s task %d: status %d", name, task.ID, code)
			}
		}
	}

	// A cancellation and a driver join/retire through the router land on
	// the right market.
	var cancel dispatch.CancelOutcome
	cURL := srv.URL + "/v1/markets/porto/tasks/0/cancel"
	if code := postJSON(t, cURL, map[string]float64{"at": fixtures["porto"].tasks[0].Publish + 1}, &cancel); code != http.StatusOK {
		t.Fatalf("cancel via router: status %d", code)
	}
	newDriver := dispatch.Driver{ID: 9000, SpeedKmh: 30, End: 1e9}
	if code := postJSON(t, srv.URL+"/v1/markets/braga/drivers", newDriver, nil); code != http.StatusOK {
		t.Fatalf("join via router: status %d", code)
	}
	if code := postJSON(t, srv.URL+"/v1/markets/braga/drivers/9000/retire",
		map[string]float64{"at": 1e8}, nil); code != http.StatusOK {
		t.Fatalf("retire via router: status %d", code)
	}
	var dec dispatch.Assignment
	if code := getJSON(t, srv.URL+"/v1/markets/lisbon/tasks/3", &dec); code != http.StatusOK || dec.TaskID != 3 {
		t.Fatalf("decision via router: status %d, task %d", code, dec.TaskID)
	}

	// Per-market health, through both the aggregate and the market route.
	var health struct {
		Status  string                    `json:"status"`
		Markets map[string]map[string]any `json:"markets"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if health.Status != "ok" || len(health.Markets) != 3 {
		t.Fatalf("healthz: status %q, %d markets", health.Status, len(health.Markets))
	}
	var mh map[string]any
	if code := getJSON(t, srv.URL+"/v1/markets/porto/healthz", &mh); code != http.StatusOK || mh["status"] != "ok" {
		t.Fatalf("market healthz: status %d, body %v", code, mh)
	}

	// The aggregate reconciles with the per-market books.
	var agg AggregateStats
	if code := getJSON(t, srv.URL+"/v1/stats", &agg); code != http.StatusOK {
		t.Fatalf("aggregate stats: status %d", code)
	}
	if agg.Markets != 3 || agg.Tasks != 75 {
		t.Fatalf("aggregate: %d markets, %d tasks", agg.Markets, agg.Tasks)
	}
	var sum AggregateStats
	for _, name := range names {
		var ms dispatch.Stats
		if code := getJSON(t, srv.URL+"/v1/markets/"+name+"/stats", &ms); code != http.StatusOK {
			t.Fatalf("market %s stats: status %d", name, code)
		}
		if !reflect.DeepEqual(ms, agg.PerMarket[name]) {
			t.Fatalf("market %s: direct stats %+v != aggregate breakdown %+v", name, ms, agg.PerMarket[name])
		}
		sum.Tasks += ms.Tasks
		sum.Served += ms.Served
		sum.Rejected += ms.Rejected
		sum.Cancelled += ms.Cancelled
		sum.Revenue += ms.Revenue
		sum.Profit += ms.Profit
	}
	if sum.Tasks != agg.Tasks || sum.Served != agg.Served || sum.Rejected != agg.Rejected ||
		sum.Cancelled != agg.Cancelled || sum.Revenue != agg.Revenue || sum.Profit != agg.Profit {
		t.Fatalf("aggregate does not reconcile: sum %+v vs agg %+v", sum, agg)
	}

	// Typed error surface through the router: unknown market, unknown
	// task, duplicate task, malformed id, malformed body.
	if code := getJSON(t, srv.URL+"/v1/markets/madrid/stats", nil); code != http.StatusNotFound {
		t.Fatalf("unknown market: status %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/markets/porto/tasks/99999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown task: status %d", code)
	}
	if code := postJSON(t, srv.URL+"/v1/markets/porto/tasks", fixtures["porto"].tasks[1], nil); code != http.StatusConflict {
		t.Fatalf("duplicate task: status %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/markets/porto/tasks/abc", nil); code != http.StatusBadRequest {
		t.Fatalf("bad task id: status %d", code)
	}
	resp, err := http.Post(srv.URL+"/v1/markets/porto/tasks/0/cancel", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cancel body: status %d", resp.StatusCode)
	}
}

// TestRouterRollingRestart is the federation acceptance test: three
// durable markets, one restarted through WAL recovery mid-day, the
// others serving throughout — and the restarted market's books must be
// bit-identical to a never-restarted reference run of the same stream.
func TestRouterRollingRestart(t *testing.T) {
	names := []string{"porto", "lisbon", "braga"}
	durOpts := []dispatch.DurOption{
		dispatch.DurFsync("interval"),
		dispatch.DurSnapshotEvery(7),
	}
	rt := NewRouter(nil)
	fixtures := make(map[string]marketFixture)
	for i, name := range names {
		dir := filepath.Join(t.TempDir(), name)
		seed := int64(41 + i)
		cfg := trace.NewConfig(seed, 30, 20, trace.Hitchhiking)
		tr := trace.NewGenerator(cfg).Generate(nil)
		m := dispatch.Market{}
		for j, d := range tr.Drivers {
			m.Drivers = append(m.Drivers, toDriver(j, d))
		}
		tasks := make([]dispatch.Task, len(tr.Tasks))
		for j, task := range tr.Tasks {
			tasks[j] = toTask(j, task)
		}
		svc, err := dispatch.New(m, dispatch.WithSeed(seed), dispatch.WithDurability(dir, durOpts...))
		if err != nil {
			t.Fatal(err)
		}
		fixtures[name] = marketFixture{svc: svc, tasks: tasks}
		if err := rt.Register(Market{Name: name, Svc: svc, WALDir: dir, DurOpts: durOpts}); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	// Reference for lisbon: the identical stream, never restarted. Same
	// seed, same market, no durability — determinism is the contract.
	refCfg := trace.NewConfig(42, 30, 20, trace.Hitchhiking)
	refTr := trace.NewGenerator(refCfg).Generate(nil)
	refMkt := dispatch.Market{}
	for j, d := range refTr.Drivers {
		refMkt.Drivers = append(refMkt.Drivers, toDriver(j, d))
	}
	ref, err := dispatch.New(refMkt, dispatch.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}

	submit := func(name string, tasks []dispatch.Task) {
		t.Helper()
		for _, task := range tasks {
			if code := postJSON(t, srv.URL+"/v1/markets/"+name+"/tasks", task, nil); code != http.StatusOK {
				t.Fatalf("market %s task %d: status %d", name, task.ID, code)
			}
		}
	}
	half := len(fixtures["lisbon"].tasks) / 2
	for _, name := range names {
		submit(name, fixtures[name].tasks[:half])
	}

	// Roll lisbon: halt, restore from its WAL, swap — over HTTP.
	var restarted struct {
		Market    string `json:"market"`
		Restarted bool   `json:"restarted"`
	}
	if code := postJSON(t, srv.URL+"/v1/markets/lisbon/restart", nil, &restarted); code != http.StatusOK || !restarted.Restarted {
		t.Fatalf("restart: status %d, body %+v", code, restarted)
	}
	if svc, ok := rt.Service("lisbon"); !ok || svc == fixtures["lisbon"].svc {
		t.Fatal("restart did not swap in a restored service")
	}

	// Everyone — including the restarted market — serves the rest of the
	// day.
	for _, name := range names {
		submit(name, fixtures[name].tasks[half:])
	}
	ctx := t.Context()
	for _, task := range fixtures["lisbon"].tasks {
		if _, err := ref.SubmitTask(ctx, task); err != nil {
			t.Fatal(err)
		}
	}

	var lisbon dispatch.Stats
	if code := getJSON(t, srv.URL+"/v1/markets/lisbon/stats", &lisbon); code != http.StatusOK {
		t.Fatalf("lisbon stats: status %d", code)
	}
	want, err := ref.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, lisbon) {
		t.Fatalf("restarted market diverged from the uninterrupted reference:\nwant %+v\ngot  %+v", want, lisbon)
	}
	for _, name := range []string{"porto", "braga"} {
		var ms dispatch.Stats
		if code := getJSON(t, srv.URL+"/v1/markets/"+name+"/stats", &ms); code != http.StatusOK {
			t.Fatalf("market %s stats: status %d", name, code)
		}
		if ms.Tasks != len(fixtures[name].tasks) {
			t.Fatalf("market %s lost traffic across the neighbour's restart: %d tasks", name, ms.Tasks)
		}
	}

	// Error surface: restarting a market with no WAL, and an unknown one.
	eph := newFixture(t, 99, 5, 5)
	if err := rt.Register(Market{Name: "ephemeral", Svc: eph.svc}); err != nil {
		t.Fatal(err)
	}
	var errBody map[string]string
	if code := postJSON(t, srv.URL+"/v1/markets/ephemeral/restart", nil, &errBody); code != http.StatusInternalServerError ||
		!strings.Contains(errBody["error"], "no write-ahead log") {
		t.Fatalf("no-WAL restart: status %d, body %v", code, errBody)
	}
	if code := postJSON(t, srv.URL+"/v1/markets/madrid/restart", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown-market restart: status %d", code)
	}

	// Shutdown settles every market durably; a second Close is
	// idempotent.
	stats, err := rt.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 4 || stats["lisbon"].Tasks != len(fixtures["lisbon"].tasks) {
		t.Fatalf("close stats: %+v", stats)
	}
	if _, err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	// A settled market answers reads with 503 on mutations.
	if code := postJSON(t, srv.URL+"/v1/markets/porto/tasks", dispatch.Task{ID: 777}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("mutation after close: status %d", code)
	}
}

// TestRouterRestartFailureKeepsMarketDown: a restart whose restore
// fails leaves THAT market answering 503 — not half-state — while other
// markets are untouched; once its log is back, a second Restart retries
// the restore and the market serves again. A Restart of a market whose
// restore is running is refused.
func TestRouterRestartFailureKeepsMarketDown(t *testing.T) {
	rt := NewRouter(nil)
	// The market journals into own, but its WALDir starts empty: Halt
	// succeeds, Restore finds no log and fails.
	own, walDir := t.TempDir(), t.TempDir()
	broken := newFixture(t, 7, 5, 10, dispatch.WithDurability(own))
	healthy := newFixture(t, 8, 5, 10)
	if err := rt.Register(Market{Name: "broken", Svc: broken.svc, WALDir: walDir}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Register(Market{Name: "healthy", Svc: healthy.svc}); err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	if code := postJSON(t, srv.URL+"/v1/markets/broken/tasks", broken.tasks[0], nil); code != http.StatusOK {
		t.Fatalf("submit before the restart: status %d", code)
	}
	if err := rt.Restart("broken"); !errors.Is(err, dispatch.ErrLogNotFound) {
		t.Fatalf("restart over an empty WAL dir: %v, want ErrLogNotFound", err)
	}
	// Nothing is restoring it: the market reports "down" and names no
	// time to retry after.
	downState := func(want, retryAfter string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/markets/broken/stats")
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != retryAfter ||
			body["error"] != fmt.Sprintf("market %q is %s", "broken", want) {
			t.Fatalf("%s market: status %d, Retry-After %q, body %v", want, resp.StatusCode, resp.Header.Get("Retry-After"), body)
		}
		var health struct {
			Status  string                    `json:"status"`
			Markets map[string]map[string]any `json:"markets"`
		}
		if getJSON(t, srv.URL+"/healthz", &health); health.Status != "degraded" {
			t.Fatalf("healthz with a %s market: %q", want, health.Status)
		}
		if health.Markets["broken"]["status"] != want {
			t.Fatalf("%s market health: %v", want, health.Markets["broken"])
		}
	}
	downState("down", "")
	if code := getJSON(t, srv.URL+"/v1/markets/healthy/stats", nil); code != http.StatusOK {
		t.Fatalf("healthy market during neighbour outage: status %d", code)
	}

	// A market whose restore is running refuses a second Restart.
	e, _ := rt.lookup("broken")
	e.mu.Lock()
	e.restoring = true
	e.mu.Unlock()
	downState("restarting", "1")
	if err := rt.Restart("broken"); err == nil || !strings.Contains(err.Error(), "already restarting") {
		t.Fatalf("restart during a restore: %v", err)
	}
	e.mu.Lock()
	e.restoring = false
	e.mu.Unlock()

	// Put the log back: the retried restore resumes the halted day.
	files, err := os.ReadDir(own)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(own, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(walDir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Restart("broken"); err != nil {
		t.Fatalf("restart with the log back: %v", err)
	}
	var ms dispatch.Stats
	if code := getJSON(t, srv.URL+"/v1/markets/broken/stats", &ms); code != http.StatusOK || ms.Tasks != 1 {
		t.Fatalf("restored market: status %d, %d tasks, want 200 and the 1 submitted before the halt", code, ms.Tasks)
	}
	if code := postJSON(t, srv.URL+"/v1/markets/broken/tasks", broken.tasks[1], nil); code != http.StatusOK {
		t.Fatalf("submit after the retried restart: status %d", code)
	}
}

// TestRouterInflightIsolation: the router-level in-flight bound is per
// market — a saturated city sheds 429 while its neighbour serves.
func TestRouterInflightIsolation(t *testing.T) {
	rt := NewRouter(nil)
	porto := newFixture(t, 21, 5, 10)
	lisbon := newFixture(t, 22, 5, 10)
	if err := rt.Register(Market{Name: "porto", Svc: porto.svc, MaxInflight: 1}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Register(Market{Name: "lisbon", Svc: lisbon.svc}); err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	// Hold porto's single in-flight slot with an order whose body never
	// ends: its handler waits on the read.
	body, hold := io.Pipe()
	held := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/markets/porto/tasks", "application/json", body)
		if err != nil {
			held <- 0
			return
		}
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	defer hold.Close()
	if _, err := hold.Write([]byte(`{"id": 0`)); err != nil {
		t.Fatal(err)
	}
	e, _ := rt.lookup("porto")
	for deadline := time.Now().Add(5 * time.Second); e.inflight.Load() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the held order never took porto's slot")
		}
	}

	shed, err := http.Get(srv.URL + "/v1/markets/porto/stats")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, shed.Body)
	shed.Body.Close()
	if shed.StatusCode != http.StatusTooManyRequests || shed.Header.Get("Retry-After") == "" {
		t.Fatalf("saturated market: status %d, Retry-After %q", shed.StatusCode, shed.Header.Get("Retry-After"))
	}
	if code := getJSON(t, srv.URL+"/v1/markets/lisbon/stats", nil); code != http.StatusOK {
		t.Fatalf("neighbour of a saturated market: status %d", code)
	}

	// Ending the held body frees the slot.
	hold.Close()
	if code := <-held; code != http.StatusBadRequest {
		t.Fatalf("held order cut short: status %d, want 400", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := getJSON(t, srv.URL+"/v1/markets/porto/stats", nil); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("porto never freed its in-flight slot")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRouterEventsFeedHoldsNoSlot: an open event feed lasts until its
// client leaves, so it is not charged to the market's in-flight bound —
// with MaxInflight 1 and a feed open, an order still gets its answer.
func TestRouterEventsFeedHoldsNoSlot(t *testing.T) {
	rt := NewRouter(nil)
	fx := newFixture(t, 23, 5, 20)
	if err := rt.Register(Market{Name: "porto", Svc: fx.svc, MaxInflight: 1}); err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/markets/porto/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events stream: status %d", resp.StatusCode)
	}
	if code := postJSON(t, srv.URL+"/v1/markets/porto/tasks", fx.tasks[0], nil); code != http.StatusOK {
		t.Fatalf("order beside an open feed: status %d, want 200", code)
	}
}

// TestRouterAdmissionIsolation: a market at its own WithMaxPending
// bound sheds 429 through the router without touching its neighbours.
func TestRouterAdmissionIsolation(t *testing.T) {
	rt := NewRouter(nil)
	// A batched market with a huge window and a bound of 1: the first
	// order parks in the window, the second is shed.
	bounded := newFixture(t, 31, 10, 10,
		dispatch.WithBatching(1e6, dispatch.Hungarian), dispatch.WithMaxPending(1))
	open := newFixture(t, 32, 10, 10)
	if err := rt.Register(Market{Name: "bounded", Svc: bounded.svc}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Register(Market{Name: "open", Svc: open.svc}); err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	var a dispatch.Assignment
	if code := postJSON(t, srv.URL+"/v1/markets/bounded/tasks", bounded.tasks[0], &a); code != http.StatusOK || !a.Pending {
		t.Fatalf("first order: status %d, pending %v", code, a.Pending)
	}
	var errBody map[string]string
	if code := postJSON(t, srv.URL+"/v1/markets/bounded/tasks", bounded.tasks[1], &errBody); code != http.StatusTooManyRequests {
		t.Fatalf("order beyond the bound: status %d, body %v", code, errBody)
	}
	if code := postJSON(t, srv.URL+"/v1/markets/open/tasks", open.tasks[0], nil); code != http.StatusOK {
		t.Fatalf("unbounded neighbour: status %d", code)
	}
	var ms dispatch.Stats
	if code := getJSON(t, srv.URL+"/v1/markets/bounded/stats", &ms); code != http.StatusOK || ms.Shed != 1 {
		t.Fatalf("bounded market books: status %d, shed %d", code, ms.Shed)
	}
}

// TestRouterRegisterValidation: malformed registrations are refused
// typed, and the accessors answer sensibly for unknown names.
func TestRouterRegisterValidation(t *testing.T) {
	rt := NewRouter(nil)
	fx := newFixture(t, 3, 5, 5)
	defer fx.svc.Close()
	for _, m := range []Market{
		{Name: "", Svc: fx.svc},
		{Name: "a/b", Svc: fx.svc},
		{Name: "a b", Svc: fx.svc},
		{Name: "ok", Svc: nil},
		{Name: "ok", Svc: fx.svc, MaxInflight: -1},
	} {
		if err := rt.Register(m); err == nil {
			t.Fatalf("registration %+v accepted", m)
		}
	}
	if err := rt.Register(Market{Name: "ok", Svc: fx.svc}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Register(Market{Name: "ok", Svc: fx.svc}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, ok := rt.Service("nope"); ok {
		t.Fatal("Service answered for an unknown market")
	}
	if err := rt.Restart("nope"); err == nil {
		t.Fatal("Restart accepted an unknown market")
	}
	if got := rt.Names(); len(got) != 1 || got[0] != "ok" {
		t.Fatalf("names %v", got)
	}
	if svc, ok := rt.Service("ok"); !ok || svc != fx.svc {
		t.Fatal("Service accessor mismatch")
	}
}

// TestRouterEventsPassThrough: the SSE feed streams a market's
// assignment through the federated route.
func TestRouterEventsPassThrough(t *testing.T) {
	rt := NewRouter(nil)
	fx := newFixture(t, 51, 5, 20)
	if err := rt.Register(Market{Name: "porto", Svc: fx.svc}); err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/markets/porto/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	if code := postJSON(t, srv.URL+"/v1/markets/porto/tasks", fx.tasks[0], nil); code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	line := make(chan string, 1)
	go func() {
		buf := make([]byte, 4096)
		n, _ := resp.Body.Read(buf)
		line <- string(buf[:n])
	}()
	select {
	case ev := <-line:
		if !strings.Contains(ev, "data: ") {
			t.Fatalf("not an SSE frame: %q", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event arrived on the federated feed")
	}
}
