package fed

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/dispatch"
)

// These tests pin the error vocabulary of the HTTP surface — every
// malformed request and every typed dispatch error must land on the
// documented status code — plus the streaming and shutdown corners the
// end-to-end flows do not reach.

// TestMarketHandlerErrorVocabulary drives one strict-times market
// through each 4xx the single-market surface can produce.
func TestMarketHandlerErrorVocabulary(t *testing.T) {
	fx := newFixture(t, 71, 10, 12, dispatch.WithStrictTimes())
	defer fx.svc.Close()
	srv := httptest.NewServer(MarketHandler(fx.svc, nil))
	defer srv.Close()

	task := fx.tasks[0]
	if code := postJSON(t, srv.URL+"/v1/tasks", task, nil); code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}

	post := func(path string, body string) int {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	checks := []struct {
		name string
		got  int
		want int
	}{
		{"task bad body", post("/v1/tasks", "{nope"), http.StatusBadRequest},
		{"decision bad id", getJSON(t, srv.URL+"/v1/tasks/abc", nil), http.StatusBadRequest},
		{"cancel bad id", post("/v1/tasks/abc/cancel", `{"at":1}`), http.StatusBadRequest},
		{"cancel bad body", post("/v1/tasks/0/cancel", "{nope"), http.StatusBadRequest},
		{"cancel unknown task", post("/v1/tasks/999/cancel", `{"at":1e6}`), http.StatusNotFound},
		{"cancel at publish", post("/v1/tasks/0/cancel",
			jsonAt(task.Publish)), http.StatusBadRequest}, // ErrInvalidCancel
		{"driver bad body", post("/v1/drivers", "{nope"), http.StatusBadRequest},
		{"retire bad id", post("/v1/drivers/abc/retire", `{"at":1}`), http.StatusBadRequest},
		{"retire bad body", post("/v1/drivers/0/retire", "{nope"), http.StatusBadRequest},
		{"retire unknown driver", post("/v1/drivers/999/retire", `{"at":1e6}`), http.StatusNotFound},
		{"retire out of order", post("/v1/drivers/0/retire", `{"at":-1e9}`), http.StatusConflict}, // ErrOutOfOrder
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, c.got, c.want)
		}
	}

	// Duplicate driver join: 409 through the drivers endpoint.
	d := dispatch.Driver{ID: 0, Start: 0, End: 86400, SpeedKmh: 30}
	if code := postJSON(t, srv.URL+"/v1/drivers", d, nil); code != http.StatusConflict {
		t.Fatalf("duplicate driver: status %d, want 409", code)
	}
}

func jsonAt(at float64) string {
	return fmt.Sprintf(`{"at":%g}`, at)
}

// TestEventsStreamEdges covers the server-sent-events corners: a writer
// that cannot stream, a service closing mid-stream, and the server's
// done channel ending the stream.
func TestEventsStreamEdges(t *testing.T) {
	t.Run("non-flusher", func(t *testing.T) {
		fx := newFixture(t, 72, 4, 6)
		defer fx.svc.Close()
		h := MarketHandler(fx.svc, nil)
		rec := httptest.NewRecorder()
		// Hide the recorder's Flush so the handler sees a bare writer.
		w := struct{ http.ResponseWriter }{rec}
		h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/events", nil))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("non-flusher: status %d, want 500", rec.Code)
		}
	})

	t.Run("service-closed-ends-stream", func(t *testing.T) {
		fx := newFixture(t, 73, 4, 6)
		srv := httptest.NewServer(MarketHandler(fx.svc, nil))
		defer srv.Close()
		resp, err := http.Get(srv.URL + "/v1/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		go fx.svc.Close()
		done := make(chan struct{})
		go func() {
			buf := make([]byte, 256)
			for {
				if _, err := resp.Body.Read(buf); err != nil {
					close(done)
					return
				}
			}
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("stream did not end when the service closed")
		}
	})

	t.Run("server-done-ends-stream", func(t *testing.T) {
		fx := newFixture(t, 74, 4, 6)
		defer fx.svc.Close()
		stop := make(chan struct{})
		srv := httptest.NewServer(MarketHandler(fx.svc, stop))
		defer srv.Close()
		resp, err := http.Get(srv.URL + "/v1/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		close(stop)
		done := make(chan struct{})
		go func() {
			buf := make([]byte, 256)
			for {
				if _, err := resp.Body.Read(buf); err != nil {
					close(done)
					return
				}
			}
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("stream did not end on server shutdown")
		}
	})
}

// TestRouterCanceledContext: a client that has already hung up gets 499
// from the stats aggregation, and the health endpoint degrades instead
// of failing when a market's snapshot cannot be taken.
func TestRouterCanceledContext(t *testing.T) {
	fx := newFixture(t, 75, 4, 6)
	defer fx.svc.Close()
	rt := NewRouter(nil)
	if err := rt.Register(Market{Name: "porto", Svc: fx.svc}); err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil).WithContext(ctx))
	if rec.Code != 499 {
		t.Fatalf("stats with canceled context: status %d, want 499", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil).WithContext(ctx))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"degraded"`) {
		t.Fatalf("healthz with canceled context: status %d body %s", rec.Code, rec.Body.String())
	}

	// The single-market surface answers 499 on both snapshot endpoints.
	mh := MarketHandler(fx.svc, nil)
	for _, path := range []string{"/healthz", "/v1/stats"} {
		rec = httptest.NewRecorder()
		mh.ServeHTTP(rec, httptest.NewRequest("GET", path, nil).WithContext(ctx))
		if rec.Code != 499 {
			t.Fatalf("%s with canceled context: status %d, want 499", path, rec.Code)
		}
	}
}

// TestRouterCloseReportsJournalError: settling a durable market whose
// log directory has vanished must surface the failure from Close while
// still reporting every market's stats.
func TestRouterCloseReportsJournalError(t *testing.T) {
	dir := t.TempDir()
	fx := newFixture(t, 76, 4, 6, dispatch.WithDurability(dir))
	rt := NewRouter(nil)
	if err := rt.Register(Market{Name: "porto", Svc: fx.svc, WALDir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.svc.SubmitTask(context.Background(), fx.tasks[0]); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	stats, err := rt.Close()
	if err == nil {
		t.Fatal("closing over a vanished log directory succeeded")
	}
	if _, ok := stats["porto"]; !ok {
		t.Fatal("stats missing despite the close error")
	}
}

// TestUnencodableAnswerIs500: an answer encoding/json refuses is
// encoded before the status line goes out, so it is a 500 naming the
// reason, not a 200 with an empty body. Orders priced at two thirds of
// the largest float are each valid, but their revenue sums to +Inf,
// which /v1/stats and the router's aggregate cannot encode; the
// appended assignment answer is held to the same rule.
func TestUnencodableAnswerIs500(t *testing.T) {
	fx := newFixture(t, 74, 40, 12)
	defer fx.svc.Close()
	served := 0
	for _, task := range fx.tasks {
		task.Price, task.WTP = math.MaxFloat64/1.5, 0
		a, err := fx.svc.SubmitTask(context.Background(), task)
		if err != nil {
			t.Fatal(err)
		}
		if a.Assigned {
			served++
		}
	}
	stats, err := fx.svc.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if served < 2 || !math.IsInf(stats.Revenue, 1) {
		t.Fatalf("%d served, revenue %g: the day does not overflow", served, stats.Revenue)
	}

	rt := NewRouter(nil)
	if err := rt.Register(Market{Name: "porto", Svc: fx.svc}); err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]http.Handler{"market": MarketHandler(fx.svc, nil), "router": rt.Handler()} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var answer struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &answer); err != nil {
			t.Fatalf("%s: answer %q: %v", name, rec.Body.String(), err)
		}
		if rec.Code != http.StatusInternalServerError || !strings.Contains(answer.Error, "unsupported value: +Inf") {
			t.Errorf("%s: /v1/stats answered %d %q, want 500 naming +Inf", name, rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", name, ct)
		}
	}
	// An assignment is appended only when its floats are finite; any
	// other goes through writeJSON and is refused the same way.
	for _, a := range []dispatch.Assignment{{PickupBy: math.Inf(1)}, {DecidedAt: math.NaN()}, {DecideBy: math.Inf(-1)}} {
		rec := httptest.NewRecorder()
		wb := getBuf()
		writeAssignment(rec, wb, a)
		putBuf(wb)
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "unsupported value") {
			t.Errorf("%+v: answered %d %q, want 500", a, rec.Code, rec.Body.String())
		}
	}
}
