// Package fed federates per-market dispatch services behind one HTTP
// router. Each city/market is an independent dispatch.Service — its own
// books, its own admission bound, optionally its own write-ahead log —
// and the Router exposes them under /v1/markets/{m}/... while
// aggregating /healthz and /v1/stats across the fleet. Isolation is the
// design goal: one overloaded market answers 429 from its own bound
// without starving the rest, and one market can be restarted through
// WAL recovery (Router.Restart) while the others keep serving.
//
// MarketHandler is the single-market HTTP surface; `rideshare serve`
// mounts it at the root and `rideshare router` mounts one per market.
package fed

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/dispatch"
)

// MarketHandler wires the HTTP API over one dispatch service:
//
//	GET  /healthz                    liveness + market shape
//	POST /v1/tasks                   submit a task, get the decision
//	GET  /v1/tasks/{id}              current decision (pending on a batched market)
//	POST /v1/tasks/{id}/cancel       rider cancellation   {"at": t}
//	POST /v1/drivers                 announce a driver
//	POST /v1/drivers/{id}/retire     retire a driver      {"at": t}
//	GET  /v1/stats                   settled aggregate stats
//	GET  /v1/events                  assignment feed (server-sent events)
//
// done, when non-nil, tells streaming handlers the server is shutting
// down.
func MarketHandler(svc *dispatch.Service, done <-chan struct{}) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		stats, err := svc.Snapshot(r.Context())
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, healthBody(stats))
	})

	mux.HandleFunc("POST /v1/tasks", func(w http.ResponseWriter, r *http.Request) {
		wb := getBuf()
		defer putBuf(wb)
		t, err := decodeTask(wb, r.Body)
		if err != nil {
			httpError(w, fmt.Errorf("%w: %v", dispatch.ErrInvalidTask, err))
			return
		}
		a, err := svc.SubmitTask(r.Context(), t)
		if err != nil {
			httpError(w, err)
			return
		}
		writeAssignment(w, wb, a)
	})

	mux.HandleFunc("GET /v1/tasks/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": fmt.Sprintf("bad id %q: not an integer", r.PathValue("id")),
			})
			return
		}
		a, err := svc.Decision(r.Context(), id)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, a)
	})

	mux.HandleFunc("POST /v1/tasks/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		id, at, ok := idAndAt(w, r)
		if !ok {
			return
		}
		out, err := svc.CancelTask(r.Context(), id, at)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("POST /v1/drivers", func(w http.ResponseWriter, r *http.Request) {
		var d dispatch.Driver
		if err := json.NewDecoder(r.Body).Decode(&d); err != nil {
			httpError(w, fmt.Errorf("%w: %v", dispatch.ErrInvalidDriver, err))
			return
		}
		if err := svc.AddDriver(r.Context(), d); err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"driver_id": d.ID, "joined": true})
	})

	mux.HandleFunc("POST /v1/drivers/{id}/retire", func(w http.ResponseWriter, r *http.Request) {
		id, at, ok := idAndAt(w, r)
		if !ok {
			return
		}
		if err := svc.RetireDriver(r.Context(), id, at); err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"driver_id": id, "retired": true})
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		stats, err := svc.Snapshot(r.Context())
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, stats)
	})

	mux.HandleFunc("GET /v1/events", func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		feed, cancel := svc.Subscribe(1024)
		defer cancel()
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
		w.WriteHeader(http.StatusOK)
		fl.Flush()
		for {
			select {
			case <-r.Context().Done():
				return
			case <-done:
				return // server shutting down
			case ev, ok := <-feed:
				if !ok {
					return // service closed
				}
				data, err := json.Marshal(ev)
				if err != nil {
					return
				}
				fmt.Fprintf(w, "data: %s\n\n", data)
				fl.Flush()
			}
		}
	})

	return mux
}

// healthBody is the /healthz answer for one market; the router reuses
// it per market so the aggregate and the single-market views agree.
func healthBody(stats dispatch.Stats) map[string]any {
	return map[string]any{
		"status":      "ok",
		"now":         stats.Now,
		"drivers":     stats.Drivers,
		"present":     stats.PresentDrivers,
		"tasks":       stats.Tasks,
		"pending":     stats.Pending,
		"max_pending": stats.MaxPending,
		"shed":        stats.Shed,
		"feed_drops":  stats.FeedDrops,
	}
}

// idAndAt parses the {id} path value and the {"at": t} request body
// shared by the cancel and retire endpoints, answering a plain 400
// itself on malformed requests (the typed-error vocabulary is reserved
// for conditions the dispatch service actually reported).
func idAndAt(w http.ResponseWriter, r *http.Request) (id int, at float64, ok bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("bad id %q: not an integer", r.PathValue("id")),
		})
		return 0, 0, false
	}
	var body struct {
		At float64 `json:"at"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("bad request body: %v (want {\"at\": seconds})", err),
		})
		return 0, 0, false
	}
	return id, body.At, true
}

// writeJSON answers v as json.Encoder writes it. The answer is encoded
// before the status line goes out, so a value encoding/json refuses (a
// sum that overflowed to +Inf) is answered 500 with the reason, not 200
// with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	wb := getBuf()
	defer putBuf(wb)
	buf := bytes.NewBuffer(wb.b[:0])
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		status = http.StatusInternalServerError
		buf.Reset()
		// A map of strings always encodes.
		json.NewEncoder(buf).Encode(map[string]string{"error": fmt.Sprintf("fed: encoding the answer: %v", err)})
	}
	writeBody(w, status, buf.Bytes())
}

// httpError maps the dispatch package's typed errors onto HTTP status
// codes, keeping the sentinel's text in the JSON body so clients can
// still distinguish conditions sharing a code.
func httpError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, dispatch.ErrOverloaded):
		// Backpressure, not failure: the submission was shed at the
		// admission bound and the rider should retry after the market
		// drains (a batched market decides its window within seconds).
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, dispatch.ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, dispatch.ErrUnknownTask), errors.Is(err, dispatch.ErrUnknownDriver):
		status = http.StatusNotFound
	case errors.Is(err, dispatch.ErrDuplicateTask), errors.Is(err, dispatch.ErrDuplicateDriver),
		errors.Is(err, dispatch.ErrOutOfOrder):
		status = http.StatusConflict
	case errors.Is(err, dispatch.ErrInvalidTask), errors.Is(err, dispatch.ErrInvalidDriver),
		errors.Is(err, dispatch.ErrInvalidCancel), errors.Is(err, dispatch.ErrInvalidOption):
		status = http.StatusBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		status = 499 // client closed request
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
