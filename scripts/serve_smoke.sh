#!/usr/bin/env sh
# Smoke-tests the live front end the way CI (and a curious human) would:
# build the CLI, start `rideshare serve` on a local port, wait for the
# health endpoint to answer, push a small load-generated order stream
# through it, and shut the server down with SIGINT to exercise the
# graceful-shutdown path.
#
# Usage: scripts/serve_smoke.sh [port]
set -eu
cd "$(dirname "$0")/.."
PORT="${1:-18080}"

go build -o /tmp/rideshare-smoke ./cmd/rideshare

/tmp/rideshare-smoke serve -addr "127.0.0.1:$PORT" -drivers 500 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

# Wait for the server to come up (5s budget).
i=0
until curl -sf "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "serve_smoke: server did not come up on port $PORT" >&2
    exit 1
  fi
  sleep 0.1
done
echo "serve_smoke: healthz OK"
curl -sf "http://127.0.0.1:$PORT/healthz"
echo

/tmp/rideshare-smoke loadgen -addr "http://127.0.0.1:$PORT" -tasks 200 -workers 4 -cancel 0.1

kill -INT "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT
echo "serve_smoke: clean shutdown"

# Second leg: the same drill against a batched market (-batch-window).
# -realtime arms the wall-clock window timer, so the final window is
# decided even with no follow-up traffic; loadgen's pending accounting
# covers the rest. -pprof-addr starts the profiling listener (probed
# below).
PPROF_PORT=$((PORT + 1))
/tmp/rideshare-smoke serve -addr "127.0.0.1:$PORT" -drivers 500 \
  -batch-window 30 -realtime \
  -pprof-addr "127.0.0.1:$PPROF_PORT" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

i=0
until curl -sf "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "serve_smoke: batched server did not come up on port $PORT" >&2
    exit 1
  fi
  sleep 0.1
done
echo "serve_smoke: batched healthz OK"

# The profiling surface must answer on its own listener, never on the
# market port.
curl -sf "http://127.0.0.1:$PPROF_PORT/debug/pprof/" >/dev/null
if curl -sf "http://127.0.0.1:$PORT/debug/pprof/" >/dev/null 2>&1; then
  echo "serve_smoke: pprof leaked onto the market port" >&2
  exit 1
fi
echo "serve_smoke: pprof OK"

/tmp/rideshare-smoke loadgen -addr "http://127.0.0.1:$PORT" -tasks 200 -workers 4 -cancel 0.1

kill -INT "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT
echo "serve_smoke: batched clean shutdown"

# Third leg: the street-graph metric (-roadnet). Same drill; every
# travel time the market computes now routes over the synthetic road
# network, so this exercises the router (nearest-node search, ALT
# shortest paths, the shared route cache) under live HTTP traffic.
/tmp/rideshare-smoke serve -addr "127.0.0.1:$PORT" -drivers 500 -roadnet &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

i=0
until curl -sf "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "serve_smoke: roadnet server did not come up on port $PORT" >&2
    exit 1
  fi
  sleep 0.1
done
echo "serve_smoke: roadnet healthz OK"

/tmp/rideshare-smoke loadgen -addr "http://127.0.0.1:$PORT" -tasks 200 -workers 4 -cancel 0.1

kill -INT "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT
echo "serve_smoke: roadnet clean shutdown"
