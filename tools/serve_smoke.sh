#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of dmfb-server: boot it on a
# free port, POST the same PCR compile twice, and assert the second
# response is a byte-identical hit (a replay of the first job); POST
# the compile with "verify":true and assert it is a placement-cache hit
# with a different body; POST one faulted simulate twice, compare the
# bodies and expect its router.* and reconfig.* metrics and the
# replay counter on /metrics (the server runs without -metrics, so
# they reach only the server's own registry); then SIGTERM and expect
# a graceful zero-status drain.
# Exercises the real binary (flags, listener, ops endpoints, shutdown
# path) where the unit tests use httptest.
set -eu

bin=${1:?usage: serve_smoke.sh <dmfb-server-binary>}
tmp=$(mktemp -d)
pid=
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT

"$bin" -addr 127.0.0.1:0 2> "$tmp/stderr" &
pid=$!

url=
for _ in $(seq 1 100); do
    url=$(sed -n 's#^dmfb-server: listening on \(http://.*\)$#\1#p' "$tmp/stderr")
    [ -n "$url" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "server died at startup:"; cat "$tmp/stderr"; exit 1; }
    sleep 0.1
done
[ -n "$url" ] || { echo "server never reported its address"; cat "$tmp/stderr"; exit 1; }

body='{"assay":"pcr","placer":"sa","seed":1}'
curl -fsS -D "$tmp/h1" -o "$tmp/b1" -d "$body" "$url/v1/compile"
curl -fsS -D "$tmp/h2" -o "$tmp/b2" -d "$body" "$url/v1/compile"

grep -qi '^X-Dmfb-Cache: miss' "$tmp/h1" || { echo "first request was not a cache miss:"; cat "$tmp/h1"; exit 1; }
grep -qi '^X-Dmfb-Cache: hit' "$tmp/h2" || { echo "second request was not a cache hit:"; cat "$tmp/h2"; exit 1; }
cmp -s "$tmp/b1" "$tmp/b2" || { echo "cached response differs from fresh response"; exit 1; }
grep -q '"fti":' "$tmp/b1" || { echo "compile response missing fti:"; cat "$tmp/b1"; exit 1; }

# Same placement, different body: served from the placement cache.
verify='{"assay":"pcr","placer":"sa","seed":1,"verify":true}'
curl -fsS -D "$tmp/h3" -o "$tmp/b3" -d "$verify" "$url/v1/compile"
grep -qi '^X-Dmfb-Cache: hit' "$tmp/h3" || { echo "verify compile was not a placement-cache hit:"; cat "$tmp/h3"; exit 1; }
if cmp -s "$tmp/b1" "$tmp/b3"; then echo "verify compile returned the plain compile's body"; exit 1; fi

sim='{"assay":"pcr","placer":"twostage","seed":1,"beta":40,"faults":[{"time_sec":1,"x":2,"y":2}]}'
curl -fsS -o "$tmp/sim" -d "$sim" "$url/v1/simulate"
grep -q '"outcome":"completed"' "$tmp/sim" || { echo "faulted simulate did not complete:"; cat "$tmp/sim"; exit 1; }
curl -fsS -o "$tmp/sim2" -d "$sim" "$url/v1/simulate"
cmp -s "$tmp/sim" "$tmp/sim2" || { echo "repeated simulate response differs"; exit 1; }

curl -fsS "$url/healthz" | grep -qx ok || { echo "/healthz failed"; exit 1; }
curl -fsS "$url/metrics" > "$tmp/metrics"
grep -q dmfb_pcache_hits "$tmp/metrics" || { echo "/metrics missing cache counters"; exit 1; }
grep -q '^dmfb_router_routes ' "$tmp/metrics" || { echo "/metrics missing the simulate's router counters"; exit 1; }
grep -q '^dmfb_reconfig_relocations ' "$tmp/metrics" || { echo "/metrics missing the simulate's reconfig counters"; exit 1; }
grep -q '^dmfb_server_replays ' "$tmp/metrics" || { echo "/metrics missing the replay counter"; exit 1; }
curl -fsS "$url/progress" | grep -q '"tool": "dmfb-server"' || { echo "/progress missing tool name"; exit 1; }

kill -TERM "$pid"
wait "$pid" || { echo "server exited nonzero on SIGTERM:"; cat "$tmp/stderr"; exit 1; }
echo "serve-smoke: ok (byte-identical replay, placement-cache hit, simulate metrics, graceful SIGTERM drain)"
