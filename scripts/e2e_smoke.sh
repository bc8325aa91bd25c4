#!/usr/bin/env bash
# End-to-end serving smoke test: train a tiny synthetic model, save a
# full-estimator checkpoint, start the serving daemon, assert that a
# POST /v1/estimate round trip returns a finite positive cardinality, and
# assert that SIGTERM drains in-flight requests before the daemon exits 0.
# A second act restarts the daemon with -journal, acknowledges an ingested
# row, kills the process with SIGKILL, and asserts the row is replayed and
# absorbed into a refreshed model generation on restart.
# Run from the repository root; used by the CI e2e-smoke job.
set -euo pipefail

ADDR="${NEUROCARDD_ADDR:-127.0.0.1:18642}"
WORKDIR="$(mktemp -d)"
MODELS="$WORKDIR/models"
mkdir -p "$MODELS"

cleanup() {
    [[ -n "${DAEMON_PID:-}" ]] && kill "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

echo "=== training tiny model + writing checkpoint"
go run ./cmd/neurocard -scale 0.05 -tuples 4096 -hidden 48 -embed 8 \
    -psamples 64 -workers 2 -noeval -save "$MODELS/joblight.ckpt"

echo "=== training two-shard fleet + writing manifest"
go run ./cmd/neurocard -scale 0.05 -tuples 4096 -hidden 48 -embed 8 \
    -psamples 64 -workers 2 -noeval \
    -shards 2 -logical fleet -save-shards "$MODELS"
test -f "$MODELS/fleet.manifest.json"
test -f "$MODELS/fleet-s0.ckpt"
test -f "$MODELS/fleet-s1.ckpt"

echo "=== starting neurocardd on $ADDR"
go build -o "$WORKDIR/neurocardd" ./cmd/neurocardd
# The fault-tolerance flags ride along to prove they parse and serve.
"$WORKDIR/neurocardd" -addr "$ADDR" -models "$MODELS" -load joblight \
    -load-manifest fleet -request-timeout 30s -breaker-cooldown 2s &
DAEMON_PID=$!

# Readiness probe: /readyz answers 503 until the model is loaded.
for i in $(seq 1 50); do
    if curl -sf "http://$ADDR/readyz" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
        echo "daemon exited early" >&2
        exit 1
    fi
    sleep 0.2
done

echo "=== health surfaces"
curl -sf "http://$ADDR/livez" | grep -q '"status":"alive"'
READY=$(curl -sf "http://$ADDR/readyz")
echo "$READY"
echo "$READY" | grep -q '"ready":true'
echo "$READY" | grep -q '"degraded":false'
# /livez and /readyz are the health probes; /healthz is not served.
HEALTHZ=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/healthz")
if [[ "$HEALTHZ" != 404 ]]; then
    echo "/healthz answered $HEALTHZ, want 404" >&2
    exit 1
fi

echo "=== single estimate round trip"
RESP=$(curl -sf "http://$ADDR/v1/estimate" -d '{
  "query": {"tables": ["title","movie_companies"],
            "filters": [{"table":"title","col":"production_year","op":">=","int":1990}]},
  "seed": 42}')
echo "$RESP"

EST=$(echo "$RESP" | sed -n 's/.*"est":\([0-9.eE+-]*\).*/\1/p')
if [[ -z "$EST" ]]; then
    echo "no estimate in response" >&2
    exit 1
fi
# Finite positive check (rejects 0, negatives, NaN, Inf — none of which
# survive the sed extraction or the awk comparison).
awk -v est="$EST" 'BEGIN { exit !(est > 0 && est < 1e30) }'
echo "estimate $EST is finite and positive"

echo "=== disjunctive (OR group) estimate round trip"
OR_RESP=$(curl -sf "http://$ADDR/v1/estimate" -d '{
  "query": {"tables": ["title"],
            "filters": [{"table":"title","col":"production_year","op":">=","int":2000,
                         "or": [{"op":"<","int":1950}]}]},
  "seed": 42}')
echo "$OR_RESP"
OR_EST=$(echo "$OR_RESP" | sed -n 's/.*"est":\([0-9.eE+-]*\).*/\1/p')
if [[ -z "$OR_EST" ]]; then
    echo "no estimate in OR response" >&2
    exit 1
fi
awk -v est="$OR_EST" 'BEGIN { exit !(est > 0 && est < 1e30) }'
echo "OR estimate $OR_EST is finite and positive"

echo "=== null-aware (IS NULL) estimate round trip"
NULL_RESP=$(curl -sf "http://$ADDR/v1/estimate" -d '{
  "query": {"tables": ["title"],
            "filters": [{"table":"title","col":"production_year","op":"IS NULL"}]},
  "seed": 42}')
echo "$NULL_RESP"
NULL_EST=$(echo "$NULL_RESP" | sed -n 's/.*"est":\([0-9.eE+-]*\).*/\1/p')
if [[ -z "$NULL_EST" ]]; then
    echo "no estimate in IS NULL response" >&2
    exit 1
fi
awk -v est="$NULL_EST" 'BEGIN { exit !(est > 0 && est < 1e30) }'
echo "IS NULL estimate $NULL_EST is finite and positive"

echo "=== batch estimate round trip"
BATCH=$(curl -sf "http://$ADDR/v1/estimate" -d '{
  "queries": [{"tables": ["title"]},
              {"tables": ["title","movie_keyword"],
               "filters": [{"table":"title","col":"kind_id","op":"=","int":1}]}],
  "seed": 7}')
echo "$BATCH"
echo "$BATCH" | grep -q '"count":2'

echo "=== binary protocol round trip (ncbin vs curl, same seeded request)"
go build -o "$WORKDIR/ncbin" ./cmd/ncbin
BIN_REQ='{
  "query": {"tables": ["title","movie_companies"],
            "filters": [{"table":"title","col":"production_year","op":">=","int":1990}]},
  "seed": 42}'
BIN_RESP=$(echo "$BIN_REQ" | "$WORKDIR/ncbin" -addr "http://$ADDR")
echo "$BIN_RESP"
BIN_EST=$(echo "$BIN_RESP" | sed -n 's/.*"est":\([0-9.eE+-]*\).*/\1/p')
if [[ -z "$BIN_EST" ]]; then
    echo "no estimate in binary response" >&2
    exit 1
fi
# The same seeded query through the binary protocol must produce the exact
# same estimate the JSON protocol produced above — the wire format must not
# perturb results, whichever lane serves the request.
if [[ "$BIN_EST" != "$EST" ]]; then
    echo "binary estimate $BIN_EST != JSON estimate $EST" >&2
    exit 1
fi
echo "binary estimate $BIN_EST matches JSON estimate exactly"

echo "=== metrics"
# Buffer the exposition once: piping curl straight into `head` trips
# pipefail when head closes the pipe before curl finishes writing.
METRICS=$(curl -sf "http://$ADDR/metrics")
echo "$METRICS" | { grep -E 'neurocard_estimate_queries_total|neurocard_sessions' || true; } | head -4
echo "$METRICS" | grep -q 'neurocard_binary_requests_total 1'
echo "$METRICS" | grep -q 'neurocard_slo_p99_target_seconds'
echo "$METRICS" | grep -q 'neurocard_fused_batch_size_count'
echo "$METRICS" | grep -q 'neurocard_estimate_lanes '
echo "binary-protocol and estimate-lane metrics present"

echo "=== fault-tolerance surfaces"
# Malformed client deadline is rejected up front.
DL_STATUS=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/v1/estimate" \
    -H 'X-Deadline-Ms: soon' -d '{"query": {"tables": ["title"]}}')
if [[ "$DL_STATUS" != "400" ]]; then
    echo "bad X-Deadline-Ms answered $DL_STATUS, want 400" >&2
    exit 1
fi
# A healthy closed breaker and the fault counters are on /metrics.
METRICS=$(curl -sf "http://$ADDR/metrics")
echo "$METRICS" | grep -q 'neurocard_breaker_state{model="joblight"} 0'
echo "$METRICS" | grep -q 'neurocard_request_timeouts_total'
echo "$METRICS" | grep -q 'neurocard_fallback_total'
echo "$METRICS" | grep -q 'neurocard_checkpoints_quarantined_total 0'
echo "breaker and fault counters present"
# This daemon runs without -journal, so the ingest route must refuse with 503
# rather than acknowledge rows it cannot make durable.
ING_STATUS=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/v1/models/joblight/ingest" \
    -d '{"tables":[{"table":"movie_keyword","columns":["movie_id","keyword_id"],"rows":[[1,1]]}]}')
if [[ "$ING_STATUS" != "503" ]]; then
    echo "ingest without -journal answered $ING_STATUS, want 503" >&2
    exit 1
fi
echo "ingest without a journal refused with 503"

echo "=== sharded logical model: routed estimate round trip"
# All six tables span both shards of any two-way partition, so this
# estimate exercises the planner split plus the cross-shard combiner.
FLEET_REQ='{
  "model": "fleet",
  "query": {"tables": ["title","cast_info","movie_companies","movie_info","movie_keyword","movie_info_idx"],
            "filters": [{"table":"title","col":"production_year","op":">=","int":1990}]},
  "seed": 42}'
FLEET_RESP=$(curl -sf "http://$ADDR/v1/estimate" -d "$FLEET_REQ")
echo "$FLEET_RESP"
FLEET_EST=$(echo "$FLEET_RESP" | sed -n 's/.*"est":\([0-9.eE+-]*\).*/\1/p')
if [[ -z "$FLEET_EST" ]]; then
    echo "no estimate in sharded response" >&2
    exit 1
fi
awk -v est="$FLEET_EST" 'BEGIN { exit !(est > 0 && est < 1e30) }'
echo "sharded estimate $FLEET_EST is finite and positive"
METRICS=$(curl -sf "http://$ADDR/metrics")
echo "$METRICS" | grep -q 'neurocard_shard_routed_total{logical="fleet",shard="fleet-s0"}'
echo "$METRICS" | grep -q 'neurocard_shard_routed_total{logical="fleet",shard="fleet-s1"}'
echo "$METRICS" | grep -q 'neurocard_logical_queries_total'
echo "per-shard routing counters present"

echo "=== sharded logical model: per-shard hot swap keeps seeded estimates"
curl -sf -X POST "http://$ADDR/v1/models/fleet-s1/load" >/dev/null
SWAP_RESP=$(curl -sf "http://$ADDR/v1/estimate" -d "$FLEET_REQ")
SWAP_EST=$(echo "$SWAP_RESP" | sed -n 's/.*"est":\([0-9.eE+-]*\).*/\1/p')
if [[ "$SWAP_EST" != "$FLEET_EST" ]]; then
    echo "sharded estimate changed across identical hot swap: $SWAP_EST != $FLEET_EST" >&2
    exit 1
fi
echo "seeded sharded estimate unchanged across shard hot swap"

echo "=== sharded logical model: DELETE + reload round trip"
curl -sf -X DELETE "http://$ADDR/v1/models/fleet" | grep -q '"unloaded":"fleet"'
GONE_STATUS=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/v1/estimate" -d "$FLEET_REQ")
if [[ "$GONE_STATUS" != "404" ]]; then
    echo "estimate on unloaded fleet answered $GONE_STATUS, want 404" >&2
    exit 1
fi
curl -sf -X POST "http://$ADDR/v1/models/fleet/load" -d '{"manifest": true}' >/dev/null
RELOAD_RESP=$(curl -sf "http://$ADDR/v1/estimate" -d "$FLEET_REQ")
RELOAD_EST=$(echo "$RELOAD_RESP" | sed -n 's/.*"est":\([0-9.eE+-]*\).*/\1/p')
if [[ "$RELOAD_EST" != "$FLEET_EST" ]]; then
    echo "sharded estimate changed across unload/reload: $RELOAD_EST != $FLEET_EST" >&2
    exit 1
fi
echo "fleet unloaded (404), reloaded from manifest, estimate unchanged"

echo "=== SIGTERM drains in-flight requests and exits 0"
# Launch a large batch so a request is very likely mid-flight when the
# signal lands, then assert both that the response completed and that the
# daemon exited cleanly.
Q='{"tables":["title","movie_companies"],"filters":[{"table":"title","col":"production_year","op":">=","int":1990}]}'
QS="$Q"
for i in $(seq 2 512); do QS="$QS,$Q"; done
printf '{"queries":[%s],"seed":7}' "$QS" > "$WORKDIR/big_batch.json"
curl -s "http://$ADDR/v1/estimate" -d @"$WORKDIR/big_batch.json" \
    -o "$WORKDIR/inflight.json" &
CURL_PID=$!
sleep 0.05
kill -TERM "$DAEMON_PID"
set +e
wait "$DAEMON_PID"
DAEMON_RC=$?
wait "$CURL_PID"
CURL_RC=$?
set -e
DAEMON_PID=""
if [[ "$CURL_RC" != "0" ]]; then
    echo "in-flight request failed during graceful shutdown (curl rc $CURL_RC)" >&2
    exit 1
fi
grep -q '"count":512' "$WORKDIR/inflight.json"
if [[ "$DAEMON_RC" != "0" ]]; then
    echo "daemon exited $DAEMON_RC after SIGTERM, want 0" >&2
    exit 1
fi
echo "in-flight batch completed and daemon exited 0"

echo "=== online ingest: durable ack survives kill -9, replay + refresh on restart"
JOURNALS="$WORKDIR/journals"
# Act one: refresh disabled, so the acknowledged rows are still only in the
# journal when the process dies — the restart exercises the pure replay path.
"$WORKDIR/neurocardd" -addr "$ADDR" -models "$MODELS" -load joblight \
    -journal "$JOURNALS" -max-staleness 1h -refresh-interval 0 &
DAEMON_PID=$!
for i in $(seq 1 50); do
    curl -sf "http://$ADDR/readyz" >/dev/null 2>&1 && break
    if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
        echo "ingest daemon exited early" >&2
        exit 1
    fi
    sleep 0.2
done

# Ingest validates values against the frozen column dictionaries, and the
# synthetic generator leaves some title ids without keyword rows — scan low
# movie ids until one acks. A 400 means "not in this model's dictionary";
# anything else is a real failure.
ACKED_MID=""
for MID in $(seq 1 40); do
    ING_STATUS=$(curl -s -o "$WORKDIR/ingest.json" -w '%{http_code}' \
        "http://$ADDR/v1/models/joblight/ingest" \
        -d "{\"tables\":[{\"table\":\"movie_keyword\",\"columns\":[\"movie_id\",\"keyword_id\"],\"rows\":[[$MID,1]]}]}")
    if [[ "$ING_STATUS" == "200" ]]; then
        ACKED_MID=$MID
        break
    fi
    if [[ "$ING_STATUS" != "400" ]]; then
        echo "ingest movie_id=$MID answered $ING_STATUS, want 200 or 400" >&2
        cat "$WORKDIR/ingest.json" >&2
        exit 1
    fi
done
if [[ -z "$ACKED_MID" ]]; then
    echo "no ingestible movie_id found in 1..40" >&2
    exit 1
fi
cat "$WORKDIR/ingest.json"
grep -q '"durable":true' "$WORKDIR/ingest.json"
grep -q '"rows":1' "$WORKDIR/ingest.json"
# Buffer the exposition (grep -q closing the pipe early trips pipefail).
METRICS=$(curl -sf "http://$ADDR/metrics")
echo "$METRICS" | grep -q 'neurocard_ingest_staleness_rows{model="joblight"} 1'
echo "row for movie_id=$ACKED_MID durably acknowledged and pending"

# kill -9: no drain, no journal close. The fsync-before-ack contract means the
# row must still be there when a new process replays the journal.
kill -9 "$DAEMON_PID"
set +e
wait "$DAEMON_PID"
set -e
DAEMON_PID=""

# Act two: restart with the background refresh armed. Replay happens before
# the listener opens, then the refresh loop absorbs the replayed row into a
# new model generation.
"$WORKDIR/neurocardd" -addr "$ADDR" -models "$MODELS" -load joblight \
    -journal "$JOURNALS" -max-staleness 1h \
    -refresh-interval 250ms -refresh-tuples 0 > "$WORKDIR/restart.log" 2>&1 &
DAEMON_PID=$!
for i in $(seq 1 50); do
    curl -sf "http://$ADDR/readyz" >/dev/null 2>&1 && break
    if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
        echo "restarted daemon exited early" >&2
        cat "$WORKDIR/restart.log" >&2
        exit 1
    fi
    sleep 0.2
done
grep -q '1 rows replayed' "$WORKDIR/restart.log"
echo "journal replayed the acknowledged row after kill -9"

# The refresh loop hot-swaps a new generation (data_generation 1 -> 2).
GEN_OK=""
for i in $(seq 1 50); do
    METRICS=$(curl -sf "http://$ADDR/metrics" || true)
    if echo "$METRICS" | grep -q 'neurocard_data_generation{model="joblight"} 2'; then
        GEN_OK=1
        break
    fi
    sleep 0.2
done
if [[ -z "$GEN_OK" ]]; then
    echo "refresh never produced data generation 2" >&2
    curl -s "http://$ADDR/metrics" | grep 'neurocard_\(data_generation\|refresh\|ingest\)' >&2 || true
    exit 1
fi
POST_RESP=$(curl -sf "http://$ADDR/v1/estimate" -d '{
  "query": {"tables": ["title","movie_keyword"],
            "filters": [{"table":"movie_keyword","col":"keyword_id","op":"=","int":1}]},
  "seed": 42}')
echo "$POST_RESP"
POST_EST=$(echo "$POST_RESP" | sed -n 's/.*"est":\([0-9.eE+-]*\).*/\1/p')
if [[ -z "$POST_EST" ]]; then
    echo "no estimate from the refreshed generation" >&2
    exit 1
fi
awk -v est="$POST_EST" 'BEGIN { exit !(est > 0 && est < 1e30) }'
echo "refreshed generation serves: estimate $POST_EST is finite and positive"
kill -TERM "$DAEMON_PID"
set +e
wait "$DAEMON_PID"
INGEST_RC=$?
set -e
DAEMON_PID=""
if [[ "$INGEST_RC" != "0" ]]; then
    echo "ingest daemon exited $INGEST_RC after SIGTERM, want 0" >&2
    exit 1
fi
echo "ingest daemon drained and exited 0"

echo "e2e smoke OK"
