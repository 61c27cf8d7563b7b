#!/usr/bin/env bash
# Deterministic-replay check.
#
# Builds the repo twice -- telemetry ON (the default) and telemetry OFF --
# and runs tools/determinism_probe in each configuration. The probe prints
# `state_digest <hex16>` after a fixed seeded scenario; this script fails if
#   (a) two runs of the same binary disagree (nondeterminism within a build:
#       wall-clock leak, unseeded randomness, unordered-container ordering), or
#   (b) the telemetry-ON and telemetry-OFF digests disagree (telemetry
#       recording changed simulation behaviour), or
#   (c) the sequential engine and the sharded parallel engine at worker
#       thread counts 1, 2, 4 and 8 (`--threads=N`) disagree with each other
#       (engine identity: the parallel engine must compute the exact same
#       world as the sequential engine), or
#   (d) the front-end-driven scenario (`--frontend`: streaming ingest +
#       admission-controlled query service) disagrees run to run or across
#       MIND_TELEMETRY settings, or drifts from its pinned value -- the only
#       probe leg that pulls records through GeneratorTraceSource, so the
#       pin also guards the generator's output stream, or
#   (e) the closed-loop digest drifts from its pinned value, or
#   (f) the pinned digest fails to survive an MSN1 snapshot save/load cycle
#       (`--snapshot-roundtrip`: the restore's internal digest gate plus the
#       printed pre-snapshot digest), serial and parallel -- week-long
#       campaigns must resume bit-identically, or
#   (g) any closed-loop leg prints a different `result_digest` -- the digest
#       of the query results delivered to the client, in delivery order --
#       or it drifts from its pinned value. The state digest does not see
#       the output clients see (which results arrive, in what order, with
#       what latency and tuples); this does.
#
# There is one delivery semantics, so there is one pinned closed-loop digest
# and one pinned result digest: every engine, telemetry setting and snapshot
# leg must print both.
#
# Usage: tools/check_determinism.sh [build-dir]   (default: build-determinism)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build-determinism}"

probe() {  # probe <binary> [flags...] -> "<state_digest> <result_digest>"
  local bin="$1"; shift
  local out state result
  out="$("${bin}" "$@")"
  state="$(awk '/^state_digest /{print $2}' <<<"${out}")"
  result="$(awk '/^result_digest /{print $2}' <<<"${out}")"
  if [[ -z "${state}" ]]; then
    echo "error: ${bin} $* printed no state_digest" >&2
    exit 1
  fi
  echo "${state} ${result:-none}"
}

digest() {  # digest <binary> [flags...]  -> prints the state digest
  local both
  both="$(probe "$@")"
  echo "${both% *}"
}

# Every closed-loop leg must deliver this result stream.
PINNED_RESULTS="85eee60e37694036"
check_result() {  # check_result <leg label> <"state result" pair>
  local result="${2#* }"
  if [[ "${result}" != "${PINNED_RESULTS}" ]]; then
    echo "FAIL: ${1} delivered result stream ${result} != pinned" \
         "${PINNED_RESULTS} -- clients saw different results, order or" \
         "latencies" >&2
    fail=1
  fi
}

echo "== configure + build (telemetry ON) =="
cmake -B "${BUILD}/on" -S . -DMIND_TELEMETRY=ON >/dev/null
cmake --build "${BUILD}/on" --target determinism_probe -j >/dev/null

echo "== configure + build (telemetry OFF) =="
cmake -B "${BUILD}/off" -S . -DMIND_TELEMETRY=OFF >/dev/null
cmake --build "${BUILD}/off" --target determinism_probe -j >/dev/null

fail=0
out="$(probe "${BUILD}/on/tools/determinism_probe")"
check_result "run 1" "${out}"
run1="${out% *}"
out="$(probe "${BUILD}/on/tools/determinism_probe")"
check_result "run 2" "${out}"
run2="${out% *}"
out="$(probe "${BUILD}/off/tools/determinism_probe")"
check_result "run 3 (telemetry off)" "${out}"
run_off="${out% *}"

echo "run 1 (telemetry on):  ${run1}"
echo "run 2 (telemetry on):  ${run2}"
echo "run 3 (telemetry off): ${run_off}"
echo "result stream:         ${out#* }"

if [[ "${run1}" != "${run2}" ]]; then
  echo "FAIL: two runs of the same binary diverged -- the simulation is" \
       "nondeterministic (run tools/run_analyze.sh; check recent unordered iteration)" >&2
  fail=1
fi
if [[ "${run1}" != "${run_off}" ]]; then
  echo "FAIL: telemetry ON and OFF builds diverged -- some recording call" \
       "changes simulation state (telemetry must be observation-only)" >&2
  fail=1
fi
echo
echo "== front-end replay (ingest pipeline + admission-controlled queries) =="
fe1="$(digest "${BUILD}/on/tools/determinism_probe" --frontend)"
fe2="$(digest "${BUILD}/on/tools/determinism_probe" --frontend)"
fe_off="$(digest "${BUILD}/off/tools/determinism_probe" --frontend)"
echo "frontend run 1 (telemetry on):  ${fe1}"
echo "frontend run 2 (telemetry on):  ${fe2}"
echo "frontend run 3 (telemetry off): ${fe_off}"
if [[ "${fe1}" != "${fe2}" ]]; then
  echo "FAIL: two front-end runs diverged -- src/frontend leaked" \
       "nondeterminism (unordered lane/queue iteration?)" >&2
  fail=1
fi
if [[ "${fe1}" != "${fe_off}" ]]; then
  echo "FAIL: front-end digests differ across MIND_TELEMETRY settings --" \
       "a frontend.* recording call changes simulation state" >&2
  fail=1
fi
PINNED_FRONTEND="f7807fe86e70c60d"
if [[ "${fe1}" != "${PINNED_FRONTEND}" ]]; then
  echo "FAIL: front-end digest ${fe1} != pinned ${PINNED_FRONTEND} -- the" \
       "generator trace, ingest or query service changed behaviour" >&2
  fail=1
fi

echo
echo "== closed-loop pin =="
PINNED="83a37054ff6b7be4"
echo "pinned:                ${PINNED}"
if [[ "${run1}" != "${PINNED}" ]]; then
  echo "FAIL: digest ${run1} != pinned ${PINNED} -- the closed-loop" \
       "replay changed behaviour" >&2
  fail=1
fi

echo
echo "== engine identity (sequential engine vs parallel thread counts) =="
probe_bin="${BUILD}/on/tools/determinism_probe"
for t in 1 2 4 8; do
  out="$(probe "${probe_bin}" --threads="${t}")"
  check_result "threads=${t}" "${out}"
  dt="${out% *}"
  echo "threads=${t}:           ${dt}  results ${out#* }"
  if [[ "${dt}" != "${run1}" ]]; then
    echo "FAIL: parallel engine at ${t} thread(s) diverged from the" \
         "sequential digest -- a shard executed something the" \
         "conservative window should have forbidden" >&2
    fail=1
  fi
done

echo
echo "== snapshot roundtrip (MSN1 save/load must preserve the digest) =="
for flags in "" "--threads=4"; do
  out="$(probe "${probe_bin}" ${flags} --snapshot-roundtrip)"
  check_result "${flags:-serial} snapshot leg" "${out}"
  snap="${out% *}"
  echo "${flags:-serial} through save/load:  ${snap}  results ${out#* }"
  if [[ "${snap}" != "${PINNED}" ]]; then
    echo "FAIL: digest ${snap} != pinned ${PINNED} after a ${flags:-serial}" \
         "snapshot save/load cycle -- the MSN1 format dropped or distorted" \
         "state" >&2
    fail=1
  fi
done

if [[ "${fail}" -ne 0 ]]; then
  exit 1
fi
echo
echo "OK: deterministic replay verified (closed loop ${run1}," \
     "results ${PINNED_RESULTS}, frontend ${fe1})"
