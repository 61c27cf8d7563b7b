#!/usr/bin/env bash
# Deterministic-replay check.
#
# Builds tools/determinism_probe once and runs it repeatedly. The probe
# prints `state_digest <hex16>` after a fixed seeded scenario; this script
# fails if
#   (a) two runs of the same binary disagree (nondeterminism within a build:
#       wall-clock leak, unseeded randomness, unordered-container ordering), or
#   (b) the sequential engine and the sharded parallel engine at worker
#       thread counts 1, 2, 4 and 8 (`--threads=N`) disagree with each other
#       (engine identity: the parallel engine must compute the exact same
#       world as the sequential engine), or
#   (c) the front-end-driven scenario (`--frontend`: streaming ingest +
#       admission-controlled query service) disagrees run to run, or drifts
#       from its pinned value -- the only
#       probe leg that pulls records through GeneratorTraceSource, so the
#       pin also guards the generator's output stream, or
#   (d) the closed-loop digest drifts from its pinned value, or
#   (e) any closed-loop leg prints a different `result_digest` -- the digest
#       of the query results delivered to the client, in delivery order --
#       or it drifts from its pinned value. The state digest does not see
#       the output clients see (which results arrive, in what order, with
#       what latency and tuples); this does.
#
# There is one delivery semantics, so there is one pinned closed-loop digest
# and one pinned result digest: every engine leg must print both.
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

echo "== configure + build =="
cmake -B "${BUILD}" -S . >/dev/null
cmake --build "${BUILD}" --target determinism_probe -j >/dev/null

probe_bin="${BUILD}/tools/determinism_probe"
fail=0
out="$(probe "${probe_bin}")"
check_result "run 1" "${out}"
run1="${out% *}"
out="$(probe "${probe_bin}")"
check_result "run 2" "${out}"
run2="${out% *}"

echo "run 1:                 ${run1}"
echo "run 2:                 ${run2}"
echo "result stream:         ${out#* }"

if [[ "${run1}" != "${run2}" ]]; then
  echo "FAIL: two runs of the same binary diverged -- the simulation is" \
       "nondeterministic (run tools/run_analyze.sh; check recent unordered iteration)" >&2
  fail=1
fi
echo
echo "== front-end replay (ingest pipeline + admission-controlled queries) =="
fe1="$(digest "${probe_bin}" --frontend)"
fe2="$(digest "${probe_bin}" --frontend)"
echo "frontend run 1:        ${fe1}"
echo "frontend run 2:        ${fe2}"
if [[ "${fe1}" != "${fe2}" ]]; then
  echo "FAIL: two front-end runs diverged -- src/frontend leaked" \
       "nondeterminism (unordered lane/queue iteration?)" >&2
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

if [[ "${fail}" -ne 0 ]]; then
  exit 1
fi
echo
echo "OK: deterministic replay verified (closed loop ${run1}," \
     "results ${PINNED_RESULTS}, frontend ${fe1})"
