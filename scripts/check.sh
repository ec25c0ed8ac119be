#!/bin/sh
# Pre-merge gate: build the default and sanitizer presets, run the full
# test suite under both, run a forced-scalar (ECOMP_SIMD=OFF) pass with
# a vector-ISA link-hygiene check, build and run the standalone
# perfbench/ helper tests, run the energy regression gate
# (benchdiff of fresh fig1/fig2/fig3 sidecars against bench/baselines —
# see scripts/bench_gate.sh), then verify the observability layer's overhead
# budget — instrumented (ECOMP_OBS=ON) codec throughput may regress at
# most ECOMP_OBS_BUDGET_PCT percent (default 3) against an =OFF build.
#
#   scripts/check.sh
#
# Environment:
#   ECOMP_CHECK_JOBS       parallel build jobs (default: nproc)
#   ECOMP_OBS_BUDGET_PCT   overhead budget in percent (default: 3)
#   ECOMP_CHECK_SKIP_BENCH set to 1 to skip the overhead gate
#
# A failed energy regression gate or overhead gate is recorded rather
# than fatal: every later step still runs, and the script exits
# non-zero at the end, naming the gates that failed.
set -e
cd "$(dirname "$0")/.."

JOBS="${ECOMP_CHECK_JOBS:-$(nproc)}"
BUDGET="${ECOMP_OBS_BUDGET_PCT:-3}"

echo "== preset 1: default (ECOMP_OBS=ON) =="
cmake -B build-check -S . -DECOMP_OBS=ON >/dev/null
cmake --build build-check -j "$JOBS"
ctest --test-dir build-check --output-on-failure -j "$JOBS"

echo
echo "== preset 2: ASan+UBSan (ECOMP_OBS=ON) =="
cmake -B build-check-asan -S . -DECOMP_OBS=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
  >/dev/null
cmake --build build-check-asan -j "$JOBS"
ctest --test-dir build-check-asan --output-on-failure -j "$JOBS"

echo
echo "== preset 3: TSan (concurrency/robustness/load/observability/profiling/monitoring) =="
# ThreadSanitizer cannot combine with ASan, so it gets its own tree; it
# runs the suites that actually spawn threads (the parallel block
# pipeline, threaded interleaving, shared-instance contracts, the
# fault matrix's server/client pairs, the worker-pool proxy's
# admission/shedding/drain paths under 100 concurrent clients, the
# telemetry layer's sharded histograms + proxy/client event logging,
# the profiler's SIGPROF sampler + collector + flight-recorder ring,
# and the monitor's sampler thread + watchdog against a live proxy).
cmake -B build-check-tsan -S . -DECOMP_OBS=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all" \
  >/dev/null
cmake --build build-check-tsan -j "$JOBS" \
  --target ecomp_concurrency_tests ecomp_robustness_tests \
  ecomp_load_tests ecomp_observability_tests ecomp_profiling_tests \
  ecomp_monitoring_tests
ctest --test-dir build-check-tsan \
  -L "concurrency|robustness|load|observability|profiling|monitoring" \
  --output-on-failure -j "$JOBS"

echo
echo "== preset 4: forced scalar (ECOMP_SIMD=OFF) =="
# The dispatched kernels must be a pure speed knob: an =OFF build (also
# what non-x86 ports get) runs the codec/differential suite and the
# threaded codec suite on the always-compiled scalar fallbacks. The
# simd label's differential tests degenerate to scalar-vs-scalar here,
# but the codec byte-identity and BWT/Huffman reference checks still
# exercise the full pipelines. The salvage golden's crc_ok verdicts and
# data CRCs were recorded with the vector CRC kernel, so the scalar CRC
# must reproduce every line of it.
cmake -B build-check-scalar -S . -DECOMP_OBS=ON -DECOMP_SIMD=OFF >/dev/null
cmake --build build-check-scalar -j "$JOBS" \
  --target ecomp_tests ecomp_simd_tests ecomp_concurrency_tests \
  ecomp_robustness_tests
ctest --test-dir build-check-scalar -L "simd|concurrency" \
  --output-on-failure -j "$JOBS"
ctest --test-dir build-check-scalar --output-on-failure -j "$JOBS" \
  -R "Codec|Deflate|Huffman|Bwt|Lz77|Bitio|Container|SalvageGolden"

echo
echo "== ECOMP_SIMD=OFF link hygiene: zero vector-ISA kernels =="
# ECOMP_SIMD=OFF must compile out every target("...")-attributed kernel:
# the scalar fallback is the only code path, so no AVX2/CLMUL symbol may
# survive into the test binary. The ON build must conversely still carry
# them (guards against the dispatch table silently losing its fast
# tiers).
if nm -C build-check-scalar/tests/ecomp_simd_tests | grep -E \
  "simd::detail::(match_length_(sse2|avx2)|find_byte_(sse2|avx2)|crc32_clmul)" \
  ; then
  echo "FAIL: ECOMP_SIMD=OFF binary still contains vector-ISA kernels" >&2
  exit 1
fi
if ! nm -C build-check/tests/ecomp_simd_tests | grep -qE \
  "simd::detail::(match_length_avx2|crc32_clmul)"; then
  echo "FAIL: default (ECOMP_SIMD=ON) build lost its vector-ISA kernels" >&2
  exit 1
fi
echo "simd link hygiene: OK"

echo
echo "== perfbench helper tests (standalone perfbench/ build) =="
# perfbench/ builds the ecomp libraries from src/ on its own; its
# helper tests pin, among other things, the exact request line each
# client entry point puts on the wire, so a refactor of net/ that
# changes a request byte fails here.
cmake -B build-check-perfbench -S perfbench \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-check-perfbench -j "$JOBS" --target perfbench_tests
build-check-perfbench/perfbench_tests

if [ "${ECOMP_CHECK_SKIP_BENCH:-0}" = "1" ]; then
  echo "overhead + energy gates skipped (ECOMP_CHECK_SKIP_BENCH=1)"
  exit 0
fi

echo
echo "== energy regression gate: benchdiff vs bench/baselines =="
failed_gates=""
scripts/bench_gate.sh build-check || failed_gates="$failed_gates energy"

echo
echo "== overhead gate: bench_codec_throughput ON vs OFF (budget ${BUDGET}%) =="
# The ON build carries the whole prof subsystem compiled in but idle
# (zone markers are one relaxed load when no profile runs), so this
# budget is also the profiler's at-rest overhead envelope.
cmake -B build-check-obsoff -S . -DECOMP_OBS=OFF >/dev/null
cmake --build build-check-obsoff -j "$JOBS" --target bench_codec_throughput

echo
echo "== ECOMP_OBS=OFF link hygiene: zero prof/monitor symbols in ecomp =="
# zone.h is header-only exactly so an =OFF build needs no link
# edge to ecomp_prof; likewise the monitor subsystem (sampler, series
# store, watchdog, rule parser) is compiled only under ECOMP_OBS=ON. If
# any such symbol shows up in the =OFF CLI binary, that contract broke.
cmake --build build-check-obsoff -j "$JOBS" --target ecomp
if nm -C build-check-obsoff/tools/ecomp | grep -E \
  "prof::(Profiler|FlightRecorder|install_crash_handler|fatal_dump|attach_flight_mirror|rss_peak_kb|write_folded)|obs::(Monitor|SeriesStore|Series|Watchdog|parse_rules)" \
  ; then
  echo "FAIL: ECOMP_OBS=OFF ecomp binary references prof/monitor symbols" >&2
  exit 1
fi
echo "link hygiene: OK"

BENCH_ARGS="--benchmark_repetitions=3 --benchmark_min_time=0.2"
# gbench runs all repetitions of one invocation in a single process, so
# interleave at the process level instead: five passes per side in
# OFF/ON/OFF/ON... order, then take each benchmark's best median per
# side. A slow machine-load transient then has to hit every pass of one
# side (and none of the other) to bias the ratio; two passes per side
# read +3.21% and then -6.29% on one unchanged tree.
GATE_PASSES=5
for pass_n in $(seq 1 "$GATE_PASSES"); do
  mkdir -p "build-check/obs_gate/on$pass_n" "build-check/obs_gate/off$pass_n"
  ECOMP_BENCH_DIR="build-check/obs_gate/off$pass_n" \
    build-check-obsoff/bench/bench_codec_throughput $BENCH_ARGS >/dev/null
  ECOMP_BENCH_DIR="build-check/obs_gate/on$pass_n" \
    build-check/bench/bench_codec_throughput $BENCH_ARGS >/dev/null
done

python3 - "$BUDGET" "$GATE_PASSES" <<'EOF' || failed_gates="$failed_gates overhead"
import json, math, sys

budget_pct = float(sys.argv[1])
gate_passes = int(sys.argv[2])

def medians(path):
    report = json.load(open(path))
    out = {}
    for key, value in report["headline"].items():
        if key.endswith("_median.real_s"):
            out[key[: -len("_median.real_s")]] = value
    return out

def best_of(side):
    passes = [
        medians(f"build-check/obs_gate/{side}{n}/BENCH_codec_throughput.json")
        for n in range(1, gate_passes + 1)
    ]
    common = set.intersection(*(set(p) for p in passes))
    return {name: min(p[name] for p in passes) for name in common}

m_on, m_off = best_of("on"), best_of("off")
common = sorted(set(m_on) & set(m_off))
if not common:
    sys.exit("overhead gate: no common median measurements found")

log_sum = 0.0
print(f"{'benchmark':32s} {'off (ms)':>10s} {'on (ms)':>10s} {'ratio':>7s}")
for name in common:
    ratio = m_on[name] / m_off[name]
    log_sum += math.log(ratio)
    print(f"{name:32s} {m_off[name]*1e3:10.2f} {m_on[name]*1e3:10.2f} "
          f"{ratio:7.3f}")
geo = math.exp(log_sum / len(common))
overhead_pct = (geo - 1.0) * 100.0
print(f"geometric-mean overhead: {overhead_pct:+.2f}% (budget {budget_pct}%)")
if overhead_pct > budget_pct:
    sys.exit(f"FAIL: instrumentation overhead {overhead_pct:.2f}% exceeds "
             f"budget {budget_pct}%")
print("overhead gate: OK")
EOF

echo
if [ -n "$failed_gates" ]; then
  echo "check.sh: FAILED gates:$failed_gates" >&2
  exit 1
fi
echo "check.sh: all gates passed"
