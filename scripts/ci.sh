#!/usr/bin/env bash
# Tier-1 verification from a clean tree (the line ROADMAP.md pins):
# configure, build, run the full gtest suite via ctest, smoke the repository
# benchmark (perfbench/test_perfbench.py), then smoke the unified experiment
# runner — `radio_bench run --all` on a tiny trial budget
# must emit 18 manifests that scripts/bench_report.py validates. This gates
# registry completeness and manifest well-formedness, not performance.
#
# Static-analysis stages (docs/static-analysis.md):
#   * radio-lint runs right after the configure step, before the full build —
#     it needs only the sources plus compile_commands.json and fails fast on
#     invariant violations (raw parsing, global RNG, wall clocks in sim code,
#     unregistered stream tags, layer-map violations, ...). Diff-aware: the
#     per-file rules get a quick dedicated pass over just the files changed
#     since the merge-base with origin/main; the whole-tree passes
#     (layer-conformance include graph, stream-tag-registry) always run over
#     the full tree because their invariants are global.
#   * clang-tidy runs diff-aware against origin/main when the tool is
#     installed (bugprone/concurrency/performance profile in .clang-tidy);
#     absent tool = announced skip, never a silent pass of a broken config.
#   * GCC -fanalyzer is opt-in via RADIO_CI_FANALYZER=1 (mirrors the
#     sanitizer-stage pattern): a separate build dir compiled with
#     -fanalyzer, smoke ctest subset to prove the binaries still work.
#
# Sanitizer stages (skippable via RADIO_CI_SKIP_SANITIZERS=1 for the fast
# local loop) share one parameterized rebuild/ctest/fuzz function:
#   * asan: ASan+UBSan, full suite + 10k-iteration fuzz smoke per harness —
#     memory bugs and UB in the input boundary fail CI rather than silently
#     corrupting experiment numbers.
#   * tsan: ThreadSanitizer over the OpenMP-heavy suites (trial runner,
#     thread-count determinism, dense/sparse dual-path differential tests)
#     at OMP_NUM_THREADS=4 — data races in run_trials' failure capture or
#     the engine's parallel paths fail CI.
#
# Usage: scripts/ci.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"

# ------------------------------------------------------------- configure
# Configure before linting: the layer/tag passes want compile_commands.json
# (the project always exports it) but none of the compiled artifacts.
rm -rf "$BUILD_DIR"
cmake -B "$BUILD_DIR" -S .

# ---------------------------------------------------------------- radio-lint
# Diff-aware fast path: per-file rules over just the files changed since the
# merge-base, so a violation in the diff fails within a second.
BASE="$(git merge-base HEAD origin/main 2>/dev/null || true)"
if [[ -n "$BASE" ]]; then
  LINT_FILES=()
  while IFS= read -r f; do
    [[ -f "$f" ]] && LINT_FILES+=("$f")
  done < <(git diff --name-only "$BASE" -- \
             'src/**' 'bench/**' 'examples/**' \
           | grep -E '\.(cpp|cc|cxx|hpp|h|hh|inl)$' || true)
  if [[ ${#LINT_FILES[@]} -gt 0 ]]; then
    echo "ci: radio-lint (diff) over ${#LINT_FILES[@]} file(s)" >&2
    python3 scripts/radio_lint.py "${LINT_FILES[@]}"
  fi
fi
# Whole-tree invariants cannot be diff-scoped: the include-graph and tag
# registry passes by name (the acceptance gate), then every per-file rule
# over the scan roots plus all translation units CMake knows about.
python3 scripts/radio_lint.py --rule layer-conformance --rule stream-tag-registry
python3 scripts/radio_lint.py \
  --compile-commands "$BUILD_DIR/compile_commands.json"

# ------------------------------------------------------- build + full ctest
cmake --build "$BUILD_DIR" -j
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# ------------------------------------------------------- benchmark smoke
# The repository benchmark (perfbench/, BENCHMARK.json) compiles the library
# sources itself; its smoke test builds it and runs every workload at tiny
# sizes, so a library change that breaks the benchmark's build or its
# digest/metric checks fails here rather than at benchmark time.
python3 perfbench/test_perfbench.py

# ------------------------------------------------------------- bench smoke
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
"$BUILD_DIR/bench/radio_bench" run --all --trials 2 --seed 7 --quick \
  --out "$SMOKE_DIR" > "$SMOKE_DIR/stdout.txt"
python3 scripts/bench_report.py --check "$SMOKE_DIR"

# Generation microbench smoke: the sparse CSR rows must still fold into a
# BENCH_run.json entry, so a renamed benchmark fails here instead of
# quietly dropping out of the perf record.
"$BUILD_DIR/bench/bench_graph_gen" --benchmark_filter=Sparse \
  --benchmark_min_time=0.01 --benchmark_format=json \
  | python3 scripts/bench_report.py "$SMOKE_DIR" \
      --bench-json "$SMOKE_DIR/BENCH_run.json" --gen-sweep /dev/stdin

# Malformed-input smoke: every rejection path must exit non-zero with a
# one-line diagnostic, never crash (see docs/experiments.md, "Error
# handling & input validation").
if "$BUILD_DIR/bench/radio_bench" run E1 --trials=abc 2>/dev/null; then
  echo "ci: radio_bench accepted --trials=abc" >&2; exit 1
fi
if RADIO_TRIALS=junk "$BUILD_DIR/bench/radio_bench" run E1 2>/dev/null; then
  echo "ci: radio_bench accepted RADIO_TRIALS=junk" >&2; exit 1
fi
if "$BUILD_DIR/bench/radio_bench" run E2 --graph-backend=dense 2>/dev/null; then
  echo "ci: radio_bench accepted --graph-backend=dense" >&2; exit 1
fi

# ---------------------------------------------------------- streaming smoke
# E16 end to end twice: the manifests must pass the throughput gate (every
# stable row at or below the GHK bound, bench_report.py --check) and the
# metrics must be byte-identical at OMP_NUM_THREADS=1 vs 4 — the streaming
# determinism contract (DESIGN.md §9) checked on the real CLI artifacts,
# not just in-process (StreamDeterminism covers that).
STREAM_DIR_1="$(mktemp -d)"; STREAM_DIR_4="$(mktemp -d)"
OMP_NUM_THREADS=1 "$BUILD_DIR/bench/radio_bench" run E16 --trials 2 --seed 7 \
  --quick --out "$STREAM_DIR_1" > /dev/null
OMP_NUM_THREADS=4 "$BUILD_DIR/bench/radio_bench" run E16 --trials 2 --seed 7 \
  --quick --out "$STREAM_DIR_4" > /dev/null
python3 scripts/bench_report.py --check --expect E16 "$STREAM_DIR_1"
if ! diff <(grep -v '"event":"summary"' "$STREAM_DIR_1/metrics.jsonl") \
          <(grep -v '"event":"summary"' "$STREAM_DIR_4/metrics.jsonl"); then
  echo "ci: E16 metrics differ between OMP_NUM_THREADS=1 and 4" >&2; exit 1
fi
rm -rf "$STREAM_DIR_1" "$STREAM_DIR_4"
echo "ci: streaming smoke ok (E16 gate + thread determinism)" >&2

# The gossip path gets the same CLI-level determinism check: E12 runs the
# broadcast protocols on an all-informed GossipSession view, and its metrics
# must not depend on the thread count either.
GOSSIP_DIR_1="$(mktemp -d)"; GOSSIP_DIR_4="$(mktemp -d)"
OMP_NUM_THREADS=1 "$BUILD_DIR/bench/radio_bench" run E12 --trials 2 --seed 7 \
  --quick --out "$GOSSIP_DIR_1" > /dev/null
OMP_NUM_THREADS=4 "$BUILD_DIR/bench/radio_bench" run E12 --trials 2 --seed 7 \
  --quick --out "$GOSSIP_DIR_4" > /dev/null
if ! diff <(grep -v '"event":"summary"' "$GOSSIP_DIR_1/metrics.jsonl") \
          <(grep -v '"event":"summary"' "$GOSSIP_DIR_4/metrics.jsonl"); then
  echo "ci: E12 metrics differ between OMP_NUM_THREADS=1 and 4" >&2; exit 1
fi
rm -rf "$GOSSIP_DIR_1" "$GOSSIP_DIR_4"
echo "ci: gossip smoke ok (E12 thread determinism)" >&2

# E7 runs its guided searches on the batch engine, one lane per probe of a
# generation: its metrics and the engine's push/pull fold counts (the
# manifest note) are deterministic, so neither may depend on the thread
# count. Push and pull folds agreeing with solo sessions is pinned by
# BatchEquivalence.PushAndPullFoldsMatchSoloSessions.
FOLD_DIR_1="$(mktemp -d)"; FOLD_DIR_4="$(mktemp -d)"
OMP_NUM_THREADS=1 "$BUILD_DIR/bench/radio_bench" run E7 --trials 2 --seed 7 \
  --quick --out "$FOLD_DIR_1" > /dev/null
OMP_NUM_THREADS=4 "$BUILD_DIR/bench/radio_bench" run E7 --trials 2 --seed 7 \
  --quick --out "$FOLD_DIR_4" > /dev/null
if ! diff <(grep -v '"event":"summary"' "$FOLD_DIR_1/metrics.jsonl") \
          <(grep -v '"event":"summary"' "$FOLD_DIR_4/metrics.jsonl"); then
  echo "ci: E7 metrics differ between OMP_NUM_THREADS=1 and 4" >&2; exit 1
fi
if ! diff <(grep -o 'batch engine folds[^"]*' "$FOLD_DIR_1/e7.manifest.json") \
          <(grep -o 'batch engine folds[^"]*' "$FOLD_DIR_4/e7.manifest.json"); then
  echo "ci: E7 fold counts differ between OMP_NUM_THREADS=1 and 4" >&2; exit 1
fi
rm -rf "$FOLD_DIR_1" "$FOLD_DIR_4"
echo "ci: batch smoke ok (E7 thread determinism, fold counts included)" >&2

# ----------------------------------------------------------- giant-n smoke
# The implicit backend's reason to exist: one E2 row at n = 10^7 driven
# end to end through ImplicitGnp (skippable alongside the sanitizers for the
# fast local loop; the 600s budget is ~15x the single-core wall time, so a
# timeout means the O(n²) wall is back, not a slow machine).
if [[ "${RADIO_CI_SKIP_GIANT:-${RADIO_CI_SKIP_SANITIZERS:-0}}" != "1" ]]; then
  GIANT_DIR="$(mktemp -d)"
  timeout 600 "$BUILD_DIR/bench/radio_bench" run E2 --trials 1 --seed 7 \
    --quick --graph-backend implicit --out "$GIANT_DIR" \
    > "$GIANT_DIR/stdout.txt"
  grep -q '"graph_backend": "implicit"' "$GIANT_DIR/e2.manifest.json" || {
    echo "ci: giant-n manifest does not record the implicit backend" >&2
    exit 1
  }
  grep -q '^| 10000000 ' "$GIANT_DIR/stdout.txt" || {
    echo "ci: giant-n run did not produce the n=10^7 row" >&2; exit 1
  }
  rm -rf "$GIANT_DIR"
  echo "ci: giant-n smoke ok (E2 implicit, n=10^7)" >&2
fi

# -------------------------------------------------------------- clang-tidy
# Diff-aware: lint only translation units changed since the merge-base with
# origin/main; fall back to the full src/+bench/ sweep when there is no
# usable base (fresh clone, detached CI checkout, first commit).
if command -v clang-tidy >/dev/null 2>&1; then
  TIDY_FILES=()
  BASE="$(git merge-base HEAD origin/main 2>/dev/null || true)"
  if [[ -n "$BASE" ]] && ! git diff --quiet "$BASE" -- src bench 2>/dev/null; then
    while IFS= read -r f; do
      [[ -f "$f" ]] && TIDY_FILES+=("$f")
    done < <(git diff --name-only "$BASE" -- 'src/**/*.cpp' 'bench/*.cpp')
  elif [[ -z "$BASE" ]]; then
    while IFS= read -r f; do
      TIDY_FILES+=("$f")
    done < <(git ls-files 'src/**/*.cpp' 'bench/*.cpp')
  fi
  if [[ ${#TIDY_FILES[@]} -gt 0 ]]; then
    echo "ci: clang-tidy over ${#TIDY_FILES[@]} file(s)" >&2
    clang-tidy -p "$BUILD_DIR" --quiet "${TIDY_FILES[@]}"
  else
    echo "ci: clang-tidy — no changed translation units" >&2
  fi
else
  echo "ci: clang-tidy not installed — skipping tidy stage" >&2
fi

# -------------------------------------------------------- sanitizer stages
# run_sanitizer_stage <name> <flags> <ctest-regex|-> <fuzz|nofuzz> [ENV=V...]
# Rebuilds the tree in ${BUILD_DIR}-<name> with the given sanitizer flags,
# runs ctest (optionally filtered), and optionally replays the fuzz corpora.
run_sanitizer_stage() {
  local name="$1" flags="$2" test_regex="$3" fuzz_mode="$4"
  shift 4
  local dir="${BUILD_DIR}-${name}" ctest_args=()
  [[ "$test_regex" != "-" ]] && ctest_args+=(-R "$test_regex")
  rm -rf "$dir"
  cmake -B "$dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="$flags" \
    -DCMAKE_EXE_LINKER_FLAGS="$flags"
  cmake --build "$dir" -j
  env "$@" ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
    "${ctest_args[@]}"
  if [[ "$fuzz_mode" == "fuzz" ]]; then
    # Fuzz harnesses under sanitizers: corpus replay + 10k mutated inputs.
    env "$@" "$dir/tests/fuzz/fuzz_schedule_text" \
      tests/fuzz/corpus/schedule --iters 10000
    env "$@" "$dir/tests/fuzz/fuzz_json" tests/fuzz/corpus/json --iters 10000
  fi
}

if [[ "${RADIO_CI_SKIP_SANITIZERS:-0}" != "1" ]]; then
  run_sanitizer_stage asan \
    "-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
    - fuzz
  run_sanitizer_stage tsan \
    "-fsanitize=thread -fno-omit-frame-pointer" \
    'TrialRunner|ThreadDeterminism|EngineEquivalence|DenseKernel|EngineDense|BatchDeterminism|BatchEquivalence|BatchEngine|StreamDeterminism|StreamSession|StreamWorkload|Adversary|FixedSmallSet|GuidedSmallSetSearch|GuidedSearchFixture' \
    nofuzz \
    OMP_NUM_THREADS=4 TSAN_OPTIONS="halt_on_error=1"
fi

# ------------------------------------------------------------- -fanalyzer
# Opt-in deep static analysis (GCC >= 10): recompile the tree with
# -fanalyzer's interprocedural path exploration. Any analyzer diagnostic is
# promoted to an error so findings gate the stage; off by default because
# the pass multiplies compile time several-fold.
if [[ "${RADIO_CI_FANALYZER:-0}" == "1" ]]; then
  run_sanitizer_stage fanalyzer \
    "-fanalyzer -Werror=analyzer-possible-null-dereference -Werror=analyzer-null-dereference -Werror=analyzer-use-after-free -Werror=analyzer-double-free" \
    'Smoke' nofuzz
fi
