#!/usr/bin/env bash
# Build and run the paper-reproduction harness (bench/main.ml) in one
# command. Performance is measured by perfbench (perfbench/README.md),
# not here.
#
# Usage:
#   bench/run.sh          full harness (Table I on all designs, summary,
#                         Fig 8, Fig 2, optimality, ablations, extensions)
#   bench/run.sh --fast   the same with Table I on sb16/sb18 only
#   bench/run.sh --smoke  CI smoke test: build everything, run the CLI
#                         end-to-end on the tiny benchmark, check that
#                         --jobs 1 and --jobs 2 give byte-identical
#                         results, that malformed input exits 2, and
#                         that --trace-out writes a trace (seconds)
#   bench/run.sh --paper  paper-scale section only: Flow.run end-to-end
#                         on the ~1M-cell "-paper" profile variants,
#                         printing cells/sec, peak RSS and the
#                         essential/full edge ratio, and writing the
#                         flows' Obs stats dump to CSS_BENCH_JSON
#                         (default BENCH_css.json at the repository root;
#                         a few minutes; see docs/PERFORMANCE.md).
#                         Before running, the harness probes available
#                         memory (MemAvailable via Css_util.Rusage) and
#                         arms an RSS budget at current RSS + 80% of
#                         what is available: on a machine too small for
#                         the design the flow degrades (serial
#                         extraction, cheaper engine, early stop with
#                         the best checkpointed result — printed with
#                         its stop reason) instead of getting OOM-killed
#                         mid-measurement; see docs/ROBUSTNESS.md
#
# The CSS_BENCH_* environment knobs documented in bench/main.ml pass
# through.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--smoke" ]; then
  dune build
  dune exec bin/css_opt_cli.exe -- --benchmark tiny --rounds 1 --quiet
  # parallel extraction must be bit-identical to sequential: same design,
  # --jobs 1 vs --jobs 2, byte-compare the saved optimized netlists
  out1="$(mktemp)" out2="$(mktemp)" tmp=""
  trap 'rm -f "$tmp" "$out1" "$out2"' EXIT
  dune exec bin/css_opt_cli.exe -- --benchmark tiny --rounds 1 --quiet --jobs 1 -o "$out1"
  dune exec bin/css_opt_cli.exe -- --benchmark tiny --rounds 1 --quiet --jobs 2 -o "$out2"
  if ! cmp -s "$out1" "$out2"; then
    echo "smoke: --jobs 2 result differs from --jobs 1 (parallel extraction is not deterministic)" >&2
    exit 1
  fi
  # a malformed design must fail with the input-error exit code (2) and
  # a one-line diagnostic, never a backtrace
  tmp="$(mktemp)"
  printf 'design broken period abc\n' > "$tmp"
  set +e
  dune exec bin/css_opt_cli.exe -- --input "$tmp" 2> /dev/null
  rc=$?
  set -e
  if [ "$rc" -ne 2 ]; then
    echo "smoke: expected exit 2 on malformed input, got $rc" >&2
    exit 1
  fi
  # streaming tracer end-to-end: a traced run must produce a Chrome
  # trace_event JSON (css_trace.json — CI uploads it as the Perfetto
  # artifact) and clean up its spill file
  dune exec bin/css_opt_cli.exe -- --benchmark tiny --rounds 1 --quiet --jobs 2 \
    --trace-out "$PWD/css_trace.json"
  if [ ! -s "$PWD/css_trace.json" ]; then
    echo "smoke: --trace-out produced no trace" >&2
    exit 1
  fi
  if [ -e "$PWD/css_trace.json.spill" ]; then
    echo "smoke: tracer spill file left behind after successful export" >&2
    exit 1
  fi
  echo "smoke: ok"
  exit 0
fi

if [ "${1:-}" = "--paper" ]; then
  export CSS_BENCH_PAPER_ONLY=1
  export CSS_BENCH_JSON="${CSS_BENCH_JSON:-$PWD/BENCH_css.json}"
fi
if [ "${1:-}" = "--fast" ]; then
  export CSS_BENCH_FAST=1
fi

dune build bench/main.exe
dune exec bench/main.exe
