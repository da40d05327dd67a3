#!/usr/bin/env bash
# Static guard against AoS regressions on the proxy-scoring hot path.
#
# The vectorized kernels (src/transfer/kernels.cc) own all per-element
# math; the scorer wrappers validate and dispatch, and the recall-side
# call sites consume SoA layouts through the vec:: helpers. The scalar
# loops they were derived from are test oracles under tests/oracles/. This script
# greps for the patterns that would quietly reintroduce the old
# element-at-a-time structure — it is a tripwire, not a proof, and it
# runs exit-code-audit style as the `no_aos_regression` ctest.
#
#   usage: check_no_aos_regression.sh <repo-root>

set -u

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <repo-root>" >&2
  exit 2
fi

ROOT=$1
SRC=$ROOT/src
FAILURES=0

fail() {
  echo "FAIL: $1" >&2
  shift
  for line in "$@"; do echo "  $line" >&2; done
  FAILURES=$((FAILURES + 1))
}

# 1. Scorer wrappers stay validate-and-dispatch: no Matrix::At element
#    access — per-element math belongs in kernels.cc.
for f in leep.cc nce.cc logme.cc knn_proxy.cc proxy_scorer.cc; do
  hits=$(grep -n "\.At(" "$SRC/transfer/$f" || true)
  if [[ -n "$hits" ]]; then
    fail "src/transfer/$f uses Matrix::At — move the loop into kernels.cc" \
         "$hits"
  else
    echo "ok: src/transfer/$f has no element-at-a-time math"
  fi
done

# 2. The stacked forward pass: vec::Dot (the AoS row-by-row dot) has no
#    place anywhere in pretrained_model.cc. The AoS reference forward pass
#    is a test oracle in tests/oracles/.
hits=$(grep -n "vec::Dot(" "$SRC/model/pretrained_model.cc" || true)
if [[ -n "$hits" ]]; then
  fail "pretrained_model.cc calls vec::Dot — the forward pass is the stacked panel product" \
       "$hits"
else
  echo "ok: pretrained_model.cc never calls vec::Dot"
fi

# 3. Reference kernels and the reference forward pass are a
#    differential-test oracle (tests/oracles/), not production code:
#    nothing in src/ may define, declare or call a *Reference( function.
hits=$(grep -rn "Reference(" "$SRC" --include='*.cc' --include='*.h' || true)
if [[ -n "$hits" ]]; then
  fail "src/ mentions a *Reference( function — test oracles live in tests/oracles/" \
       "$hits"
else
  echo "ok: no reference kernel or forward pass in src/"
fi

# 4. The recall-side call sites that were converted to SoA / row-pointer
#    form must not regrow Matrix::At loops.
for f in core/coarse_recall.cc core/task_similarity.cc; do
  hits=$(grep -n "\.At(" "$SRC/$f" || true)
  if [[ -n "$hits" ]]; then
    fail "src/$f reintroduced Matrix::At on the recall hot path" "$hits"
  else
    echo "ok: src/$f stays on the SoA/row-pointer form"
  fi
done

# 5. The model stores its prototypes once, in the dimension-major layout
#    the stacked forward pass reads: no row-major vector-of-vectors copy
#    may come back as a PretrainedModel member (on a 5k zoo such a copy
#    is ~80k heap vectors). A declaration ends in ';', a parameter in ','
#    or ')'.
hits=$(grep -nE 'std::vector<std::vector<double>>[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*(=[^;]*)?;' \
         "$SRC/model/pretrained_model.h" || true)
if [[ -n "$hits" ]]; then
  fail "pretrained_model.h declares a vector-of-vectors member — prototypes live in proto_soa_ only" \
       "$hits"
else
  echo "ok: pretrained_model.h holds no AoS prototype copy"
fi

if [[ $FAILURES -ne 0 ]]; then
  echo "$FAILURES AoS regression check(s) failed" >&2
  exit 1
fi
echo "no AoS regressions detected"
