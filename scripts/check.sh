#!/bin/bash
# Pre-merge gate: formatting, lints, release build, benchmark build and
# smoke test, full test suite.
# Usage: scripts/check.sh [--quick]
#   --quick   skip the workspace release build (CI runs it as a separate
#             job); the benchmark build still runs
set -eu
cd "$(dirname "$0")/.."

quick=0
for arg in "$@"; do
    case "$arg" in
    --quick) quick=1 ;;
    *)
        echo "usage: scripts/check.sh [--quick]" >&2
        exit 2
        ;;
    esac
done

echo "== cargo fmt --check =="
cargo fmt --check

# The AVX2 GEMM micro-kernel is the only code allowed the `unsafe`
# keyword; snia-nn denies it elsewhere and every other crate forbids it.
echo "== unsafe confined to crates/nn/src/gemm/x86.rs =="
hits=$(git ls-files --cached --others --exclude-standard -- '*.rs' |
    grep -v '^crates/nn/src/gemm/x86\.rs$' |
    xargs grep -nw unsafe || true)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "unsafe outside crates/nn/src/gemm/x86.rs" >&2
    exit 1
fi

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace -- -D warnings

if [ "$quick" -eq 0 ]; then
    echo "== cargo build --release =="
    cargo build --release --workspace
fi

# The benchmark (perfbench/, its own workspace) builds against the crates'
# public API; a core API change that breaks it must fail the gate.
echo "== perfbench build =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# The benchmark's smoke test (~15 s) runs every workload's correctness
# checks and its nn-mirror checks (the mirrored flux CNN must match
# FluxCnn's output and layer shapes), so a change that breaks what the
# benchmark measures fails before merge, not when the benchmark runs.
echo "== perfbench smoke test =="
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== cargo test =="
cargo test --workspace -q

# The golden snapshots live in the root package's integration tests, which
# --workspace already runs; name them explicitly so a default-members
# change can never silently drop the metric/bit-identity pins.
echo "== golden suite =="
cargo test -q --test golden

# Likewise the property suite: the preprocessing-correctness pins added
# with the render cache (mag<->target round-trip/saturation, crop-centre
# survival, schedule invariants) must run even if default-members shift.
echo "== property suite =="
cargo test -q --test properties

# And the lowering/GEMM/conv-backend properties, including the bit-identity
# pins of im2col/col2im_add and GEMM on fractional data.
echo "== conv property suite =="
cargo test -q --test conv_props

# And the request decoder against its serde_json::Value oracle.
echo "== wire property suite =="
cargo test -q --test wire_props

echo "ALL CHECKS PASSED"
