#!/usr/bin/env bash
# Bare-rustc build of the `nls` binary and the rlibs it and the
# benchmark's traced runner link, into target/offline/. The benchmark
# (benchmark/run.sh) and tools/profile.sh build with it at opt-level
# 3; building and testing the workspace is `cargo build --release &&
# cargo test -q`.
#
# Usage:
#   tools/offline-build.sh
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=target/offline
mkdir -p "$OUT"

RUSTC_FLAGS=(--edition 2021 -L "dependency=$OUT" -Dwarnings)

# Optimisation level for perf measurement (e.g. NLS_OFFLINE_OPT=3, as
# benchmark/run.sh and tools/profile.sh build). Defaults to
# unoptimised for fast edit cycles.
if [[ -n "${NLS_OFFLINE_OPT:-}" ]]; then
    RUSTC_FLAGS+=(-C "opt-level=${NLS_OFFLINE_OPT}")
fi

# Extra rustc flags, word-split on purpose (e.g.
# NLS_OFFLINE_EXTRA_FLAGS="-C debuginfo=1" from tools/profile.sh).
if [[ -n "${NLS_OFFLINE_EXTRA_FLAGS:-}" ]]; then
    # shellcheck disable=SC2206
    RUSTC_FLAGS+=(${NLS_OFFLINE_EXTRA_FLAGS})
fi

ext() { # name -> --extern name=$OUT/libname.rlib
    echo "--extern" "$1=$OUT/lib$1.rlib"
}

lib() { # crate_name path externs...
    local name=$1 path=$2
    shift 2
    local externs=()
    for dep in "$@"; do externs+=($(ext "$dep")); done
    echo "lib  $name"
    rustc "${RUSTC_FLAGS[@]}" --out-dir "$OUT" --crate-type rlib \
        --crate-name "$name" "${externs[@]}" "$path"
}

bin() { # bin_name path externs...
    local name=$1 path=$2
    shift 2
    local externs=()
    for dep in "$@"; do externs+=($(ext "$dep")); done
    echo "bin  $name"
    rustc "${RUSTC_FLAGS[@]}" --crate-name "${name//-/_}" "${externs[@]}" \
        "$path" -o "$OUT/$name"
}

# --- the libraries nls links, in dependency order, then nls ---
lib nls_trace crates/trace/src/lib.rs
lib nls_icache crates/icache/src/lib.rs nls_trace
lib nls_predictors crates/predictors/src/lib.rs nls_trace nls_icache
lib nls_core crates/core/src/lib.rs nls_trace nls_icache nls_predictors
lib nls_cost crates/cost/src/lib.rs
lib nls_cli crates/cli/src/lib.rs nls_trace nls_icache nls_predictors nls_core nls_cost
bin nls crates/cli/src/main.rs nls_cli nls_core nls_trace

echo "offline build OK"
