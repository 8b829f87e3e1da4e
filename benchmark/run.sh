#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it with the arguments
# given: the acceptance driver's `--workload W --seed N --seconds S
# --trace 0|1`, or `run`, `compare A B`, `pin` (see README.md).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The repository pins 1.95.0 in rust-toolchain.toml. Offline, rustup tries
# to sync that channel and fails even when the installed stable *is*
# 1.95.0, so fall back to the installed stable toolchain — and record
# which one built the numbers.
if [ -n "${RUSTUP_TOOLCHAIN:-}" ]; then
    BENCH_TOOLCHAIN="RUSTUP_TOOLCHAIN=$RUSTUP_TOOLCHAIN"
elif (cd "$here" && rustc -V >/dev/null 2>&1); then
    BENCH_TOOLCHAIN="pinned by rust-toolchain.toml"
else
    export RUSTUP_TOOLCHAIN=stable
    BENCH_TOOLCHAIN="installed stable (the rust-toolchain.toml pin cannot be resolved offline)"
fi
export BENCH_TOOLCHAIN
export BENCH_RUSTC="$(rustc -V)"
export BENCH_GIT_REV="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo "not a git checkout")"

exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
