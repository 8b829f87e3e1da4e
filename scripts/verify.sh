#!/usr/bin/env bash
# Tier-1 verification for the suite. CI runs this script verbatim
# (.github/workflows/ci.yml); run it locally before pushing.
#
# The build is hermetic: no network access and no external crates, so every
# step below works offline. Each stage is wall-clock timed and a summary
# table prints at the end, so a slow CI run points straight at its stage.
set -euo pipefail
cd "$(dirname "$0")/.."

# The workspace declares `rust-version = "1.95"` (cargo refuses an older
# compiler); "green" means green on exactly 1.95.x, so refuse a newer one too.
echo "toolchain: $(rustc -V)"
case "$(rustc -V)" in
  "rustc 1.95."*) ;;
  *) echo "error: verify.sh needs rustc 1.95.x (rustup default 1.95.0)" >&2; exit 1 ;;
esac

STAGE_NAMES=()
STAGE_SECS=()
# A stage that hangs (a test or tool that never returns) fails after this
# long instead of wedging CI. Every stage runs in well under it.
STAGE_TIMEOUT=30m

stage() {
  local name="$1"
  shift
  echo "== $name =="
  local t0=$SECONDS rc=0
  # The stage runs in a child shell with the same strict options, so the
  # shell functions below (exported with `export -f`) fail as they would
  # here; `timeout` signals the stage's whole process group.
  timeout --kill-after=1m "$STAGE_TIMEOUT" bash -euo pipefail -c '"$@"' "$name" "$@" || rc=$?
  if [ "$rc" -eq 124 ]; then
    echo "error: stage \"$name\" did not finish within $STAGE_TIMEOUT" >&2
  fi
  [ "$rc" -eq 0 ] || exit "$rc"
  STAGE_NAMES+=("$name")
  STAGE_SECS+=($((SECONDS - t0)))
}

summary() {
  echo
  echo "== stage timing =="
  local total=0 i
  for i in "${!STAGE_NAMES[@]}"; do
    printf '  %-44s %4ds\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}"
    total=$((total + STAGE_SECS[i]))
  done
  printf '  %-44s %4ds\n' "total" "$total"
}
trap summary EXIT

check_tracked_files() {
  # A deleted-but-uncommitted tracked file builds fine locally (stale
  # target/) yet breaks a fresh checkout; fail fast instead.
  local deleted
  deleted=$(git status --porcelain | grep -E '^( D|D )' || true)
  if [ -n "$deleted" ]; then
    echo "error: tracked files are deleted but not committed:" >&2
    echo "$deleted" >&2
    exit 1
  fi
}

doc_deny_warnings() {
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
}

run_examples() {
  # clippy --all-targets only proves examples compile; run every one of
  # them (each takes milliseconds in release) and fail on a non-zero exit
  # (observe_jpeg writes the git-ignored trace.json).
  local ex
  for ex in examples/*.rs; do
    ex=${ex#examples/}
    cargo run --release -q --example "${ex%.rs}" >/dev/null
  done
}

platform_release_tests() {
  cargo test --release -q -p mpsoc-snapshot -p mpsoc-platform -p mpsoc-vpdebug \
    -p mpsoc-gdbrsp
  cargo test --release -q --test delta_roundtrip --test snapshot_roundtrip \
    --test debugger_equivalence --test restore_in_place \
    --test step_in_place --test step_allocations --test image_golden \
    --test rsp_allocations --test explore_equivalence --test trace_equivalence \
    --test rsp_session
}

export -f check_tracked_files doc_deny_warnings run_examples platform_release_tests

stage "tracked files intact" check_tracked_files
stage "cargo fmt --check" cargo fmt --check
stage "cargo clippy (deny warnings)" cargo clippy --workspace --all-targets -- -D warnings
stage "cargo build --release" cargo build --release
# The same tests as tier-1's bare `cargo test -q` (`default-members` covers
# every crate), named explicitly so this stage does not depend on it.
stage "cargo test --workspace" cargo test --workspace -q
# The DSE inner loops are tested against the implementations they replaced,
# comparing u64 arithmetic and f64 -> u64 casts: the stage above panics on an
# overflow that the release profile, which every number comes from, wraps.
stage "DSE differential tests (release)" \
  cargo test --release -q -p mpsoc-maps -p mpsoc-rtkernel -p mpsoc-pdl
# The scheduler's retire paths are guarded by debug_assert!s ("the executed
# entry is still the heap top") that the release profile compiles out, so the
# scheduler-equivalence and signal-board differential tests must pass in both.
# So must the checkpoint code — frame checksum, in-place restore, the ring's
# due check — which is only ever measured in release: its crates' tests and
# the root package's three round-trip / equivalence suites over it. And so
# must the in-place step and the trace rings (step_in_place, step_allocations)
# and the pinned image bytes (image_golden). And the GDB-RSP session: its
# allocation counts (rsp_allocations) and the hex / framing fast paths that
# packet_fuzz replays against the session they replaced are, like every
# other number, only ever measured in release. And the fault campaign's
# pruning — dead register and RAM flips answered from the golden run,
# repeated faults simulated once — whose E12 fault-population test against
# the unpruned oracle (explore_equivalence) is the campaign's exactness check.
# And `monitor step-back` over the wire (rsp_session), the path the
# debug_rewind workload times: a step-back that restores the checkpoint the
# previous one restored reinstalls the platform's restore slot — the decoded
# state it remembers — instead of decoding the delta again.
stage "platform differential tests (release)" platform_release_tests
# The mutation gate: every deliberate bug listed in tests/mutants.txt must
# fail the test named with it, in a debug build of a copy of the sources
# under target/mutants/ (about half a minute warm on 2 vCPUs).
stage "mutation gate (tests/mutants.txt)" bash scripts/mutants.sh
stage "cargo doc (deny warnings)" doc_deny_warnings
# The paper's claims E1-E13 in release, E13 at its smoke size: fails on any
# claim not reproduced and writes target/experiments.json (uploaded by CI).
stage "paper claims (experiments --smoke)" \
  cargo run --release -q --bin experiments -- --smoke
# The headless platform suite: scripted debug sessions through the GDB-RSP
# stack, with JUnit/JSON verdicts under target/mpsoc-test/ (CI uploads
# them as artifacts).
stage "headless platform suite (mpsoc-test)" \
  cargo run --release -q -p mpsoc-apps --bin mpsoc-test
stage "examples run (every examples/*.rs)" run_examples
# The layered benchmark (benchmark/, a workspace of its own). The smoke
# profile runs the output checks and expected.json pins of all seven
# workloads in a few seconds, prints "not a measurement" and emits no rates;
# results land in benchmark/out/ (CI uploads results-seed1.json). Its unit
# tests cover the statistics, span and generator code.
stage "benchmark smoke (output checks, not a measurement)" \
  bash benchmark/run.sh run --smoke
stage "benchmark unit tests" \
  cargo test --release -q --manifest-path benchmark/Cargo.toml

echo "verify: OK"
