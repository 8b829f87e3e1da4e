#!/usr/bin/env bash
# The mutation gate: every mutant listed in tests/mutants.txt must be killed
# by the test named with it.
#
# A mutant is a deliberate bug: one exact piece of text in one file,
# replaced. For each entry, in a copy of the sources under target/mutants/
# (the working tree is never touched), this script
#   1. applies the mutant, and fails unless the text occurs exactly once;
#   2. runs the named test in the debug profile, and fails unless it fails;
#   3. puts the file back.
#
# Entry format (tests/mutants.txt): blocks separated by blank lines, `#`
# lines are comments. Each block has one `file:` line, one or more `find:`
# lines and `replace:` lines (several are joined with newlines; the prefix
# is the keyword, a colon and one space), and one `test:` line holding the
# arguments to `cargo test`, e.g. `--test restore_in_place` or
# `-p mpsoc-vpdebug some_unit_test`.
#
# Usage: bash scripts/mutants.sh
set -euo pipefail
# `&` in a replacement is the matched text unless this is off (bash 5.2).
shopt -u patsub_replacement 2>/dev/null || true
cd "$(dirname "$0")/.."
root=$PWD
work=$root/target/mutants
src=$work/src
list=$root/tests/mutants.txt

# A fresh copy of the sources (not of build output); the copy's own target
# directory persists between runs, so only mutated crates rebuild.
mkdir -p "$src"
find "$src" -mindepth 1 -maxdepth 1 ! -name target -exec rm -rf {} +
tar -C "$root" --exclude=./target --exclude=./.git --exclude=./benchmark/target \
  --exclude=./benchmark/out --exclude=./.bench_build -cf - . | tar -C "$src" -xf -

killed=0
failed=0
run_entry() {
  local file=$1 find=$2 replace=$3 test=$4
  local path=$src/$file
  if [ ! -f "$path" ]; then
    echo "mutants: $file: no such file" >&2
    return 1
  fi
  local pristine content rest count
  pristine=$(cat "$path"; printf x)
  pristine=${pristine%x}
  content=$pristine
  rest=${content//"$find"/}
  count=$(((${#content} - ${#rest}) / ${#find}))
  if [ "$count" -ne 1 ]; then
    echo "mutants: $file: the text to replace occurs $count times, not once:" >&2
    printf '%s\n' "$find" >&2
    return 1
  fi
  printf '%s' "${content/"$find"/"$replace"}" >"$path"
  local log=$work/last.log rc=0
  # shellcheck disable=SC2086 # $test is a list of cargo arguments
  (cd "$src" && CARGO_TARGET_DIR=$work/build cargo test -q $test) >"$log" 2>&1 || rc=$?
  printf '%s' "$pristine" >"$path"
  if [ "$rc" -eq 0 ]; then
    echo "mutants: SURVIVED in $file (cargo test $test passed):" >&2
    printf '  - %s\n' "$find" >&2
    printf '  + %s\n' "$replace" >&2
    return 1
  fi
  if grep -q "^error\(\[E[0-9]*\]\)\?:" "$log" &&
    ! grep -q "test result: FAILED\|panicked" "$log"; then
    echo "mutants: $file: the mutant does not compile, so it proves nothing:" >&2
    grep -m 5 "^error" "$log" >&2
    return 1
  fi
  echo "mutants: killed in $file by cargo test $test"
}

file="" find="" replace="" test="" n=0
flush() {
  if [ -z "$file$find$replace$test" ]; then
    return 0
  fi
  if [ -z "$file" ] || [ -z "$find" ] || [ -z "$test" ]; then
    echo "mutants: entry $((n + 1)) of $list lacks a file:, find: or test: line" >&2
    exit 1
  fi
  n=$((n + 1))
  if run_entry "$file" "$find" "$replace" "$test"; then
    killed=$((killed + 1))
  else
    failed=$((failed + 1))
  fi
  file="" find="" replace="" test=""
}
join() { if [ -z "$1" ]; then printf '%s' "$2"; else printf '%s\n%s' "$1" "$2"; fi; }
while IFS= read -r line || [ -n "$line" ]; do
  case "$line" in
    "#"*) ;;
    "") flush ;;
    "file: "*) file=${line#file: } ;;
    "find: "*) find=$(join "$find" "${line#find: }") ;;
    "replace: "*) replace=$(join "$replace" "${line#replace: }") ;;
    "test: "*) test=${line#test: } ;;
    *)
      echo "mutants: $list: unreadable line: $line" >&2
      exit 1
      ;;
  esac
done <"$list"
flush

echo "mutants: $killed killed, $failed not"
[ "$failed" -eq 0 ] && [ "$killed" -gt 0 ]
