#!/bin/sh
# Guard the fault-isolation discipline: the translation pipeline
# (lib/core, lib/arm, lib/linker, the TCG passes and interpreter in
# lib/tcg, guest memory in lib/machine, and the x86 decoder the
# frontend calls first) must report failures through typed faults
# (Core.Fault, X86.Decode.Bad_encoding) or result values, never by
# crashing the whole engine with a bare failwith / invalid_arg.
# fault.ml is the one place allowed to raise.
#
# Run via `dune build @check-no-crash` (part of `dune runtest`).
#
# A second mode smokes the generated corpus end to end:
#
#   tools/check_no_crash.sh --generated N SEED
#
# generates N seeded programs, dedups them and checks every generated
# scheme through the batch planner (litmus_run --generate) — every
# verdict must hold (the generated schemes are the paper's sound
# mappings) and nothing may crash.
set -eu

if [ "${1:-}" = "--generated" ]; then
  n=${2:?usage: check_no_crash.sh --generated N SEED}
  seed=${3:?usage: check_no_crash.sh --generated N SEED}
  exe=_build/default/bin/litmus_run.exe
  if [ -x "$exe" ]; then
    "$exe" --generate "$n" --seed "$seed"
  else
    dune exec bin/litmus_run.exe -- --generate "$n" --seed "$seed"
  fi
  echo "generated-corpus smoke OK (n=$n seed=$seed)"
  exit 0
fi

root=${1:-.}
status=0

for f in "$root"/lib/core/*.ml "$root"/lib/arm/*.ml "$root"/lib/linker/*.ml \
  "$root"/lib/tcg/*.ml "$root"/lib/machine/*.ml "$root"/lib/x86/decode.ml; do
  case $f in
    */fault.ml) continue ;;
  esac
  if grep -Hn 'failwith\|invalid_arg' "$f"; then
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo "error: bare failwith/invalid_arg in the translation pipeline;" >&2
  echo "raise a typed Core.Fault (or return a result) instead." >&2
fi
exit $status
