#!/bin/sh
# Guard the fault-isolation discipline: the translation pipeline must
# report failures through typed faults (Core.Fault,
# X86.Decode.Bad_encoding) or result values, never by crashing the
# whole engine with a bare failwith / invalid_arg.
#
#   tools/check_no_crash.sh FILE...
#
# scans each given .ml file, except fault.ml, the one place allowed to
# raise; other files are ignored.  `dune build @check-no-crash` (part
# of `dune runtest`) passes every file of the pipeline's sources, which
# the root dune rule lists.
#
# A second mode smokes the generated corpus end to end:
#
#   tools/check_no_crash.sh --generated N SEED
#
# generates N seeded programs, dedups them and checks every generated
# scheme through the one sweep runner (litmus_run --generate, which
# calls Report.Sweep.run_generated as a single shard) — every verdict
# must hold (the generated schemes are the paper's sound mappings) and
# nothing may crash.
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

if [ "$#" -eq 0 ]; then
  echo "usage: check_no_crash.sh FILE... | --generated N SEED" >&2
  exit 2
fi

status=0
for f in "$@"; do
  case $f in
    */fault.ml) continue ;;
    *.ml) ;;
    *) continue ;;
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
