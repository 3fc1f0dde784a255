#!/usr/bin/env bash
# Console-script checks: each command must exit 0, or exit with its
# documented code and message.  The command prefix comes from ANHARM2D,
# default the installed `anharm2d`.  From a checkout, without installing:
#
#   PYTHONPATH=src ANHARM2D="python -m anharm2d.cli" scripts/check_console.sh
set -euo pipefail
read -r -a cli <<< "${ANHARM2D:-anharm2d}"
anharm2d() { "${cli[@]}" "$@"; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

anharm2d solve --a 1 --m 0
anharm2d eval --state ground --a 1e12 --c 4e-12 --b -1.2e-05 --samples 5
anharm2d verify --a 1 --m 0 --grid-n 256
anharm2d verify --a 10 --m 1 --grid-n 512
anharm2d verify --a 1 --m 0 --grid-n 65
anharm2d verify --a 10 --m 1 --grid-n 71
anharm2d verify --a 1 --m 0 --grid-n 64000
anharm2d verify --a 10 --m 1 --grid-n 64000
anharm2d normalize --state ground --a 1e-46 --c 1e14 --b -20000000.28284271
rc=0; anharm2d eval --state ground --a 1 --c 1e-26 --b 0 --samples 3 || rc=$?; test "$rc" -eq 3
rc=0; anharm2d normalize --state ground --a 1e6 --c 1e-6 --m 300 --b 0.59800666662963 2> "$tmp/err" || rc=$?; test "$rc" -eq 4; grep "norm integral" "$tmp/err"
rc=0; anharm2d normalize --state ground --a 2.6034814692355e+243 --m 2 --c 4.657280431813428e-242 --b=-2.6333929441323264e-120 2> "$tmp/err" || rc=$?; test "$rc" -eq 4; grep "norm integral" "$tmp/err"; if grep RuntimeWarning "$tmp/err"; then exit 1; fi
rc=0; anharm2d eval --a 1 --samples 1000000000000000 2> "$tmp/err" || rc=$?; test "$rc" -eq 2; grep "^error:" "$tmp/err"
rc=0; anharm2d normalize --state excited --a 1 --c 2.25 --b -9 --m -1 2> "$tmp/err" || rc=$?; test "$rc" -eq 2; grep "^error:" "$tmp/err"
rc=0; anharm2d solve --a 1 --m "1$(printf '%0160d' 0)" 2> "$tmp/err" || rc=$?; test "$rc" -eq 2; grep "^error:" "$tmp/err"
rc=0; timeout 60 "${cli[@]}" verify --a 1 --m 0 --grid-n 10000000000000000 2> "$tmp/err" || rc=$?; test "$rc" -eq 2; grep "^error:" "$tmp/err"
rc=0; anharm2d solve --a 1 --out "$tmp/missing/x.json" 2> "$tmp/err" || rc=$?; test "$rc" -eq 2; grep "^error:" "$tmp/err"
