#!/usr/bin/env bash
# CLI-error guard: bad command-line values must end in a clean usage
# error — exit status 2, exactly one line on stderr, and never an
# uncaught C++ exception ("terminate called"), a wrapped unsigned value
# or a hang.
#
# Usage: check_cli_errors.sh SERVING_SIM FLEET_SIM
# Wired into ctest (label: examples); exits non-zero and lists every
# invocation that misbehaved.
set -u

if [ "$#" -ne 2 ]; then
    echo "usage: $0 SERVING_SIM FLEET_SIM" >&2
    exit 2
fi
serving_sim=$1
fleet_sim=$2

status=0
stderr_file=$(mktemp)
trap 'rm -f "${stderr_file}"' EXIT

# expect_usage_error BINARY ARGS... — run with a short window so a
# wrongly accepted value finishes (or times out) quickly.
expect_usage_error() {
    local bin=$1
    shift
    timeout 20 "${bin}" --duration 1 "$@" >/dev/null 2>"${stderr_file}"
    local code=$?
    local lines
    lines=$(wc -l <"${stderr_file}")
    local what
    what="$(basename "${bin}") $*"
    if [ "${code}" -ne 2 ]; then
        echo "FAIL: ${what}: exit ${code}, expected 2"
        status=1
    elif [ "${lines}" -ne 1 ]; then
        echo "FAIL: ${what}: ${lines} stderr lines, expected 1"
        status=1
    elif grep -q "terminate called" "${stderr_file}"; then
        echo "FAIL: ${what}: uncaught exception"
        status=1
    fi
    if [ "${code}" -ne 2 ] || [ "${lines}" -ne 1 ]; then
        sed 's/^/    /' "${stderr_file}" | head -5
    fi
}

for bin in "${serving_sim}" "${fleet_sim}"; do
    expect_usage_error "${bin}" --qps abc
    expect_usage_error "${bin}" --qps 5x
    expect_usage_error "${bin}" --qps -5
    expect_usage_error "${bin}" --qps nan
    expect_usage_error "${bin}" --qps inf
    expect_usage_error "${bin}" --qps ""
    expect_usage_error "${bin}" --duration -1
    expect_usage_error "${bin}" --max-batch -1
    expect_usage_error "${bin}" --max-batch 0
    expect_usage_error "${bin}" --seed -3
    expect_usage_error "${bin}" --seed 1.5
    expect_usage_error "${bin}" --tp-degree 0
    expect_usage_error "${bin}" --tp-degree 99999999999
    # TP degrees the model cannot split evenly (heads, KV heads).
    expect_usage_error "${bin}" --tp-degree 3
    expect_usage_error "${bin}" --tp-degree 64
    expect_usage_error "${bin}" --model 70b --tp-degree 16
    expect_usage_error "${bin}" --chunk-tokens 12abc
    expect_usage_error "${bin}" --prompt-median 1e3
    expect_usage_error "${bin}" --burst-duty 1.5
    expect_usage_error "${bin}" --hbm-gb 0
    expect_usage_error "${bin}" --model 13b
    expect_usage_error "${bin}" --gpu h100
    expect_usage_error "${bin}" --scheme int8
    expect_usage_error "${bin}" --qps
done
expect_usage_error "${serving_sim}" --block-tokens 0
expect_usage_error "${serving_sim}" --codebook-slots x
expect_usage_error "${serving_sim}" --link-gbps -2
expect_usage_error "${fleet_sim}" --replicas x
expect_usage_error "${fleet_sim}" --replicas 0
expect_usage_error "${fleet_sim}" --prefill-replicas -1
expect_usage_error "${fleet_sim}" --handoff-gbps 0
# A merged fleet trace has 16 tracks per replica: TP 16 would overlap.
expect_usage_error "${fleet_sim}" --replicas 2 --tp-degree 16 \
    --trace-out "${stderr_file}.trace.json"

if [ "${status}" -eq 0 ]; then
    echo "CLI errors clean: every bad value is a one-line usage error" \
         "with exit 2."
fi
exit "${status}"
