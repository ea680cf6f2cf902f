#!/usr/bin/env bash
# Print "sha256  case/mode/file" for every artifact that the five README
# examples, one fixed argv per benchmark workload (the seed-1 draws of
# benchmarks/run.py), two euler-sim runs under a non-default gas with
# functionals after each, and functionals on a CRLF copy of one of their
# snapshots.csv write when run on the sources under <src-dir>.  Every
# call runs in a temporary directory with a relative --output.dir, so two
# source trees make byte-identical artifacts exactly when their outputs match:
#
#     .github/artifact-digests.sh base/src > base.txt
#     .github/artifact-digests.sh src | diff base.txt -
set -euo pipefail
src=$(cd "${1:?usage: artifact-digests.sh <src-dir>}" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# a numpy overflow in any call fails the script, as in Tier-1
export PYTHONWARNINGS=error::RuntimeWarning

found=$(cd "$work" && PYTHONPATH="$src" python3 -c "import critdamp; print(critdamp.__file__)")
if [ "$found" != "$src/critdamp/__init__.py" ]; then
    echo "artifact-digests.sh: critdamp imports from $found, not from $src" >&2
    exit 1
fi

# run <case> <mode> [--key value ...]: one CLI call in $work/<case>, then the
# digests of everything the case holds, under <case>/<mode>/ so that a file a
# later call of the same case rewrites is hashed after each call.
run() {
    local case=$1 mode=$2
    shift 2
    mkdir -p "$work/$case"
    (cd "$work/$case" && PYTHONPATH="$src" python3 -m critdamp.cli "$mode" "$@" > /dev/null)
    (cd "$work/$case" && find . -type f -exec sha256sum {} +) | sed "s#  \./#  $case/$mode/#" >> "$work/digests"
}

# README examples, verbatim.
run readme-lifespan burgers-lifespan --damping.lambda 1.0 --damping.mu 0.5 --profile.epsilon 0.1
run readme-sweep sweep --sweep.lambda 0,0.5,1,2 --sweep.mu 0.5,1,2 --sweep.epsilon 0.001
run readme-euler euler-sim --run.t_end 20 --grid.n_cells 1024 --output.dir out
run readme-euler functionals --output.dir out
run readme-criterion criterion --profile.name outgoing-shell --profile.epsilon 1.0 --run.t_end 10

# Benchmark workloads, seed 1.
shell=(--profile.name outgoing-shell --profile.M0 0.3)
run radial-step euler-sim "${shell[@]}" --profile.epsilon 0.2901 --damping.lambda 2.8651 --damping.mu 1.0526 \
    --grid.n_cells 4096 --run.t_end 3 --run.monitor_cadence 1 --output.dir out
io=("${shell[@]}" --profile.epsilon 0.2897 --damping.lambda 1.7957 --damping.mu 1.2591
    --grid.n_cells 1024 --run.t_end 20 --run.monitor_cadence 0.1 --output.dir out)
run radial-io euler-sim "${io[@]}"
run radial-io functionals "${io[@]}"
run line sweep --sweep.lambda 0,0.7,1,2.6622 --sweep.mu 0.3,0.8257,1.9404 --sweep.epsilon 0.2118,0.3171,0.4488 \
    --output.dir out
run line burgers-sim --profile.epsilon 0.0985 --damping.lambda 1.8554 --damping.mu 1.0454 \
    --grid.n_cells 4096 --run.t_end 10 --run.monitor_cadence 5 --output.dir out

# The radial step and the series under a gas other than the default (gamma 2,
# rho_bar 1).
gas_case=("${shell[@]}" --profile.epsilon 0.3 --grid.n_cells 512 --run.t_end 5 --run.monitor_cadence 1
          --output.dir out)
run gas-gamma euler-sim "${gas_case[@]}" --gas.gamma 1.4
run gas-gamma functionals "${gas_case[@]}" --gas.gamma 1.4
run gas-rho-bar euler-sim "${gas_case[@]}" --gas.rho_bar 2
run gas-rho-bar functionals "${gas_case[@]}" --gas.rho_bar 2

# The snapshot reader on CRLF line ends after a leading comment and blank line.
mkdir -p "$work/gas-crlf/out"
{ printf '# CRLF copy\r\n\r\n'; sed 's/$/\r/' "$work/gas-rho-bar/out/snapshots.csv"; } > "$work/gas-crlf/out/snapshots.csv"
run gas-crlf functionals "${gas_case[@]}" --gas.rho_bar 2

sort -k2 "$work/digests"
