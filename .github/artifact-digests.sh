#!/usr/bin/env bash
# Print "sha256  case/mode/file" for every artifact that the five README
# examples, one fixed argv per benchmark workload (the seed-1 draws of
# benchmarks/run.py), three euler-sim runs under a non-default gas (one with
# rho_bar = 1e160), one that breaks down and one whose window reaches the
# grid's last cell, with functionals after each,
# functionals on a CRLF copy of one of their snapshots.csv, three more
# burgers-sim runs (many samples, mu = 0 on an explicit span, and eps = 1e-300),
# three criterion runs to T* = 1e300 (at M = 3, 1e8 and 1e-20), one at
# M = 1.7e-62, near the smallest support, a lifespan far below 1, a sweep over
# the lambda -> 1 corners, and a small
# literal profile.file table for each geometry (a 1-D triangle through
# burgers-lifespan, sweep and burgers-sim; a radial table through euler-sim,
# functionals and criterion) write when run on the sources under <src-dir>.
# Two calls that must fail with a config error (a support M whose slope
# overflows, and a snapshots.csv with a negative density) print instead
# "sha256  case/mode/exit", the digest of their exit code and stderr; the
# script stops if either exits with any code but 2, a config error's.  Every
# call runs in a temporary directory with a relative --output.dir (and
# --profile.file), so two source trees make byte-identical artifacts exactly
# when their outputs match:
#
#     .github/artifact-digests.sh base/src > base.txt
#     .github/artifact-digests.sh src | diff base.txt -
#
# It exits 1, with a message on stderr after the digests, when the series.csv
# that functionals rebuilds differs from the one euler-sim wrote.
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

# fails <case> <mode> [--key value ...]: one CLI call in $work/<case> that
# must exit 2, a config error; the digest of its exit code and stderr, as
# <case>/<mode>/exit.
fails() {
    local case=$1 mode=$2 rc=0
    shift 2
    mkdir -p "$work/$case"
    (cd "$work/$case" && PYTHONPATH="$src" python3 -m critdamp.cli "$mode" "$@" > /dev/null 2> "$work/stderr") || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "artifact-digests.sh: $case/$mode exited $rc, where it must fail with a config error (2)" >&2
        exit 1
    fi
    { echo "$rc"; cat "$work/stderr"; } | sha256sum | sed "s#  -\$#  $case/$mode/exit#" >> "$work/digests"
}

# README examples, verbatim.
run readme-lifespan burgers-lifespan --damping.lambda 1.0 --damping.mu 0.5 --profile.epsilon 0.1
run readme-sweep sweep --sweep.lambda 0,0.5,1,2 --sweep.mu 0.5,1,2 --sweep.epsilon 0.001
run readme-euler euler-sim --run.t_end 20 --grid.n_cells 1024 --output.dir out
run readme-euler functionals --output.dir out
run readme-criterion criterion --profile.name outgoing-shell --profile.epsilon 1.0 --run.t_end 10

# Benchmark workloads, seed 1.  A radial run takes max |du/dr| only after a
# step where 2 (1 + 1e-15) max(|u| + c) / dr does not already bound it below
# the gradient trigger: radial-step takes it after every step, radial-io and
# readme-euler on none.
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

# Values that the CSV float formatter lays out rarely: rho near 1e160 (three
# exponent digits, and background rows "1e+160" of one digit), and w near 1e-301.
run gas-huge-rho euler-sim "${gas_case[@]}" --gas.rho_bar 1e160
run gas-huge-rho functionals "${gas_case[@]}" --gas.rho_bar 1e160
run line-tiny burgers-sim --profile.epsilon 1e-300 --run.t_end 2 --run.monitor_cadence 0.5 --grid.n_cells 256 \
    --output.dir out

# criterion out to T* = 1e300 at supports M >= 1, where its integral is taken
# in log(1 + tau) itself, unscaled, and at M = 1e-20, in units of M.
run criterion-wide criterion --profile.name outgoing-shell --profile.epsilon 1 --profile.M 3 --run.t_end 1e300
run criterion-far criterion --profile.name outgoing-shell --profile.epsilon 2 --profile.M 1e8 --run.t_end 1e300
run criterion-tiny criterion --profile.M 1e-20 --run.t_end 1e300
# 1/alpha(0) near 1e245, whose integral is taken in units of 2^k
run criterion-smallest criterion --profile.M 1.7e-62

# Lifespan roots: one near 1.25e-10, far below 1, and sweeps over the lam -> 1
# corners, where I(t) is a quadrature.
run lifespan-tiny burgers-lifespan --damping.lambda 2 --damping.mu 1 --profile.epsilon 1e10
run sweep-corners sweep --sweep.lambda 0.9995,1.00001 --sweep.mu 0.3,1 --sweep.epsilon 0.4,0.5

# A run that ends in a breakdown (NegativeDensity at cfl 0.9), the path of the
# step's density check, with functionals after it.
breakdown=("${shell[@]}" --profile.epsilon 0.9 --grid.n_cells 512 --run.t_end 5 --run.cfl 0.9 --output.dir out)
run breakdown euler-sim "${breakdown[@]}"
run breakdown functionals "${breakdown[@]}"

# A run whose window grows to the whole grid (at step 53 of 70) and whose
# front reaches the grid's last cell (at step 61), with functionals after it.
edge=(--grid.n_cells 64 --run.t_end 10 --run.monitor_cadence 1 --output.dir out)
run grid-edge euler-sim "${edge[@]}"
run grid-edge functionals "${edge[@]}"

# The snapshot reader on CRLF line ends after a leading comment and blank line.
mkdir -p "$work/gas-crlf/out"
{ printf '# CRLF copy\r\n\r\n'; sed 's/$/\r/' "$work/gas-rho-bar/out/snapshots.csv"; } > "$work/gas-crlf/out/snapshots.csv"
run gas-crlf functionals "${gas_case[@]}" --gas.rho_bar 2

# burgers-sim with 201 samples, so that many steps clamp onto a sample time,
# and undamped (mu = 0) on an explicit grid.x_lo/x_hi span.
run line-samples burgers-sim --profile.epsilon 0.2 --damping.lambda 1 --damping.mu 2 --run.t_end 10 \
    --run.monitor_cadence 0.05 --grid.n_cells 1024 --output.dir out
run line-undamped burgers-sim --profile.epsilon 0.3 --damping.lambda 0 --damping.mu 0 --run.t_end 2 \
    --run.monitor_cadence 0.5 --grid.n_cells 2048 --grid.x_lo -2 --grid.x_hi 2 --output.dir out

# Profiles read from a file, which lies beside the case directories, so that
# only the artifacts are hashed.  The triangle's max(-w0') is exactly 1,
# however its slope is found.
printf 'x,w0\n-1,0\n-0.5,0.5\n0,1\n0.5,0.5\n1,0\n' > "$work/triangle.csv"
triangle=(--profile.file ../triangle.csv --damping.lambda 1 --damping.mu 0.5)
run file-line burgers-lifespan "${triangle[@]}" --profile.epsilon 0.1
run file-line sweep "${triangle[@]}" --sweep.lambda 0,0.5,1,2 --sweep.mu 0.5,1,2 --sweep.epsilon 0.1,0.6
run file-line burgers-sim "${triangle[@]}" --profile.epsilon 0.3 --run.t_end 2 --run.monitor_cadence 0.5 \
    --grid.n_cells 256
printf 'r,rho0,u0\n0,1,0\n0.25,0.75,0.25\n0.5,0.5,0.5\n0.75,0.25,0.25\n1,0,0\n' > "$work/radial.csv"
radial_file=(--profile.file ../radial.csv --profile.epsilon 0.2 --grid.n_cells 256 --run.t_end 2
             --run.monitor_cadence 0.5 --output.dir out)
run file-radial euler-sim "${radial_file[@]}"
run file-radial functionals "${radial_file[@]}"
# The table ends at r = 1, the default profile.M, so its criterion integrals
# end there however M is taken.
run file-criterion criterion --profile.file ../radial.csv --profile.epsilon 0.2 --run.t_end 2

# Config errors: max(-w0') = m1/M overflows at M = 1e-310 (key profile.M), and
# a 32-cell snapshot block holds rho = -0.5 (key output.dir, at t=0.0).
fails cfg-tiny-m sweep --profile.M 1e-310 --sweep.lambda 0,2 --sweep.mu 1 --sweep.epsilon 0.1 --output.dir out
mkdir -p "$work/cfg-negative-rho/out"
awk 'BEGIN { print "t,r,rho,mom"; print "# t=0.0"
             for (i = 0; i < 32; i++) printf "0.0,%s,%s,0.0\n", i + 0.5, (i == 15 ? "-0.5" : "1.0") }' \
    > "$work/cfg-negative-rho/out/snapshots.csv"
fails cfg-negative-rho functionals --output.dir out

# functionals rebuilds the series of euler-sim from its snapshots.csv alone, so
# the two series.csv of every case that ran both must be byte-identical, as
# must gas-crlf's, which reads a copy of gas-rho-bar's snapshots.
both=$(awk '$2 ~ /^[^\/]+\/(euler-sim|functionals)\/out\/series\.csv$/ { split($2, p, "/"); ran[p[1], p[2]] = 1 }
            END { for (k in ran) { split(k, p, SUBSEP)
                                   if (p[2] == "euler-sim" && (p[1], "functionals") in ran) print p[1] } }' \
      "$work/digests" | sort)
status=0
for pair in $both gas-crlf:gas-rho-bar; do
    rebuilt="${pair%%:*}/functionals/out/series.csv" written="${pair##*:}/euler-sim/out/series.csv"
    a=$(awk -v f="$rebuilt" '$2 == f { print $1 }' "$work/digests")
    b=$(awk -v f="$written" '$2 == f { print $1 }' "$work/digests")
    if [ -z "$a" ] || [ "$a" != "$b" ]; then
        echo "artifact-digests.sh: $rebuilt differs from $written" >&2
        status=1
    fi
done

sort -k2 "$work/digests"
exit $status
