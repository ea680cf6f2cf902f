"""Independent checks of the artifacts one CLI invocation wrote.

Each ``check_*`` function returns a list of problems; an empty list means the
artifact passed.  The closed forms here are derived from the damping law
mu/(1+t)^lambda and the built-in line bump, not taken from ``critdamp``, so a
wrong answer from the program cannot also corrupt its check.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

# Acceptance-05 tolerance on the discrete mass excess L(t).
MASS_TOL = 1e-10
# Relative tolerance for lifespans that have a closed form (lambda in {0, 1}).
LIFESPAN_TOL = 1e-9
# Tolerance on the exactly integrated 1-D decay law  beta(t) * int w dx.
DECAY_TOL = 1e-9
# Rows whose eps*m*I(inf) lies this close to 1 are not classified here.
BORDER_TOL = 1e-6

RADIAL_HEADER = ["t", "L", "H", "E0", "min_rho", "max_u", "max_du_dr", "dt"]
LINE_HEADER = ["t", "Q", "max_w", "max_dw_dx", "dt"]
SWEEP_HEADER = ["lambda", "mu", "epsilon", "verdict", "T_or_horizon"]


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact in ``out_dir``, keyed by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.is_file()
    }


def bump_max_negative_slope(m_support: float = 1.0) -> float:
    """Exact max(-w0') of w0(x) = exp(-1/(1-(x/M)^2)).

    Setting the log-derivative of -w0' to zero gives 3q^2 - 6q + 2 = 0 with
    q = 1 - (x/M)^2, so q = 1 - 1/sqrt(3) and x = M 3^(-1/4).
    """
    q = 1.0 - 1.0 / math.sqrt(3.0)
    x = 3.0 ** -0.25
    return 2.0 * x / (q * q) * math.exp(-1.0 / q) / m_support


def log_beta(mu: float, lam: float, t: float) -> float:
    """log of the integrating factor beta(t) of mu/(1+t)^lam."""
    if lam == 1.0:
        return mu * math.log1p(t)
    return mu / (1.0 - lam) * math.expm1((1.0 - lam) * math.log1p(t))


def reciprocal_integral_limit(mu: float, lam: float) -> float:
    """I(inf) = int_0^inf dt / beta(t); ``inf`` when it diverges.

    For 0 < lam < 1 the substitution u = (1+t)^(1-lam) gives
    I(inf) = e^c c^-s Gamma(s, c) / (1-lam) with c = mu/(1-lam) and
    s = 1/(1-lam); the upper incomplete gamma is Gamma(s) minus the lower
    one's power series, accurate for the moderate c the workloads use.
    """
    if mu == 0.0 or lam > 1.0 or (lam == 1.0 and mu <= 1.0):
        return math.inf
    if lam == 1.0:
        return 1.0 / (mu - 1.0)
    if lam == 0.0:
        return 1.0 / mu
    c = mu / (1.0 - lam)
    s = 1.0 / (1.0 - lam)
    term = 1.0 / s
    lower = term
    k = 0
    while term > 1e-17 * lower:
        k += 1
        term *= c / (s + k)
        lower += term
    return (math.exp(c + math.lgamma(s) - s * math.log(c)) - lower) / (1.0 - lam)


def closed_form_lifespan(mu: float, lam: float, eps_m: float) -> float | None:
    """Root T of eps*m*I(T) = 1 for lam in {0, 1}; None for other lam."""
    target = 1.0 / eps_m
    if lam == 0.0:
        return target if mu == 0.0 else -math.log1p(-mu * target) / mu
    if lam == 1.0:
        if mu == 1.0:
            return math.expm1(target)
        return math.expm1(math.log1p((1.0 - mu) * target) / (1.0 - mu))
    return None


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    rows = [line for line in path.read_text(encoding="utf-8").splitlines() if line]
    return rows[0].split(","), [row.split(",") for row in rows[1:]]


def _floats(path: Path, header: list[str]) -> tuple[list[list[float]], list[str]]:
    found, rows = _read_csv(path)
    if found != header:
        return [], [f"{path.name}: header {found} != {header}"]
    values = [[float(v) for v in row] for row in rows]
    if not all(math.isfinite(v) for row in values for v in row):
        return values, [f"{path.name}: non-finite value"]
    return values, []


def check_no_nonfinite(path: Path) -> list[str]:
    """A numeric CSV must not spell nan or inf anywhere."""
    data = path.read_bytes().lower()
    if b"nan" in data or b"inf" in data:
        return [f"{path.name}: contains nan or inf"]
    return []


def check_global_verdict(path: Path) -> list[str]:
    first = path.read_text(encoding="utf-8").splitlines()[0]
    if first != "verdict = Global":
        return [f"{path.name}: expected the horizon to be reached, got {first!r}"]
    return []


def _sample_count(t_end: float, cadence: float) -> int:
    return int(math.floor(t_end / cadence + 1e-9)) + 1


def check_radial_series(path: Path, t_end: float, cadence: float) -> list[str]:
    """Row count, finiteness and conservation of L(t) to MASS_TOL |L(0)|."""
    values, problems = _floats(path, RADIAL_HEADER)
    if problems:
        return problems
    if len(values) != _sample_count(t_end, cadence) or values[-1][0] != t_end:
        return [f"{path.name}: {len(values)} samples, expected {_sample_count(t_end, cadence)} up to {t_end}"]
    l0 = values[0][1]
    drift = max(abs(row[1] - l0) for row in values)
    if not drift <= MASS_TOL * abs(l0):
        return [f"{path.name}: |L(t) - L(0)| = {drift!r} exceeds {MASS_TOL} |L(0)| = {MASS_TOL * abs(l0)!r}"]
    return []


def check_line_series(path: Path, t_end: float, cadence: float, mu: float, lam: float) -> list[str]:
    """Row count, finiteness and the exact decay law beta(t) * Q(t) = Q(0)."""
    values, problems = _floats(path, LINE_HEADER)
    if problems:
        return problems
    if len(values) != _sample_count(t_end, cadence) or values[-1][0] != t_end:
        return [f"{path.name}: {len(values)} samples, expected {_sample_count(t_end, cadence)} up to {t_end}"]
    q0 = values[0][1]
    drift = max(abs(row[1] * math.exp(log_beta(mu, lam, row[0])) - q0) for row in values)
    if not drift <= DECAY_TOL * abs(q0):
        return [f"{path.name}: |beta Q - Q(0)| = {drift!r} exceeds {DECAY_TOL} |Q(0)|"]
    return []


def check_sweep(path: Path, lams, mus, epss, slope: float) -> list[str]:
    """Row order, verdict kinds against the exact I(inf) dichotomy, and
    closed-form lifespans for lambda in {0, 1}."""
    header, rows = _read_csv(path)
    if header != SWEEP_HEADER:
        return [f"{path.name}: header {header} != {SWEEP_HEADER}"]
    expected = [(lam, mu, eps) for lam in lams for mu in mus for eps in epss]
    if len(rows) != len(expected):
        return [f"{path.name}: {len(rows)} rows, expected {len(expected)}"]
    problems = []
    for row, (lam, mu, eps) in zip(rows, expected):
        where = f"{path.name} row {','.join(row)}"
        if (float(row[0]), float(row[1]), float(row[2])) != (lam, mu, eps):
            problems.append(f"{where}: expected parameters {(lam, mu, eps)}")
            continue
        kind, t_val = row[3], float(row[4])
        if math.isnan(t_val):
            problems.append(f"{where}: NaN")
            continue
        eps_m = eps * slope
        margin = eps_m * reciprocal_integral_limit(mu, lam)
        if abs(margin - 1.0) < BORDER_TOL:
            continue
        want = "FiniteLifespan" if margin > 1.0 else "Global"
        if kind != want:
            problems.append(f"{where}: verdict {kind}, exact dichotomy gives {want}")
        elif kind == "Global" and t_val != math.inf:
            problems.append(f"{where}: Global row must carry T = inf")
        elif kind == "FiniteLifespan":
            exact = closed_form_lifespan(mu, lam, eps_m)
            if exact is None:
                if not (0.0 < t_val < math.inf):
                    problems.append(f"{where}: lifespan must be positive and finite")
            elif not abs(t_val - exact) <= LIFESPAN_TOL * exact:
                problems.append(f"{where}: lifespan differs from closed form {exact!r}")
    return problems
