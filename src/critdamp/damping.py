"""Friction coefficient mu/(1+t)**lam: integrating factor and reciprocal integral.

The integrating factor beta solves beta' = mu (1+t)**(-lam) beta with
beta(0) = 1.  Its reciprocal integral I(t) = int_0^t dtau / beta(tau) is the
single quantity that decides between global smooth solutions and finite
lifespan: the decay exponent lam = 1 is the critical threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import ConvergenceError, adaptive_quad, gamma_fraction, gamma_series, time_integral

QUAD_TOL = 1e-12
GAMMA_MAX_S = 1000.0  # lam <= 0.999
SERIES_MAX_C = 1e4  # lam >= 1 + mu/SERIES_MAX_C
_SERIES_TOL = 2.0**-53  # half the float64 epsilon


@dataclass(frozen=True)
class DampingLaw:
    """Damping strength ``mu`` and decay exponent ``lam`` (both finite, >= 0).

    ``mu = 0`` is admitted (no damping: beta == 1, I(t) = t).  Immutable and
    free of global state (closed forms, series and quadrature alike), so
    instances are freely shareable.
    """

    mu: float
    lam: float

    def __post_init__(self) -> None:
        for name in ("mu", "lam"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and nonnegative")

    def _check_time(self, t) -> None:
        if not np.all(np.asarray(t) >= 0):  # rejects nan too
            raise ValueError("time must be nonnegative")

    def log_integrating_factor(self, t):
        """log(beta(t)); overflow-free form used wherever ratios of beta appear."""
        self._check_time(t)
        return self._log_beta(np.asarray(t, dtype=float) if np.ndim(t) else float(t))

    def _log_beta(self, t):
        if self.lam == 1.0:
            return self.mu * np.log1p(t)
        return self.mu / (1.0 - self.lam) * np.expm1((1.0 - self.lam) * np.log1p(t))

    def damping_factor(self, t0: float, t1: float) -> float:
        """beta(t0) / beta(t1) for scalar times 0 <= t0 <= t1: the exact factor
        by which damping alone scales the momentum from t0 to t1."""
        return float(np.exp(self._log_beta(t0) - self._log_beta(t1)))

    def integrating_factor(self, t):
        """beta(t) = exp((mu/(1-lam)) ((1+t)**(1-lam) - 1)), or (1+t)**mu at lam = 1."""
        return np.exp(self.log_integrating_factor(t))

    @property
    def gamma_form(self) -> bool:
        """True where I(t) is an incomplete gamma function: 0 < lam < 1, mu > 0
        and s = 1/(1-lam) <= GAMMA_MAX_S.  Beyond, the difference of two gamma
        values loses digits as s grows (1.4e-12 relative at lam = 0.9999,
        mu = 1), so I(t) stays on quadrature there; I(inf) does not."""
        return self.mu > 0.0 and 0.0 < self.lam < 1.0 and 1.0 / (1.0 - self.lam) <= GAMMA_MAX_S

    @property
    def series_form(self) -> bool:
        """True where I(t) is a Poisson series: lam > 1, mu > 0 and
        C = mu/(lam-1) <= SERIES_MAX_C.  The series takes 17 to 26 sqrt(C)
        terms (about 1 ms at C = 1e4, 30 ms at C = 1e7), so the lam -> 1+
        corner stays on quadrature to keep the work bounded."""
        return self.mu > 0.0 and self.lam > 1.0 and self.mu / (self.lam - 1.0) <= SERIES_MAX_C

    def _gamma_args(self) -> tuple[float, float, float]:
        a = 1.0 - self.lam
        return a, 1.0 / a, self.mu / a

    def reciprocal_integral(self, t: float) -> float:
        """I(t) = int_0^t dtau / beta(tau); strictly increasing in t.

        Closed forms cover mu = 0, lam in {0, 1} and, through the incomplete
        gamma function, 0 < lam < 1 (see ``gamma_form`` and ``_gamma_limit``);
        a Poisson series covers lam > 1 (see ``series_form``).  Only the
        lam -> 1 corners, 0.999 < lam < 1 and lam - 1 < mu/SERIES_MAX_C, are
        integrated by quadrature, in log time from 0 through t
        (``numerics.time_integral``, relative tolerance 1e-14).  There 1/beta
        is close to a power of 1+t, so it is smooth in log(1+t), and one call
        resolves any t up to the float range.
        """
        self._check_time(t)
        t = float(t)
        if self.mu == 0.0:
            return t
        if self.lam == 1.0:
            if self.mu == 1.0:
                return float(np.log1p(t))
            return float(np.expm1((1.0 - self.mu) * np.log1p(t)) / (1.0 - self.mu))
        if self.lam == 0.0:
            return float(-np.expm1(-self.mu * t) / self.mu)
        if self.series_form:
            return self._poisson_series(t)
        if not self.gamma_form:
            return time_integral(lambda tau: np.exp(-self._log_beta(tau)), t)
        # I(t) = (e^c c^-s / a) int_c^x e^-y y^(s-1) dy with x = c (1+t)^a, and
        # (e^c c^-s) x^s e^-x = (1+t) / beta(t) exactly.  Both ends below
        # s + 1: difference of lower gammas; otherwise I(inf) minus the upper
        # gamma beyond x.  Neither difference cancels badly.
        a, s, c = self._gamma_args()
        log1p_t = math.log1p(t)
        x = c * math.exp(a * log1p_t)
        ratio = math.exp(log1p_t - c * math.expm1(a * log1p_t))
        if x < s + 1.0:
            return (ratio * gamma_series(s, x) - gamma_series(s, c)) / a
        # ratio underflows to 0 before x overflows, so x is finite when used
        tail = ratio * gamma_fraction(s, x) / a if ratio > 0.0 else 0.0
        return self._gamma_limit() - tail

    def _poisson_series(self, t: float) -> float:
        """I(t) for lam > 1 as a Poisson mixture of power integrals.

        With b = lam - 1 and C = mu/b, 1/beta(tau) = e^-C exp(C (1+tau)^-b)
        = sum_k Pois_C(k) (1+tau)^(-kb), so term by term
          I(t) = sum_k Pois_C(k) expm1((1-kb) log(1+t)) / (1-kb),
        with the limit log(1+t) where kb = 1 (lam = 2, say).  Every term is
        positive.  The weights are carried relative to the mode floor(C) by
        the ratios C/k and k/C and divided by their own sum, so neither e^-C
        nor C^k/k! is formed.  Each direction stops once a geometric bound on
        its rest falls below eps/2 of both sums: upward the power integrals
        decrease in k, downward none exceeds the k = 0 one, t.  Summed this
        way, it matches mpmath to 3e-15 relative up to t = 1e4.
        """
        b = self.lam - 1.0
        c = self.mu / b
        log1p_t = math.log1p(t)

        def power_integral(k: int) -> float:  # int_0^t (1+tau)^(-kb) dtau
            e = 1.0 - k * b
            return math.expm1(e * log1p_t) / e if e != 0.0 else log1p_t

        mode = math.floor(c)
        total, weights = power_integral(mode), 1.0
        w, k = 1.0, mode
        while True:
            k += 1
            w *= c / k
            term = w * power_integral(k)
            total += term
            weights += w
            r = c / (k + 1)
            if r < 1.0:
                rest = r / (1.0 - r)  # bounds sum_{j>k} w_j / w_k
                if w * rest <= _SERIES_TOL * weights and term * rest <= _SERIES_TOL * total:
                    break
        w, k = 1.0, mode
        while k > 0:
            w *= k / c
            k -= 1
            total += w * power_integral(k)
            weights += w
            rest = k / (c - k)  # bounds sum_{j<k} w_j / w_k
            if w * rest <= _SERIES_TOL * weights and t * w * rest <= _SERIES_TOL * total:
                break
        return total / weights

    def _gamma_limit(self) -> float:
        """I(inf) = e^c c^-s Gamma(s, c) / a for a = 1 - lam, s = 1/a, c = mu/a.

        Substituting y = c (1+tau)^a turns 1/beta into e^c c^-s e^-y y^(s-1)/a
        (DLMF 8.2).  For c < s + 1, Gamma(s, c) is split at x0 = s + 1 into
        gamma(s, x0) - gamma(s, c) + Gamma(s, x0), so that each piece is
        evaluated where its expansion converges and no Gamma(s) is needed:
        normalizing by lgamma(s) costs up to 1.7e-13 relative at lam = 0.99.
        +inf when I(inf) exceeds the float range.  Both expansions take
        O(sqrt(s)) terms near x0, so for lam within about 1e-7 of 1 and
        mu near 1 they hit ``GAMMA_MAX_TERMS`` and raise ``ConvergenceError``.
        """
        a, s, c = self._gamma_args()
        if c >= s + 1.0:
            return gamma_fraction(s, c) / a
        x0 = s + 1.0
        try:
            scale = math.exp(c - x0 + s * math.log1p((x0 - c) / c))  # e^c c^-s x0^s e^-x0
        except OverflowError:
            return math.inf
        return (scale * (gamma_series(s, x0) + gamma_fraction(s, x0)) - gamma_series(s, c)) / a

    def reciprocal_integral_limit(self) -> float:
        """I(infinity): finite iff (lam < 1 and mu > 0) or (lam = 1 and mu > 1),
        ``math.inf`` where the integral diverges.

        The finite values are closed forms: 1/(mu-1) at lam = 1, 1/mu at
        lam = 0 and an upper incomplete gamma function for 0 < lam < 1 (also
        +inf where it exceeds the float range).  Only where the gamma
        expansions hit their term cap (lam within about 1e-7 of 1, mu near 1)
        is I(inf) integrated by quadrature.  For lam > 1 the integrating
        factor is bounded above by exp(mu/(lam-1)), so the integrand is
        bounded below and the integral diverges.
        """
        if self.lam == 1.0:
            return 1.0 / (self.mu - 1.0) if self.mu > 1.0 else math.inf
        if self.lam > 1.0 or self.mu == 0.0:
            return math.inf
        if self.lam == 0.0:
            return 1.0 / self.mu
        try:
            return self._gamma_limit()
        except ConvergenceError:
            return self._limit_quad()

    def _limit_quad(self) -> float:
        """I(inf) for 0 < lam < 1 by quadrature in u = (1+tau)^(1-lam).

        Substituting u compresses the integral to c^-1-scale decay,
          I(inf) = (1/(1-lam)) int_1^inf e^{-c(u-1)} u^p du,
        with c = mu/(1-lam) and p = lam/(1-lam).  For U >= max(1, 2p/c) the
        tail is bounded by f(U) * 2/c (since (u/U)^p <= e^{c(u-U)/2} there);
        U doubles until that bound drops below 1e-14.
        """
        c = self.mu / (1.0 - self.lam)
        p = self.lam / (1.0 - self.lam)

        def integrand(u):
            u = np.asarray(u, dtype=float)
            return np.exp(-c * (u - 1.0) + p * np.log(u))

        u_big = max(1.0, 2.0 * p / c)
        bound = np.inf
        for _ in range(400):
            bound = float(integrand(np.array([u_big]))[0] * 2.0 / c)
            if bound < 1e-14:
                break
            u_big *= 2.0
        return adaptive_quad(integrand, 1.0, u_big, abs_tol=QUAD_TOL) / (1.0 - self.lam) + bound
