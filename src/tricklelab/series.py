"""Dense truncated formal power series in one or two named variables.

Coefficients live in a numpy array indexed by per-variable degree; all
arithmetic truncates to the construction-time degree bounds, and every
retained coefficient is exact (truncation never corrupts low-order terms).
"""

from __future__ import annotations

import numpy as np
from scipy.signal import convolve


class TruncatedSeries:
    """A formal power series cut off at fixed per-variable degrees."""

    __slots__ = ("variables", "coeffs")

    def __init__(self, variables: tuple[str, ...], coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != len(variables):
            raise ValueError("coefficient array rank must match variable count")
        if coeffs.ndim not in (1, 2):
            raise ValueError("only univariate and bivariate series are supported")
        self.variables = tuple(variables)
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, variables: tuple[str, ...], degrees: tuple[int, ...]) -> "TruncatedSeries":
        return cls(variables, np.zeros(tuple(d + 1 for d in degrees)))

    @classmethod
    def constant(cls, value: float, variables, degrees) -> "TruncatedSeries":
        s = cls.zeros(variables, degrees)
        s.coeffs[(0,) * len(variables)] = value
        return s

    @classmethod
    def monomial(cls, variables, degrees, powers: tuple[int, ...], coeff: float = 1.0) -> "TruncatedSeries":
        s = cls.zeros(variables, degrees)
        if all(p <= d for p, d in zip(powers, degrees)):
            s.coeffs[powers] = coeff
        return s

    # -- helpers -----------------------------------------------------------

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(d - 1 for d in self.coeffs.shape)

    @property
    def constant_term(self) -> float:
        return float(self.coeffs[(0,) * self.coeffs.ndim])

    def copy(self) -> "TruncatedSeries":
        return TruncatedSeries(self.variables, self.coeffs.copy())

    def coefficient(self, powers: tuple[int, ...]) -> float:
        return float(self.coeffs[powers])

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.variables != other.variables or self.coeffs.shape != other.coeffs.shape:
            raise ValueError(
                f"incompatible series: {self.variables}{self.coeffs.shape} vs "
                f"{other.variables}{other.coeffs.shape}"
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_compatible(other)
            return TruncatedSeries(self.variables, self.coeffs + other.coeffs)
        s = self.copy()
        s.coeffs[(0,) * s.coeffs.ndim] += other
        return s

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.variables, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_compatible(other)
            return TruncatedSeries(self.variables, self.coeffs - other.coeffs)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_compatible(other)
            full = convolve(self.coeffs, other.coeffs)
            cut = tuple(slice(0, n) for n in self.coeffs.shape)
            return TruncatedSeries(self.variables, full[cut])
        return TruncatedSeries(self.variables, self.coeffs * other)

    __rmul__ = __mul__

    def shifted(self, powers: tuple[int, ...]) -> "TruncatedSeries":
        """Multiply by the monomial with the given per-variable powers."""
        out = np.zeros_like(self.coeffs)
        if all(p < n for p, n in zip(powers, self.coeffs.shape)):
            src = tuple(slice(0, n - p) for n, p in zip(self.coeffs.shape, powers))
            dst = tuple(slice(p, None) for p in powers)
            out[dst] = self.coeffs[src]
        return TruncatedSeries(self.variables, out)


def geometric(series: TruncatedSeries) -> TruncatedSeries:
    """1 / (1 - g) for a series g with zero constant term.

    Expands the geometric sum; terminates because each power of g raises the
    minimum total degree, so powers beyond the truncation vanish.
    """
    if series.constant_term != 0.0:
        raise ValueError("geometric expansion needs a zero constant term")
    acc = TruncatedSeries.constant(1.0, series.variables, series.degrees)
    term = acc
    limit = sum(series.degrees) + 1
    for _ in range(limit):
        term = term * series
        if not np.any(term.coeffs):
            break
        acc = acc + term
    return acc
