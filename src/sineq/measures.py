"""Reference measures, their one-dimensional factor and its closed forms.

Two probability measures drive everything in this package:

* the standard complex Gaussian on C^n (the pushforward of the standard
  Gaussian on R^2n under interleaving (Re z_1, Im z_1, ..., Re z_n, Im z_n)),
* the symmetric exponential (two-sided, unit rate) measure on R^n.

Both are products whose coordinate radii (|z_k| or |x_k|) follow one
factor on [0, inf): the radial factor r*exp(-r^2/2), or the one-sided unit
exponential.  The bodies read nothing else, so Monte Carlo draws the radii
alone (``integrate.draw_points``); the ``contains`` of each body family
reduces the points callers pass in, by :func:`moduli` or ``abs``.  The two
factors differ by one fact: with u = r^d/d, the factor of degree d (d = 2
radial, d = 1 exponential) is the unit exponential law of u.
:class:`Factor` writes every one-dimensional formula once, in u, and
scales by d where the weight r^d = d*u enters: CDF, tail, quantile,
restricted weight, and the closed forms of the comparison sets (cylinder
{|z_1| <= R}, strip {|x_1| <= p}).
:func:`box_closed_forms` builds the coordinate-box closed forms from them,
:func:`cylinder_measure` and the other scalar forms are a line over it each,
and ``verify.calibrate_cylinder`` / ``calibrate_strip`` invert them.
:func:`abs_moment_exponential` is Gamma(p+1) by the stdlib's ``math.gamma``.
:func:`fold_columns` is the one kernel across the coordinate axis (sums,
maxima, conjunctions) of the weight here, the gauges and sections of
``bodies`` and the norms of ``moments``; :func:`lp_rows` is the one l_p
row kernel, of the l_p ball gauges and the ``lp:P`` norms.

All formulas are exact in binary64; no arbitrary precision is used.  The
convention 0 * ln 0 = 0 applies throughout (see :func:`xlnx`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "MeasureKind",
    "Factor",
    "RADIAL_FACTOR",
    "EXP_FACTOR",
    "FACTORS",
    "BoxForms",
    "box_closed_forms",
    "complex_gaussian",
    "exponential",
    "moduli",
    "fold_columns",
    "lp_rows",
    "xlnx",
    "cylinder_measure",
    "cylinder_second_moment",
    "exp_strip_measure",
    "exp_strip_first_moment",
    "abs_moment_exponential",
]


def xlnx(x: float) -> float:
    """x * ln(x) with the convention 0 * ln 0 = 0."""
    if x < 0.0:
        raise ValueError(f"xlnx requires x >= 0, got {x}")
    return 0.0 if x == 0.0 else x * math.log(x)


def _lib(x):
    # each formula below is written once for Python floats (math) and
    # numpy arrays (numpy), with the bits each library gives on its own
    return np if isinstance(x, np.ndarray) else math


@dataclass(frozen=True)
class Factor:
    """The one-dimensional factor of degree d: the law of r = (d*u)^(1/d)
    for u unit exponential.

    ``d = 2`` is the radial factor r*exp(-r^2/2) (u = r^2/2), ``d = 1`` the
    one-sided unit exponential (u = r).  The pointwise maps (``u``, ``r``,
    ``cdf``, ``tail``, ``quantile``, ``inverse_tail``) take a float or a
    numpy array; the others take floats.  The comparison set of measure m
    is the cylinder {|z_1| <= R} or the strip {|x_1| <= p} with cdf = m.
    """

    tag: str
    d: int

    def u(self, r):
        """r -> u = r^d / d."""
        return 0.5 * r * r if self.d == 2 else r

    def r(self, u):
        """u -> r = (d*u)^(1/d)."""
        return _lib(u).sqrt(2.0 * u) if self.d == 2 else u

    def cdf(self, r):
        """mu([0, r]) = 1 - exp(-u)."""
        return -_lib(r).expm1(-self.u(r))

    def tail(self, r):
        """mu((r, inf)) = exp(-u), for r >= 0."""
        return _lib(r).exp(-self.u(r))

    def quantile(self, v):
        """Inverse of the CDF on [0, 1)."""
        if isinstance(v, np.ndarray):
            return self.quantile_in_place(v.astype(float))
        return self.r(-math.log1p(-v))

    def quantile_in_place(self, v: np.ndarray) -> np.ndarray:
        """``quantile`` of the float array ``v``, written over it with no
        temporary array: the Monte Carlo draw kernel."""
        w = np.log1p(np.negative(v, out=v), out=v)  # ln(1 - v) = -u
        if self.d == 1:
            return np.negative(w, out=w)
        # -u * 2 is w * -2.0 to the bit: negating and doubling are exact
        return np.sqrt(np.multiply(w, -2.0, out=w), out=w)

    def inverse_tail(self, y):
        """Inverse of the tail on (0, 1]."""
        return self.r(-_lib(y).log(y))

    def weight(self, a: float) -> float:
        """Restricted weight int_0^a r^d dmu = d * (1 - (1+u) exp(-u)).

        Written in u: the r-side form 2F + 2(1-F)ln(1-F) of the radial
        factor cancels at small a (3.3e-8 relative error at a = 0.01).
        """
        u = self.u(a)
        if math.isinf(u):  # u * exp(-u) would be NaN; a*a overflows from a = 1.3e154
            return float(self.d)
        return self.d * (-math.expm1(-u) - u * math.exp(-u))

    # Closed forms of the comparison set C of measure m, each with its
    # derivative in m (the delta method needs both)

    def comparison_moment(self, m: float, n: int) -> tuple[float, float]:
        """Weight moment int_C sum_k r_k^d in n coordinates,
        d * (n*m + (1-m) ln(1-m)); the derivative is inf at m = 1."""
        return self.d * (n * m + xlnx(1.0 - m)), self.d * n - self.dilation_rate(m)[1]

    def dilation_rate(self, m: float) -> tuple[float, float]:
        """d/dt at t = 1 of measure(tC), -d * (1-m) ln(1-m); the derivative
        d * (ln(1-m) + 1) is -inf at m = 1."""
        slope = self.d * (math.log1p(-m) + 1.0) if m < 1.0 else -math.inf
        return -self.d * xlnx(1.0 - m), slope

    def comparison_measure(self, m: float, t: float) -> tuple[float, float]:
        """measure(tC) = 1 - (1-m)^(t^d); the derivative is 0 at m = 1."""
        e = t * t if self.d == 2 else t  # t ** 2 rounds differently on ~1 in 1000 t
        slope = e * (1.0 - m) ** (e - 1.0) if m < 1.0 else 0.0
        return -math.expm1(e * math.log1p(-m)), slope

    def entropy_sides(self, m: float, moment: float, n: int) -> tuple[float, float]:
        """Both sides of the multidimensional entropy inequality for
        g = 1 - 1_K, from m = measure(K) and the weight moment over K:
        Ent(g) = -(1-m) ln(1-m) and int g * (sum_k u_k - n) = n*m - moment/d."""
        return -xlnx(1.0 - m), n * m - moment / self.d


RADIAL_FACTOR = Factor("radial-mu", 2)
EXP_FACTOR = Factor("exponential-1d", 1)
FACTORS = {f.tag: f for f in (RADIAL_FACTOR, EXP_FACTOR)}

_MEASURE_FACTORS = {"complex-gaussian": RADIAL_FACTOR, "exponential": EXP_FACTOR, **FACTORS}


def moduli(z: np.ndarray) -> np.ndarray:
    """Moduli (|z_1|, ..., |z_n|) of points given as 2n interleaved reals."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] % 2 != 0:
        raise ValueError("complex points need an even number of real coordinates")
    return np.hypot(z[..., 0::2], z[..., 1::2])


def fold_columns(op, q: np.ndarray, skip: int | None = None, f=None) -> np.ndarray:
    """op(... op(f(q_0), f(q_1)) ..., f(q_{n-1})) per row of the (m, n) array
    ``q``, one column at a time in coordinate order, column ``skip`` left
    out (with no column left, op's identity): the row sum (``np.add``), max
    (``np.maximum``) or all (``np.logical_and``).  numpy reduces a short row
    axis several times slower; for n < 8 its row reductions give the same
    bits (at n >= 8 it sums in pairs, so sums may differ in the last bits)."""
    cols = [c for k, c in enumerate(q.T) if k != skip]
    if not cols:
        return np.full(q.shape[0], op.identity, dtype=q.dtype)
    f = f or np.asarray  # no f: the columns themselves
    out = np.array(f(cols[0]))
    for c in cols[1:]:
        # each f(c) is freed before the next is made, so one buffer is reused
        op(out, f(c), out=out)
    return out


def lp_rows(a: np.ndarray, p: float, w: np.ndarray | None = None) -> np.ndarray:
    """(sum_k |w_k a_k|^p)^(1/p) per row of the (m, n) array ``a``, max_k
    |w_k a_k| at p = inf, for weights ``w`` > 0, one per column (all 1 when
    None).  ``a`` is only read: each column is weighted, raised to the p-th
    power and folded in turn in one (m,) buffer, so no (m, n) temporary is
    made.

    At large p the power sum s of a row can overflow or fall below the
    normal range, where the norm is not homogeneous; such a row with max M
    in (0, inf) is recomputed as M * (sum_k |w_k a_k / M|^p)^(1/p), and
    every other row keeps the bits of the plain formula."""
    s, t = np.zeros(a.shape[0]), np.empty(a.shape[0])
    fold = np.maximum if math.isinf(p) else np.add
    with np.errstate(over="ignore"):  # a power sum out of range is recomputed below
        for k, c in enumerate(a.T):
            col = t if k else s
            np.abs(c if w is None else np.multiply(c, w[k], out=col), out=col)
            if not math.isinf(p):
                np.power(col, p, out=col)
            if k:
                fold(s, t, out=s)
    if math.isinf(p):
        return s
    tiny = np.finfo(float).tiny
    in_range = s.min(initial=np.inf) >= tiny and s.max(initial=0.0) < np.inf
    redo = None if in_range else np.flatnonzero(~((s >= tiny) & (s < np.inf)))
    s **= 1.0 / p  # in place, through the same scalar-exponent paths as s ** (1 / p)
    if redo is not None:
        b = np.abs(a[redo] if w is None else a[redo] * w)
        M = fold_columns(np.maximum, b)
        keep = (M > 0) & (M < np.inf)
        q = b[keep] / M[keep, None]
        s[redo[keep]] = M[keep] * fold_columns(np.add, np.power(q, p, out=q)) ** (1.0 / p)
    return s


@dataclass(frozen=True)
class MeasureKind:
    """A tagged reference measure.

    ``complex-gaussian``  standard complex Gaussian on C^n
    ``exponential``       symmetric exponential product measure on R^n
    ``radial-mu``         radial factor r*exp(-r^2/2) on [0, inf)^n
    ``exponential-1d``    one-sided unit-rate exponential on [0, inf)^n

    ``n`` is the coordinate dimension (number of complex coordinates for
    the Gaussian); the last two tags are one-dimensional objects whose
    n-fold products appear in radial reductions.
    """

    tag: str
    n: int = 1

    def __post_init__(self) -> None:
        if self.tag not in _MEASURE_FACTORS:
            raise ValueError(f"unknown measure tag {self.tag!r}")
        if self.n < 1:
            raise ValueError(f"measure dimension must be >= 1, got {self.n}")

    @property
    def factor(self) -> Factor:
        """The law of each coordinate radius."""
        return _MEASURE_FACTORS[self.tag]

    def weight(self, r) -> np.ndarray:
        """sum_k r_k^d per row of coordinate radii: |z|^2 or |x|_1."""
        square = np.square if self.factor.d == 2 else None  # r^1 is r itself
        return fold_columns(np.add, np.asarray(r, dtype=float), f=square)


def complex_gaussian(n: int) -> MeasureKind:
    return MeasureKind("complex-gaussian", n)


def exponential(n: int) -> MeasureKind:
    return MeasureKind("exponential", n)


class BoxForms(NamedTuple):
    """Closed forms of a coordinate box K = {r : r_k <= a_k} under the
    n-fold factor."""

    curve: tuple[float, ...]  # measure(tK) for each t of the grid
    moment: float  # int_K sum_k r_k^d
    slice_entropy: float  # sum_k of the mean entropy of the k-th slice of 1 - 1_K


def box_closed_forms(
    radii: Sequence[float], factor: Factor, t_grid: Sequence[float] = (1.0,)
) -> BoxForms:
    """Measures of tK, weight moment and slice-entropy sum of the box with
    half-widths ``radii`` (entries may be inf).

    Every slice of 1 - 1_K along coordinate k is 0 or the tail indicator
    of [a_k, inf), whose entropy is -(1-F_k) ln(1-F_k); it is nonzero
    exactly when the other coordinates lie inside, with probability
    prod_{j != k} F_j.
    """
    F = [factor.cdf(a) for a in radii]

    def others(k: int) -> float:
        return math.prod(F[j] for j in range(len(F)) if j != k)

    return BoxForms(
        curve=tuple(math.prod(factor.cdf(t * a) for a in radii) for t in t_grid),
        moment=math.fsum(factor.weight(a) * others(k) for k, a in enumerate(radii)),
        slice_entropy=math.fsum(others(k) * -xlnx(1.0 - F[k]) for k in range(len(F))),
    )


def cylinder_measure(R: float, n: int) -> float:
    """Complex-Gaussian measure of the cylinder {z in C^n : |z_1| <= R}.

    Equals 1 - exp(-R^2/2); only the first coordinate is constrained, so
    the value does not depend on n (n is validated for interface hygiene).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if R < 0.0:
        raise ValueError(f"radius must be >= 0, got {R}")
    return RADIAL_FACTOR.cdf(R)


def cylinder_second_moment(R: float, n: int) -> float:
    """Integral of |z|^2 over the cylinder {|z_1| <= R} in C^n: the weight
    moment of the box (R, inf, ..., inf) by :func:`box_closed_forms`, the
    disc's restricted weight in u = R^2/2 plus 2 per free coordinate times
    the measure 1 - exp(-u) (2n for the full space).
    """
    cylinder_measure(R, n)  # rejects R < 0 and n < 1
    return box_closed_forms((R,) + (math.inf,) * (n - 1), RADIAL_FACTOR).moment


def exp_strip_measure(p: float) -> float:
    """Symmetric-exponential measure of the strip {x in R^n : |x_1| <= p}.

    Equals 1 - exp(-p), independent of the ambient dimension.
    """
    if p < 0.0:
        raise ValueError(f"half-width must be >= 0, got {p}")
    return EXP_FACTOR.cdf(p)


def exp_strip_first_moment(p: float, n: int) -> float:
    """Integral of |x|_1 over the strip {|x_1| <= p} under the n-fold
    symmetric exponential measure, n*(1 - exp(-p)) - p*exp(-p), as the
    weight moment of the box (p, inf, ..., inf) by :func:`box_closed_forms`."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    exp_strip_measure(p)  # rejects p < 0
    return box_closed_forms((p,) + (math.inf,) * (n - 1), EXP_FACTOR).moment


def abs_moment_exponential(p: float) -> float:
    """p-th absolute moment of the symmetric exponential measure on R.

    Equals Gamma(p+1), evaluated by ``math.gamma``: exact at the integers
    (Gamma(p+1) = p!), and within 8.4e-16 relative of 40-digit values on
    the exponent range of ``moments`` (p + 1 in [1, 31]).
    """
    if p <= 0.0:
        raise ValueError(f"exponent must be > 0, got {p}")
    return math.gamma(p + 1.0)
