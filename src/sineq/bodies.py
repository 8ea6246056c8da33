"""Body representations: complete Reinhardt sets in C^n and unconditional
sets in R^n.

Both families are driven by a predicate on the nonnegative orthant:

* a Reinhardt set is determined by its radial shadow, the set of
  modulus vectors (|z_1|, ..., |z_n|) it contains; completeness means the
  shadow is downward closed;
* an unconditional set is determined by where it meets the positive
  orthant, the set of vectors (|x_1|, ..., |x_n|) it contains.

Each family's ``contains`` reads those coordinate radii of its points (C^n
as 2n interleaved reals, or R^n), so phase and sign invariance hold by
construction.  Predicates are vectorized: they accept an (m, n) array of
nonnegative vectors and return an (m,) boolean array.  Bodies are
immutable and their predicates must be pure, so concurrent evaluation is
safe.

Every constructor body is star-shaped and carries its Minkowski gauge
rho_K(r) = inf{t > 0 : r in tK}, so tK = {rho_K <= t}: one gauge
evaluation answers membership of every dilation, and the predicate is
derived as ``gauge(r) <= 1``.  Where the shadow has one, a body also
carries its exact coordinate sections: one call ``section(r)`` yields,
for k = 0..n-1 in order, c_k(r) = sup{x : r with r_k = x lies in K} and
the mask of rows whose section is not empty, so the work the coordinates
share (an l_p ball's powers, a box's comparisons, a product part's
predicate) is done once per call; :func:`measures.fold_columns` reduces
across the coordinates, and an l_p ball's gauge is :func:`measures.lp_rows`,
the kernel of the ``lp:P`` norm, at every p.  Custom shadows and the
annulus keep bare predicates, with neither.  Constructor boxes (polydiscs,
cylinders, strips, cubes, their products and dilates) carry their radii
as ``box``, the one source of box closed forms.

Descriptors
-----------
Every constructor-built body serializes to a one-line text form

    kind:key=v1[,v2,...][,key=...]

e.g. ``polydisc:r=1,2`` or ``cylinder:R=1.5,n=2``.  Values after a key
accumulate into a list until the next ``key=`` token.  Products join part
descriptors with ``|``: ``product:parts=strip:p=0.5|strip:p=1.5``.
``parse_descriptor`` reads this form back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, Iterator, Sequence

import numpy as np

from .measures import fold_columns, lp_rows, moduli

__all__ = [
    "ReinhardtBody",
    "UnconditionalBody",
    "polydisc",
    "cylinder_body",
    "reinhardt_lp_ball",
    "custom_reinhardt",
    "annulus_body",
    "strip_body",
    "cube_body",
    "box_body",
    "unconditional_lp_ball",
    "cross_polytope",
    "norm_ball",
    "product",
    "interval_radii",
    "check_downward_closed",
    "validate_body",
    "check_midpoint_convex",
    "parse_descriptor",
    "DownwardClosureReport",
    "NonFiniteIntegrandError",
    "require_finite",
]

RadialPredicate = Callable[[np.ndarray], np.ndarray]
Gauge = Callable[[np.ndarray], np.ndarray]
Section = Callable[[np.ndarray], Iterator[tuple[np.ndarray, np.ndarray]]]


class NonFiniteIntegrandError(RuntimeError):
    """An integrand (or a user norm) produced NaN/inf; the estimate aborts."""


def require_finite(vals: np.ndarray, what: str, points: np.ndarray) -> np.ndarray:
    """``vals`` (its last axis runs over the rows of ``points``) if every
    entry is finite; else :class:`NonFiniteIntegrandError` names a NaN or
    inf at the first point that has one, and that point."""
    finite = np.isfinite(vals)
    if finite.all():
        return vals
    at = int(np.argmin(finite.all(axis=tuple(range(finite.ndim - 1)))))
    bad = vals[..., at][~finite[..., at]].flat[0]
    raise NonFiniteIntegrandError(f"{what} returned {bad} at {points[at].tolist()}")


def _as_batch(x: np.ndarray, dim: int, what: str) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"{what}: expected shape (m, {dim}), got {x.shape}")
    return x, single


@dataclass(frozen=True)
class _RadialBody:
    """Shared plumbing for shadow-driven bodies.  ``base`` may be left out
    when a ``gauge`` is given; it is then ``gauge(r) <= 1``.  ``box`` holds
    the radii of a constructor's coordinate box (:func:`interval_radii`)."""

    dim: int
    kind: str
    params: dict
    base: RadialPredicate | None = field(default=None, repr=False)
    validated: bool = False
    gauge: Gauge | None = field(default=None, repr=False)
    section: Section | None = field(default=None, repr=False)
    box: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.base is None:
            if self.gauge is None:
                raise ValueError(f"{self.kind} body needs a predicate or a gauge")
            gauge = self.gauge
            object.__setattr__(self, "base", lambda m: gauge(m) <= 1.0)

    def radial_member(self, r: np.ndarray) -> np.ndarray:
        """Membership of nonnegative vectors, shape (m, dim) -> (m,) bool."""
        return self._member(r, self.dim, lambda x: x)

    def _member(self, x: np.ndarray, width: int, orthant) -> np.ndarray:
        x, single = _as_batch(x, width, f"{self.kind} point")
        out = np.asarray(self.base(orthant(x)), dtype=bool)
        return out[0] if single else out

    def dilate(self, t: float):
        """tK = {t z : z in K}; same kind, scaled parameters."""
        return _dilate_radial(self, t)

    def descriptor(self) -> str:
        parts = self.params.get("parts")
        if parts is not None:
            return "product:parts=" + "|".join(p.descriptor() for p in parts)
        items = []
        for key, val in self.params.items():
            vals = val if isinstance(val, tuple) else (val,)
            # str of a float is its shortest round-trip repr
            items.append(f"{key}=" + ",".join(map(str, vals)))
        return self.kind + ":" + ",".join(items)


@dataclass(frozen=True)
class ReinhardtBody(_RadialBody):
    """A complete Reinhardt set in C^n, represented by its radial shadow.

    Only the class constructors, :func:`product`, ``dilate`` and
    :func:`validate_body` grant ``validated``: custom shadows, hand-built
    bodies and the deliberately out-of-class :func:`annulus_body` lack it.
    """

    measure_tag: ClassVar[str] = "complex-gaussian"

    def contains(self, z: np.ndarray) -> np.ndarray:
        """Membership of points of C^n as 2n interleaved reals, (m, 2n) -> (m,)."""
        return self._member(z, 2 * self.dim, moduli)


@dataclass(frozen=True)
class UnconditionalBody(_RadialBody):
    """An unconditional subset of R^n (membership even in each coordinate).

    Constructor-built bodies are convex; convexity of custom ones can be
    spot-checked with :func:`check_midpoint_convex`.
    """

    measure_tag: ClassVar[str] = "exponential"

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Membership of points of R^n, shape (m, n) -> (m,) bool."""
        return self._member(x, self.dim, np.abs)


# ---------------------------------------------------------------------------
# Gauges and exact sections


def _box_geometry(radii: Sequence[float]) -> dict:
    """The box {r : r_k <= a_k} (entries may be inf): radii a_k, gauge
    max_k r_k / a_k, section c_k = a_k where the others are inside.

    The gauge divides one column at a time into one buffer and folds it
    into the result in place.  It reads 0/0 as 0: a zero radius still
    admits a zero coordinate, and an infinite radius admits every value."""
    a = np.asarray(radii, dtype=float)
    zero = not (a > 0).all()

    def gauge(m: np.ndarray) -> np.ndarray:
        if m.shape[1:] != a.shape:
            raise ValueError(f"box gauge: expected shape (m, {a.size}), got {m.shape}")
        out, t = np.empty(m.shape[0]), np.empty(m.shape[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            for k, a_k in enumerate(a.tolist()):
                q = np.divide(m[:, k], a_k, out=t if k else out)
                if zero:
                    q[m[:, k] == 0] = 0.0
                if k:
                    np.maximum(out, q, out=out)
        return out

    def section(r: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        inside = r <= a
        return ((np.full(r.shape[0], a_k), fold_columns(np.logical_and, inside, k))
                for k, a_k in enumerate(a))

    return {"box": tuple(a.tolist()), "gauge": gauge, "section": section, "validated": True}


def _lp_geometry(weights: Sequence[float], exponent: float, scale: float) -> dict:
    """The weighted l_p ball {sum_k (w_k r_k)^p <= scale^p}: gauge
    (sum_k (w_k r_k)^p)^(1/p) / scale by :func:`measures.lp_rows` (max_k
    w_k r_k / scale at p = inf), section c_k = (scale^p - sum_{j != k}
    (w_j r_j)^p)^(1/p) / w_k, in the unit-scale form (weights w / scale,
    scale 1) where scale^p leaves the normal range."""
    w = np.asarray(weights, dtype=float)

    def gauge(m: np.ndarray) -> np.ndarray:
        return lp_rows(m, exponent, w) / scale

    if math.isinf(exponent):
        return {"gauge": gauge, "section": _box_geometry(scale / w)["section"], "validated": True}
    with np.errstate(over="ignore", under="ignore"):
        v, rhs = w, np.float64(scale) ** exponent
    if not np.finfo(float).tiny <= rhs < math.inf:
        v, rhs = w / scale, 1.0

    def section(r: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        p = v * r
        with np.errstate(over="ignore"):  # an overflowed power leaves no room
            np.power(p, exponent, out=p)
        for k, v_k in enumerate(v):
            room = fold_columns(np.add, p, k)  # then rhs - room, then c_k, in place
            active = np.subtract(rhs, room, out=room) >= 0
            c = np.power(np.maximum(room, 0.0, out=room), 1.0 / exponent, out=room)
            yield np.divide(c, v_k, out=c), active

    return {"gauge": gauge, "section": section, "validated": True}


# ---------------------------------------------------------------------------
# Reinhardt constructors


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not value > 0.0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def _check_nonnegative(name: str, value: float) -> float:
    """``value`` as a float in [0, inf], NaN rejected."""
    value = float(value)
    if not value >= 0.0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _check_dim(n: int) -> int:
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return n


def polydisc(radii: Sequence[float]) -> ReinhardtBody:
    """{z : |z_k| <= r_k for all k}."""
    r = tuple(_check_nonnegative("polydisc radius", v) for v in radii)
    return ReinhardtBody(dim=_check_dim(len(r)), kind="polydisc", params={"r": r},
                         **_box_geometry(r))


def cylinder_body(R: float, n: int) -> ReinhardtBody:
    """{z in C^n : |z_1| <= R}, the comparison set of the dilation inequality."""
    R = _check_nonnegative("cylinder radius", R)
    return ReinhardtBody(dim=_check_dim(n), kind="cylinder", params={"R": R, "n": n},
                         **_box_geometry((R,) + (math.inf,) * (n - 1)))


def reinhardt_lp_ball(
    weights: Sequence[float], exponent: float, scale: float = 1.0
) -> ReinhardtBody:
    """{z : sum_k (w_k |z_k|)^p <= scale^p}; any p > 0 keeps the shadow
    downward closed, so p < 1 (non-convex) is allowed here."""
    w = tuple(_check_positive("weight", v) for v in weights)
    exponent = _check_positive("exponent", exponent)
    scale = _check_positive("scale", scale)
    return ReinhardtBody(
        dim=_check_dim(len(w)),
        kind="weighted-lp-ball",
        params={"p": exponent, "w": w, "scale": scale},
        **_lp_geometry(w, exponent, scale),
    )


def custom_reinhardt(
    n: int, shadow: RadialPredicate, params: dict | None = None
) -> ReinhardtBody:
    """Wrap a user shadow predicate; unvalidated until :func:`validate_body`
    passes, which a check runs itself unless it runs experimentally."""
    return ReinhardtBody(
        dim=_check_dim(n),
        kind="custom",
        params=params or {"n": n},
        base=shadow,
    )


def annulus_body(inner: float, outer: float) -> ReinhardtBody:
    """{z in C : inner <= |z| <= outer}: rotationally symmetric but not
    Reinhardt complete.  Demonstration constructor for the experimental
    (no-correctness-promise) verification path."""
    inner, outer = float(inner), float(outer)
    if not 0 <= inner <= outer:
        raise ValueError(f"need 0 <= inner <= outer, got {inner}, {outer}")
    return ReinhardtBody(
        dim=1,
        kind="annulus",
        params={"inner": inner, "outer": outer},
        base=lambda m: (m[:, 0] >= inner) & (m[:, 0] <= outer),
    )


# ---------------------------------------------------------------------------
# Unconditional constructors


def strip_body(p: float, n: int) -> UnconditionalBody:
    """{x in R^n : |x_1| <= p}."""
    p = _check_nonnegative("half-width", p)
    return UnconditionalBody(dim=_check_dim(n), kind="strip", params={"p": p, "n": n},
                             **_box_geometry((p,) + (math.inf,) * (n - 1)))


def cube_body(a: float, n: int) -> UnconditionalBody:
    """[-a, a]^n."""
    a = _check_nonnegative("half-width", a)
    return UnconditionalBody(dim=_check_dim(n), kind="cube", params={"a": a, "n": n},
                             **_box_geometry((a,) * n))


def box_body(half_widths: Sequence[float]) -> UnconditionalBody:
    """Axis box prod_k [-a_k, a_k], i.e. an intersection of strips."""
    strips = [strip_body(a, 1) for a in half_widths]
    if not strips:
        raise ValueError("box needs at least one half-width")
    return strips[0] if len(strips) == 1 else product(*strips)


def unconditional_lp_ball(
    exponent: float, n: int, scale: float = 1.0, weights: Sequence[float] | None = None
) -> UnconditionalBody:
    """Weighted l_p ball in R^n; p >= 1 enforced so the body is convex."""
    exponent = float(exponent)
    if not exponent >= 1:
        raise ValueError(f"convexity needs exponent >= 1, got {exponent}")
    scale = _check_positive("scale", scale)
    n = _check_dim(n)
    w = tuple(_check_positive("weight", v) for v in ([1.0] * n if weights is None else weights))
    if len(w) != n:
        raise ValueError(f"need {n} weights, got {w}")
    return UnconditionalBody(
        dim=n,
        kind="weighted-lp-ball",
        params={"p": exponent, "n": n, "scale": scale, "w": w},
        **_lp_geometry(w, exponent, scale),
    )


def cross_polytope(scale: float, n: int) -> UnconditionalBody:
    """{x : sum |x_k| <= scale}, the unit-weight l_1 ball: gauge
    sum_k r_k / scale, section c_k = scale - sum_{j != k} r_j."""
    scale, n = _check_positive("scale", scale), _check_dim(n)
    return UnconditionalBody(dim=n, kind="cross-polytope", params={"scale": scale, "n": n},
                             **_lp_geometry((1.0,) * n, 1.0, scale))


def norm_ball(
    norm: Callable[[np.ndarray], np.ndarray], scale: float, n: int
) -> UnconditionalBody:
    """Unit ball (times ``scale``) of a user norm evaluator on (m, n)
    arrays.  Unchecked black box: run :func:`validate_body` (or
    :func:`check_midpoint_convex`) before trusting results."""
    scale = _check_positive("scale", scale)

    def gauge(m: np.ndarray) -> np.ndarray:
        return require_finite(np.asarray(norm(m), dtype=float), "norm", m) / scale

    return UnconditionalBody(
        dim=_check_dim(n),
        kind="norm-ball",
        params={"scale": scale, "n": n},
        gauge=gauge,
    )


# ---------------------------------------------------------------------------
# Operations


def _dilate_radial(body, t: float):
    t = float(t)
    if not t > 0:
        raise ValueError(f"dilation scale must be > 0, got {t}")
    parts = body.params.get("parts")
    if parts is not None:
        parts = tuple(p.dilate(t) for p in parts)
        return replace(body, params={"parts": parts}, **_product_geometry(parts))
    params = dict(body.params)
    if body.kind == "custom":
        # the parameters of a custom shadow are opaque; the descriptor
        # records the composed dilation instead
        params["dilation"] = params.get("dilation", 1.0) * t
    else:
        for key in ("r", "R", "scale", "a", "inner", "outer"):
            if key in params:
                val = params[key]
                params[key] = tuple(v * t for v in val) if isinstance(val, tuple) else val * t
        if body.kind == "strip":
            params["p"] = body.params["p"] * t
    base, gauge, section = body.base, body.gauge, body.section
    if gauge is None:
        return replace(body, params=params, base=lambda m: base(m / t))

    def dilated_section(r: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        return ((t * c, active) for c, active in section(r / t))

    # rho_{tK} = rho_K / t, so membership of tK reads gauge(r) / t <= 1
    return replace(body, params=params, base=None, gauge=lambda m: gauge(m) / t,
                   section=None if section is None else dilated_section,
                   box=None if body.box is None else tuple(a * t for a in body.box))


def _product_geometry(parts) -> dict:
    """Predicate, gauge, section and box of the product of ``parts``.  The
    gauge is the max of the parts' gauges, the box joins their radii; the
    section of coordinate k is that of the part holding k, active where
    every other part holds its own coordinates.  A part without a gauge (or
    section, or box) leaves the product without one, and then the predicate
    is the conjunction of the parts'."""
    offsets = np.concatenate([[0], np.cumsum([p.dim for p in parts])])
    spans = list(zip(parts, offsets[:-1], offsets[1:]))

    def conjunction(m: np.ndarray) -> np.ndarray:
        out = np.ones(m.shape[0], dtype=bool)
        for part, lo, hi in spans:
            out &= part.radial_member(m[:, lo:hi])
        return out

    def gauge(m: np.ndarray) -> np.ndarray:
        # the first maximum is a fresh array (a part's gauge may be a view);
        # the others fold into it in place
        (first, lo0, hi0), (second, lo1, hi1), *rest = spans
        out = np.maximum(first.gauge(m[:, lo0:hi0]), second.gauge(m[:, lo1:hi1]))
        for part, lo, hi in rest:
            np.maximum(out, part.gauge(m[:, lo:hi]), out=out)
        return out

    def section(r: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        inside = np.stack([part.base(r[:, lo:hi]) for part, lo, hi in spans], axis=1)
        for i, (part, lo, hi) in enumerate(spans):
            others = fold_columns(np.logical_and, inside, i)
            yield from ((c, own & others) for c, own in part.section(r[:, lo:hi]))

    if any(p.gauge is None for p in parts):
        return {"base": conjunction, "gauge": None, "section": None, "box": None}
    box = None if any(p.box is None for p in parts) else sum((p.box for p in parts), ())
    return {"base": None, "gauge": gauge, "box": box,
            "section": section if all(p.section is not None for p in parts) else None}


def product(*bodies: _RadialBody) -> _RadialBody:
    """Cartesian product; dimensions add, membership is the conjunction on
    the split coordinates.  Both factors must come from the same family."""
    if len(bodies) < 2:
        raise ValueError("product needs at least two bodies")
    cls = type(bodies[0])
    if not all(isinstance(b, cls) for b in bodies):
        raise TypeError("cannot mix Reinhardt and unconditional bodies in a product")
    flat: list[_RadialBody] = []
    for b in bodies:
        parts = b.params.get("parts")
        flat.extend(parts if parts is not None else [b])
    return cls(
        dim=sum(b.dim for b in flat),
        kind="product",
        params={"parts": tuple(flat)},
        validated=all(b.validated for b in flat),
        **_product_geometry(flat),
    )


def interval_radii(body: _RadialBody) -> tuple[float, ...] | None:
    """The radii a_k of the coordinate box {r : r_k <= a_k} (entries may be
    inf) that the body's constructor built, or None: its ``box``.

    This is what unlocks exact product closed forms for measures and
    moments: polydiscs, cylinders, cubes, strips, boxes and their products
    and dilates.
    """
    return body.box


# ---------------------------------------------------------------------------
# Sampled validation


@dataclass(frozen=True)
class DownwardClosureReport:
    ok: bool
    violation: tuple[tuple[float, ...], tuple[float, ...]] | None = None


def _orthant_cloud(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    # Mix of scales so small and large bodies both get interior hits.
    r = rng.exponential(size=(count, dim)) * rng.uniform(0.1, 2.0, size=(count, 1))
    return r


def check_downward_closed(
    body: _RadialBody, samples: int = 2000, rng_seed: int = 0
) -> DownwardClosureReport:
    """Sampled test of the defining property of the radial shadow: every
    coordinatewise shrink of a member stays a member.  Reports the first
    counterexample found."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(rng_seed)
    r = _orthant_cloud(rng, samples, body.dim)
    member = body.radial_member(r)
    inside = r[member]
    if inside.size == 0:
        # nothing sampled inside: vacuously consistent (body may be empty)
        return DownwardClosureReport(ok=True)
    shrink = inside * rng.uniform(0.0, 1.0, size=inside.shape)
    still = body.radial_member(shrink)
    bad = np.nonzero(~still)[0]
    if bad.size:
        i = int(bad[0])
        return DownwardClosureReport(
            ok=False,
            violation=(tuple(inside[i].tolist()), tuple(shrink[i].tolist())),
        )
    return DownwardClosureReport(ok=True)


def validate_body(body: _RadialBody, samples: int = 5000, rng_seed: int = 0):
    """Run the class checks for the body's family and return a copy with
    the ``validated`` flag set; raises if a check fails.

    Custom shadows stay unvalidated until this passes, since the dilation
    comparisons are only guaranteed on the supported classes.  The checks
    are downward closure and, for unconditional bodies, midpoint convexity;
    ``contains`` reads |z_k| or |x_k|, so invariance needs no check.  An
    unvalidated body whose descriptor parses in its family must also agree
    with the parsed body on the sampled points, so that its records name it.
    """
    unconditional = isinstance(body, UnconditionalBody)
    if not body.validated:
        _check_named(body, "unconditional" if unconditional else "reinhardt", samples, rng_seed)
    report = check_downward_closed(body, samples, rng_seed)
    if not report.ok:
        problem = (f"downward-closure violation: member {report.violation[0]} "
                   f"ejects shrink {report.violation[1]}")
    elif unconditional and not check_midpoint_convex(body, samples, rng_seed):
        problem = "midpoint convexity check failed"
    else:
        return replace(body, validated=True)
    family = "an unconditional convex body" if unconditional else "a complete Reinhardt set"
    raise ValueError(f"body {body.descriptor()!r} is not {family} ({problem})")


def _check_named(body: _RadialBody, family: str, samples: int, rng_seed: int) -> None:
    """Raise unless ``body`` has the membership, on the points that
    :func:`check_downward_closed` samples, of the body its descriptor
    parses to in ``family``; a descriptor that does not parse names none."""
    desc = body.descriptor()
    try:
        named = parse_descriptor(desc, family)
    except ValueError:
        return
    r = _orthant_cloud(np.random.default_rng(rng_seed), samples, body.dim)
    if named.dim != body.dim:
        problem = f"dimension {named.dim}, not {body.dim}"
    else:
        differ = np.nonzero(named.radial_member(r) != body.radial_member(r))[0]
        if differ.size == 0:
            return
        problem = f"membership differs at {tuple(r[differ[0]].tolist())}"
    raise ValueError(f"body {desc!r} is not the body its descriptor names ({problem})")


def check_midpoint_convex(
    body: UnconditionalBody, samples: int = 2000, rng_seed: int = 0
) -> bool:
    """Midpoints of sampled member pairs must stay inside."""
    rng = np.random.default_rng(rng_seed)
    x = _orthant_cloud(rng, samples, body.dim) * rng.choice([-1.0, 1.0], size=(samples, body.dim))
    y = _orthant_cloud(rng, samples, body.dim) * rng.choice([-1.0, 1.0], size=(samples, body.dim))
    both = body.contains(x) & body.contains(y)
    if not both.any():
        return True
    mid = 0.5 * (x[both] + y[both])
    return bool(body.contains(mid).all())


# ---------------------------------------------------------------------------
# Descriptor parsing


_KEYS = {
    "cylinder": {"R", "n"}, "polydisc": {"r"}, "strip": {"p", "n"}, "cube": {"a", "n"},
    "box": {"a"}, "cross-polytope": {"scale", "n"}, "annulus": {"inner", "outer"},
    "weighted-lp-ball": {"p", "w", "scale"},
}
_REINHARDT_KINDS = {"cylinder", "polydisc", "annulus"}  # weighted-lp-ball is in both


def _parse_params(text: str, keys: set[str], desc: str) -> dict[str, list[str]]:
    """The ``key=v1,v2,...`` parameters of ``text``: each one of ``keys``,
    and each once."""
    out: dict[str, list[str]] = {}
    current: str | None = None
    for token in text.split(","):
        if "=" in token:
            current, first = token.split("=", 1)
            current = current.strip()
            if current not in keys or current in out:
                problem = "repeated" if current in out else f"unknown (takes {sorted(keys)})"
                raise ValueError(f"descriptor {desc!r}: key {current!r} {problem}")
            out[current] = [first]
        elif current is not None:
            out[current].append(token)
        else:
            raise ValueError(f"malformed descriptor parameters: {text!r}")
    return out


def _one(params: dict, key: str, desc: str, cast=float, default=None):
    if key not in params and default is not None:
        return default
    if len(params.get(key, ())) != 1:
        raise ValueError(f"descriptor {desc!r}: expected a single value for {key!r}")
    return cast(params[key][0])


def parse_descriptor(text: str, family: str | None = None) -> _RadialBody:
    """Parse the documented ``kind:key=value,...`` text form; an unknown
    kind, an unknown or repeated key, a list where one value belongs, or a
    product whose parts mix the families raises ``ValueError``.

    ``family`` ("reinhardt" or "unconditional") picks the family of kinds in
    both (weighted-lp-ball, product) and refuses a kind of the other one;
    only an unconditional weighted-lp-ball takes ``n``.
    """
    text = text.strip()
    if ":" not in text:
        raise ValueError(f"descriptor {text!r} has no kind prefix")
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind == "product":
        if not rest.startswith("parts="):
            raise ValueError(f"product descriptor must be product:parts=...: {text!r}")
        parts = [parse_descriptor(p, family) for p in rest[len("parts="):].split("|")]
        if len({type(p) for p in parts}) > 1:
            raise ValueError(f"descriptor {text!r} mixes Reinhardt and unconditional parts")
        return product(*parts)
    kind = "weighted-lp-ball" if kind == "lp-ball" else kind
    if kind not in _KEYS:
        raise ValueError(f"unknown body kind {kind!r} in descriptor {text!r}")
    other = "unconditional" if kind in _REINHARDT_KINDS else "reinhardt"
    if family == other and kind != "weighted-lp-ball":
        need = "a Reinhardt" if family == "reinhardt" else "an unconditional"
        raise ValueError(f"the {family} family needs {need} body, got {text!r}")
    unconditional_lp = kind == "weighted-lp-ball" and family == "unconditional"
    params = _parse_params(rest, _KEYS[kind] | ({"n"} if unconditional_lp else set()), text)
    if kind == "cylinder":
        return cylinder_body(_one(params, "R", text), _one(params, "n", text, int, 1))
    if kind == "polydisc":
        return polydisc([float(v) for v in params.get("r", [])])
    if kind == "weighted-lp-ball":
        p, scale = _one(params, "p", text), _one(params, "scale", text, float, 1.0)
        if unconditional_lp:
            n = _one(params, "n", text, int, len(params.get("w", [])) or None)
            w = [float(v) for v in params["w"]] if "w" in params else None
            return unconditional_lp_ball(p, n, scale, w)
        if "w" not in params:
            raise ValueError(f"descriptor {text!r}: Reinhardt lp ball needs weights w=")
        return reinhardt_lp_ball([float(v) for v in params["w"]], p, scale)
    if kind == "strip":
        return strip_body(_one(params, "p", text), _one(params, "n", text, int, 1))
    if kind == "cube":
        return cube_body(_one(params, "a", text), _one(params, "n", text, int, 1))
    if kind == "box":
        return box_body([float(v) for v in params.get("a", [])])
    if kind == "cross-polytope":
        return cross_polytope(_one(params, "scale", text), _one(params, "n", text, int, 1))
    return annulus_body(_one(params, "inner", text), _one(params, "outer", text))
