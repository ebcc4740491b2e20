"""Dirichlet energy, gradients, Laplacian, and the finite-graph identities.

For a function f on a weighted graph:

    energy     Q(f)        = 1/2 sum_{x,y} w(x,y) (f(x) - f(y))^2
    carre      |grad f|^2(x) = sum_y w(x,y) (f(x) - f(y))^2
    pairing    (grad f . grad g)(x) analogously
    laplacian  (Delta f)(x) = (1/mu(x)) sum_y w(x,y) (f(x) - f(y))
    norms      ||f||^2 = sum f^2 mu,   ||f||_Q = sqrt(Q(f) + ||f||^2)

laplacian_all, gradient_sq_all and gradient_pairing_all give one value per
vertex, as an array. On a finite graph, Green's identity, the Leibniz rule
and the Caccioppoli inequality are exact algebra; the check functions
verify them to residual <= 1e-9 * scale with scale = max(|terms|, 1). On
truncations of infinite graphs the values differ from the infinite-graph
ones only through edges dropped at the frontier; form_report attaches the
corresponding leak bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graphs import WeightedGraph, combinatorial_neighborhood, vertex_mask
from .metrics import PathMetric

RESIDUAL_TOL = 1e-9


class VertexFunction:
    """A real-valued function on the vertices of a specific graph."""

    def __init__(self, graph: WeightedGraph, values):
        self.graph = graph
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (graph.n,):
            raise InputError(f"values must have length {graph.n}")

    @classmethod
    def constant(cls, graph, c):
        return cls(graph, np.full(graph.n, float(c)))

    @classmethod
    def indicator(cls, graph, ids):
        return cls(graph, vertex_mask(graph, ids).astype(float))

    @classmethod
    def from_dict(cls, graph, d, default=0.0):
        v = np.full(graph.n, float(default))
        vertex_mask(graph, d)                 # the keys must be vertex ids
        v[list(d)] = list(d.values())
        return cls(graph, v)

    def support(self) -> tuple:
        return tuple(int(v) for v in np.flatnonzero(self.values != 0.0))

    def __mul__(self, other):
        if isinstance(other, VertexFunction):
            return VertexFunction(self.graph, self.values * other.values)
        return VertexFunction(self.graph, self.values * float(other))

    def clip(self):
        """Unit contraction (f v 0) ^ 1: normal, so never raises the energy."""
        return VertexFunction(self.graph, np.clip(self.values, 0.0, 1.0))


# The kernels below evaluate the per-vertex and per-edge formulas as array
# expressions over the CSR entries, with the same operations in the same
# order as the scalar formulas, and sum each row with math.fsum (see
# WeightedGraph.row_fsum). Squares are np.square, t * t, correctly rounded
# as IEEE-754 requires; one that overflows is inf, as in the scalar t * t.

def _diff(f: VertexFunction) -> np.ndarray:
    """f(x) - f(y) on every CSR entry (x, y)."""
    g = f.graph
    return f.values[g.rows] - f.values[g.indices]


def energy(f: VertexFunction) -> float:
    """Q(f) = 1/2 sum_{x,y} w (f(x)-f(y))^2, accumulated once per edge."""
    g, v = f.graph, f.values
    return math.fsum((g.edge_w * np.square(v[g.edge_u] - v[g.edge_v])).tolist())


def norm_sq(f: VertexFunction) -> float:
    return math.fsum((np.square(f.values) * f.graph.mu).tolist())


def qnorm(f: VertexFunction) -> float:
    """Form norm ||f||_Q = sqrt(Q(f) + ||f||^2)."""
    return math.sqrt(energy(f) + norm_sq(f))


def gradient_sq_all(f: VertexFunction) -> np.ndarray:
    """|grad f|^2(x) = sum_y w(x,y)(f(x)-f(y))^2 for every vertex x."""
    g = f.graph
    return g.row_fsum(g.w * np.square(_diff(f)))


def gradient_pairing_all(f: VertexFunction, g: VertexFunction) -> np.ndarray:
    """(grad f . grad g)(x) = sum_y w (f(x)-f(y))(g(x)-g(y)) at every x."""
    gr = f.graph
    return gr.row_fsum(gr.w * _diff(f) * _diff(g))


def laplacian_all(f: VertexFunction) -> np.ndarray:
    """(Delta f)(x) = (1/mu(x)) sum_y w(x,y)(f(x)-f(y)) for every vertex x.

    On a truncation this is the Laplacian of the finite graph; at frontier
    vertices it differs from the infinite-graph value by the dropped edges.
    """
    g = f.graph
    return g.row_fsum(g.w * _diff(f)) / g.mu


def _touches(f: VertexFunction, g: WeightedGraph) -> bool:
    """Whether f is nonzero somewhere on the frontier's neighborhood."""
    near = list(combinatorial_neighborhood(g, g.frontier))
    return bool(np.any(f.values[near] != 0.0))


@dataclass(frozen=True)
class FormReport:
    energy: float
    norm_sq: float
    qnorm: float
    touches_frontier: bool
    leak_mass: float          # total dropped edge weight at the frontier
    leak_bound: float         # |Q_infinite - Q_window| <= this, for any
                              # extension bounded by the frontier sup

    def to_dict(self):
        return dict(vars(self))


def form_report(f: VertexFunction) -> FormReport:
    """Energy/norms plus the frontier-leak error bound of the window.

    Each dropped edge (x, y_out) contributes w * (f(x) - f(y_out))^2 to the
    infinite-graph energy. If |f| stays bounded by M = max over frontier
    vertices of |f| beyond the window, the total is at most 4 M^2 * leak
    mass; it is exactly zero when f vanishes on the frontier and is
    extended by zero.
    """
    g = f.graph
    e = energy(f)
    n2 = norm_sq(f)
    touches = _touches(f, g)
    mass = math.fsum(g.leak.values())
    sup = max((abs(float(f.values[x])) for x in g.frontier), default=0.0)
    return FormReport(e, n2, math.sqrt(e + n2), touches, mass,
                      4.0 * sup * sup * mass)


def _scale(*vals: float) -> float:
    return max(1.0, *(abs(v) for v in vals))


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    terms: dict
    residual: float
    scale: float
    passed: bool


def green_identity_check(u: VertexFunction,
                         v: VertexFunction) -> IdentityCheck:
    """sum (Delta u) v mu = sum u (Delta v) mu = 1/2 sum (grad u . grad v).

    Exact algebra on a finite graph, so it holds on truncations too.
    """
    g = u.graph
    a = math.fsum((laplacian_all(u) * v.values * g.mu).tolist())
    b = math.fsum((u.values * laplacian_all(v) * g.mu).tolist())
    c = 0.5 * math.fsum(gradient_pairing_all(u, v).tolist())
    sc = _scale(a, b, c)
    res = max(abs(a - b), abs(a - c), abs(b - c))
    return IdentityCheck("green", {"sum (Du)v mu": a, "sum u(Dv) mu": b,
                                   "half pairing": c},
                         res, sc, res <= RESIDUAL_TOL * sc)


def leibniz_check(f: VertexFunction, g: VertexFunction,
                  h: VertexFunction) -> IdentityCheck:
    """sum grad(fg).grad h = sum f (grad g . grad h) + sum g (grad f . grad h),
    all three outer sums plain (unweighted) vertex sums."""
    fg = f * g
    lhs = math.fsum(gradient_pairing_all(fg, h).tolist())
    rhs = math.fsum((f.values * gradient_pairing_all(g, h)
                     + g.values * gradient_pairing_all(f, h)).tolist())
    sc = _scale(lhs, rhs)
    res = abs(lhs - rhs)
    return IdentityCheck("leibniz", {"lhs": lhs, "rhs": rhs},
                         res, sc, res <= RESIDUAL_TOL * sc)


def caccioppoli_check(u: VertexFunction, v: VertexFunction) -> IdentityCheck:
    """-sum (Delta u) u v^2 mu <= 1/2 sum u^2 |grad v|^2 (slack >= 0)."""
    g = u.graph
    lhs = -math.fsum((laplacian_all(u) * u.values * np.square(v.values)
                      * g.mu).tolist())
    rhs = 0.5 * math.fsum((np.square(u.values) * gradient_sq_all(v)).tolist())
    sc = _scale(lhs, rhs)
    slack = rhs - lhs
    return IdentityCheck("caccioppoli", {"lhs": lhs, "rhs": rhs,
                                         "slack": slack},
                         min(slack, 0.0), sc, slack >= -RESIDUAL_TOL * sc)


def cutoff_eta(metric: PathMetric, x0: int, r: float, R: float) -> VertexFunction:
    """eta(x) = ((R - d(x, x0)) / (R - r))_+ ^ 1: equals 1 on the r-ball,
    0 outside the R-ball, linear ramp in between.

    When the metric is intrinsic, |grad eta|^2(x) <= mu(x) / (R - r)^2.
    """
    if not R > r >= 0.0:
        raise InputError("need 0 <= r < R")
    d = metric.distances_from(x0)
    with np.errstate(invalid="ignore"):
        vals = np.clip((R - d) / (R - r), 0.0, 1.0)
    vals[~np.isfinite(d)] = 0.0
    return VertexFunction(metric.graph, vals)
