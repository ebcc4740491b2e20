"""Path pseudo metrics from edge lengths, and intrinsic-metric certificates.

An edge-length assignment sigma gives each path the length sum of its edge
lengths; the path pseudo metric d_sigma(x, y) is the infimum over paths.
sigma (or the induced metric d) is called (strongly) intrinsic when

    (1/mu(x)) * sum_y w(x,y) * len(x,y)^2  <=  1   for every x,

with len = d_sigma (intrinsic) or len = sigma (strongly intrinsic).
Certificates report the per-vertex slack 1 - lhs, the worst vertex, and a
pass verdict at a stated tolerance.

Standard constructions:
    sigma_0(x,y) = min(Deg(x)^-1/2, Deg(y)^-1/2, 1)     (jump size 1)
    sigma_1(x,y) = w(x,y)^-1/2 * min(mu(x)/deg(x), mu(y)/deg(y))^1/2
                   with deg the combinatorial degree
    natural scaled: sigma == 1/sqrt(K), valid when Deg <= K everywhere.

PathMetric stores the lengths once as a symmetric CSR matrix and computes
distances with scipy.sparse.csgraph.dijkstra, the one graph search of the
package. Each distance is the minimum over paths of the left-to-right
float sum of the edge lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .errors import InputError
from .graphs import WeightedGraph

# Relative tolerance with an absolute floor, used whenever two metric
# quantities are compared.
REL_TOL = 1e-12
ABS_FLOOR = 1e-15


def close(a: float, b: float, rel: float = REL_TOL,
          floor: float = ABS_FLOOR) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), floor)


class EdgeLengths:
    """Positive lengths on the edges of a graph, keyed (x, y) with x < y."""

    def __init__(self, graph: WeightedGraph, lengths: dict, kind: str):
        self.graph = graph
        self.kind = kind
        self.lengths = {}
        for (x, y), s in lengths.items():
            if graph.weight(x, y) == 0.0:
                raise InputError(f"length given for non-edge ({x},{y})")
            if not math.isfinite(s) or s <= 0.0:
                raise InputError(f"edge ({x},{y}): length must be positive")
            self.lengths[(min(x, y), max(x, y))] = float(s)
        missing = [(x, y) for x, y, _ in graph.edges()
                   if (x, y) not in self.lengths]
        if missing:
            raise InputError(f"missing lengths, e.g. for edge {missing[0]}")

    def of(self, x: int, y: int) -> float:
        return self.lengths[(min(x, y), max(x, y))]

    def items(self):
        return self.lengths.items()


def sigma0(g: WeightedGraph) -> EdgeLengths:
    """sigma_0(x,y) = min(Deg(x)^-1/2, Deg(y)^-1/2, 1); jump size 1.

    Strongly intrinsic on every graph: on the edge (x,y) the length is at
    most Deg(x)^-1/2, so the weighted square sum at x is at most mu(x).
    """
    deg = [g.degree(x) for x in range(g.n)]
    lengths = {}
    for x, y, _ in g.edges():
        lengths[(x, y)] = min(deg[x] ** -0.5, deg[y] ** -0.5, 1.0)
    return EdgeLengths(g, lengths, kind="sigma0")


def sigma1(g: WeightedGraph) -> EdgeLengths:
    """sigma_1(x,y) = w(x,y)^-1/2 min(mu(x)/deg(x), mu(y)/deg(y))^1/2,
    deg combinatorial. Strongly intrinsic; adapts to the local edge count."""
    lengths = {}
    for x, y, w in g.edges():
        mx = g.mu[x] / len(g.adj[x])
        my = g.mu[y] / len(g.adj[y])
        lengths[(x, y)] = min(mx, my) ** 0.5 / w ** 0.5
    return EdgeLengths(g, lengths, kind="sigma1")


def natural_scaled(g: WeightedGraph, K: float) -> EdgeLengths:
    """Constant lengths 1/sqrt(K). Requires Deg(x) <= K for all x."""
    if not K > 0:
        raise InputError("K must be positive")
    worst = max(range(g.n), key=g.degree) if g.n else 0
    if g.degree(worst) > K * (1 + REL_TOL):
        raise InputError(
            f"natural metric needs Deg <= {K}; vertex {worst} has "
            f"Deg = {g.degree(worst)}")
    s = 1.0 / math.sqrt(K)
    return EdgeLengths(g, {(x, y): s for x, y, _ in g.edges()},
                       kind=f"natural:{K:g}")


def custom_lengths(g: WeightedGraph, spec, kind: str = "custom") -> EdgeLengths:
    """Lengths from a dict {(x,y): s} or a callable s = spec(x, y)."""
    if callable(spec):
        spec = {(x, y): spec(x, y) for x, y, _ in g.edges()}
    return EdgeLengths(g, spec, kind=kind)


class PathMetric:
    """Path pseudo metric induced by edge lengths, via Dijkstra.

    The lengths are held once as a symmetric CSR matrix. Single-source
    distance arrays are memoized per source. The memo is a plain dict
    written once per source; Dijkstra is deterministic, so concurrent
    readers always observe identical values. Disconnected pairs get
    d = inf.
    """

    def __init__(self, lengths: EdgeLengths):
        self.graph = lengths.graph
        self.lengths = lengths
        n = self.graph.n
        ij = np.array(list(lengths.lengths), dtype=np.intp).reshape(-1, 2)
        s = np.fromiter(lengths.lengths.values(), float, len(ij))
        # each edge in both directions: rows i then j, columns j then i
        self._csr = sp.csr_matrix(
            (np.tile(s, 2), (ij.T.ravel(), ij[:, ::-1].T.ravel())),
            shape=(n, n))
        self._memo: dict[int, np.ndarray] = {}

    def distances_from(self, src: int) -> np.ndarray:
        dist = self._memo.get(src)
        if dist is None:
            dist = self._memo[src] = dijkstra(self._csr, indices=src)
        return dist

    def distance(self, x: int, y: int) -> float:
        if x == y:
            return 0.0
        return float(self.distances_from(x)[y])

    def ball(self, x0: int, r: float) -> tuple:
        """Closed ball {y : d(x0, y) <= r} as a sorted vertex tuple."""
        d = self.distances_from(x0)
        return tuple(int(v) for v in np.flatnonzero(d <= r))

    def eccentricity(self, x0: int) -> float:
        d = self.distances_from(x0)
        finite = d[np.isfinite(d)]
        return float(finite.max()) if finite.size else 0.0


def discovered_jump_size(m: PathMetric) -> float:
    """Least s with w(x,y) = 0 whenever d(x,y) > s, on the realized graph:
    max over stored edges of d(x, y). Experimental diagnostic."""
    best = 0.0
    for x, y, _ in m.graph.edges():
        best = max(best, m.distance(x, y))
    return best


@dataclass(frozen=True)
class IntrinsicCertificate:
    kind: str                 # "strongly-intrinsic" | "intrinsic"
    slack: np.ndarray         # per-vertex 1 - (1/mu) sum w * len^2
    min_slack: float
    worst_vertex: int
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {"kind": self.kind, "min_slack": self.min_slack,
                "worst_vertex": self.worst_vertex,
                "tolerance": self.tolerance, "verdict": self.passed}


def _certificate(g: WeightedGraph, length_of, kind: str,
                 tol: float) -> IntrinsicCertificate:
    slack = np.empty(g.n)
    for x in range(g.n):
        s = math.fsum(w * length_of(x, y) ** 2 for y, w in g.adj[x].items())
        slack[x] = 1.0 - s / g.mu[x]
    worst = int(np.argmin(slack)) if g.n else 0
    mn = float(slack[worst]) if g.n else 1.0
    return IntrinsicCertificate(kind, slack, mn, worst, tol, mn >= -tol)


def strongly_intrinsic_check(g: WeightedGraph, lengths: EdgeLengths,
                             tol: float = REL_TOL) -> IntrinsicCertificate:
    """Certificate for (1/mu) sum w sigma^2 <= 1 using the lengths directly."""
    return _certificate(g, lengths.of, "strongly-intrinsic", tol)


def intrinsic_check(g: WeightedGraph, metric: PathMetric,
                    tol: float = REL_TOL) -> IntrinsicCertificate:
    """Certificate with len = d_sigma (path distances) on the edges.

    d <= sigma edgewise, so strongly intrinsic implies intrinsic; tests
    assert that ordering whenever both certificates are computed.
    """
    return _certificate(g, metric.distance, "intrinsic", tol)
