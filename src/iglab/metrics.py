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

EdgeLengths holds one length per edge, aligned with graph.edges().
PathMetric puts them on the graph's CSR pattern and computes distances
with scipy.sparse.csgraph.dijkstra, the one graph search of the package.
Each distance is the minimum over paths of the left-to-right float sum of
the edge lengths, summed from the source.

The intrinsic certificate needs d(x, y) on every stored edge.
PathMetric.edge_distances reads all of them from one kernel: dijkstra
from a block of source rows at a time, with limit = the largest edge
length, and d(x, y) taken from the search started at x, the entry's row,
as distance(x, y) does. The limit loses nothing. The edge is itself a
path of length sigma(x, y), so d(x, y) <= sigma(x, y) <= limit; and
float addition of nonnegative lengths never decreases, so every prefix of
a shortest path ends at or below the limit and the bounded search finds
the same minimum as the full one (scipy keeps a distance equal to the
limit). Each block holds at most SOURCE_BLOCK_ENTRIES distances.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .errors import InputError
from .graphs import WeightedGraph, vertex_id

# Relative tolerance, with no absolute floor, used whenever two metric
# quantities are compared: distances can lie far below any fixed floor.
REL_TOL = 1e-12
# Distance entries per Dijkstra block in PathMetric.edge_distances: the
# block of source rows holds at most this many floats (32 MB).
SOURCE_BLOCK_ENTRIES = 1 << 22
# The largest float whose square is finite.
SQUARE_MAX = math.sqrt(sys.float_info.max)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


class EdgeLengths:
    """Positive lengths on the edges of a graph, in one form: `values`,
    one length per edge aligned with graph.edges(). custom_lengths builds
    that array from a dict or a callable."""

    def __init__(self, graph: WeightedGraph, values, kind: str):
        self.graph, self.kind = graph, kind
        m = graph.edge_count()
        self.values = np.array(values, dtype=float)
        if self.values.shape != (m,):
            raise InputError(f"need one length per edge ({m})")
        bad = ~(np.isfinite(self.values) & (self.values > 0.0))
        if bad.any():
            k = int(np.argmax(bad))
            raise InputError(f"edge ({graph.edge_u[k]},{graph.edge_v[k]})"
                             ": length must be positive")

    def of(self, x: int, y: int) -> float:
        return float(self.values[self.graph.edge_index(x, y)])

    def entry_values(self) -> np.ndarray:
        """The lengths on the graph's CSR entries (both directions)."""
        return self.values[self.graph.edge_of]


def sigma0(g: WeightedGraph) -> EdgeLengths:
    """sigma_0(x,y) = min(Deg(x)^-1/2, Deg(y)^-1/2, 1); jump size 1.

    Strongly intrinsic on every graph: on the edge (x,y) the length is at
    most Deg(x)^-1/2, so the weighted square sum at x is at most mu(x).
    Deg^-1/2 is 1 / sqrt(Deg), two correctly rounded steps; inf at Deg 0.
    """
    with np.errstate(divide="ignore"):
        inv = 1.0 / np.sqrt(g.degrees())
    s = np.minimum(np.minimum(inv[g.edge_u], inv[g.edge_v]), 1.0)
    return EdgeLengths(g, s, kind="sigma0")


def sigma1(g: WeightedGraph) -> EdgeLengths:
    """sigma_1(x,y) = w(x,y)^-1/2 min(mu(x)/deg(x), mu(y)/deg(y))^1/2,
    deg combinatorial. Strongly intrinsic; adapts to the local edge count.
    Each ^1/2 is a correctly rounded sqrt."""
    count = np.diff(g.indptr)
    m = np.minimum(g.mu[g.edge_u] / count[g.edge_u],
                   g.mu[g.edge_v] / count[g.edge_v])
    return EdgeLengths(g, np.sqrt(m) / np.sqrt(g.edge_w), kind="sigma1")


def natural_scaled(g: WeightedGraph, K: float) -> EdgeLengths:
    """Constant lengths 1/sqrt(K). Requires Deg(x) <= K for all x."""
    if not 0 < K < math.inf:
        raise InputError("K must be finite and positive")
    deg = g.degrees()
    worst = int(np.argmax(deg))
    if deg[worst] > K * (1 + REL_TOL):
        raise InputError(f"natural metric needs Deg <= {K}; vertex {worst} "
                         f"has Deg = {float(deg[worst])}")
    return EdgeLengths(g, np.full(g.edge_count(), 1.0 / math.sqrt(K)),
                       kind=f"natural:{K:g}")


def custom_lengths(g: WeightedGraph, spec, kind: str = "custom") -> EdgeLengths:
    """Lengths from a callable s = spec(x, y), or from a dict {(x,y): s}
    keyed in either orientation that gives every edge one length."""
    if callable(spec):
        return EdgeLengths(g, [spec(x, y) for x, y, _ in g.edges()], kind)
    values = np.full(g.edge_count(), np.nan)
    for (x, y), s in spec.items():
        try:
            k = g.edge_index(x, y)
        except KeyError:
            raise InputError(f"length given for non-edge ({x},{y})") from None
        if not math.isfinite(s) or s <= 0.0:
            raise InputError(f"edge ({x},{y}): length must be positive")
        values[k] = s
    missing = np.isnan(values)
    if missing.any():
        k = int(np.argmax(missing))
        raise InputError("missing lengths, e.g. for edge "
                         f"{(int(g.edge_u[k]), int(g.edge_v[k]))}")
    return EdgeLengths(g, values, kind)


class PathMetric:
    """Path pseudo metric induced by edge lengths, via Dijkstra.

    The lengths are held once as a CSR matrix on the graph's own pattern.
    Single-source distance arrays are memoized per source for the life of
    the metric: every call for one source returns the same read-only
    array. Disconnected pairs get d = inf.
    """

    def __init__(self, lengths: EdgeLengths):
        self.graph = lengths.graph
        self.lengths = lengths
        self.entry_lengths = lengths.entry_values()
        self._csr = self.graph.csr(self.entry_lengths)
        self._memo: dict[int, np.ndarray] = {}

    def distances_from(self, src: int) -> np.ndarray:
        src = vertex_id(self.graph, src)
        dist = self._memo.get(src)
        if dist is None:
            dist = self._memo[src] = dijkstra(self._csr, indices=src)
            dist.flags.writeable = False
        return dist

    def distance(self, x: int, y: int) -> float:
        x, y = vertex_id(self.graph, x), vertex_id(self.graph, y)
        return 0.0 if x == y else float(self.distances_from(x)[y])

    def edge_distances(self) -> np.ndarray:
        """d(x, y) for every CSR entry (x, y) of the graph, searched from x.

        One bounded multi-source Dijkstra per block of source rows; see
        the module docstring for why the bound loses nothing.
        """
        g = self.graph
        out = np.empty(g.indices.size)
        if not out.size:
            return out
        limit = float(self.entry_lengths.max())
        block = max(1, SOURCE_BLOCK_ENTRIES // g.n)
        for lo in range(0, g.n, block):
            hi = min(lo + block, g.n)
            a, b = g.indptr[lo], g.indptr[hi]
            if a == b:
                continue
            dist = dijkstra(self._csr, indices=np.arange(lo, hi), limit=limit)
            out[a:b] = dist[g.rows[a:b] - lo, g.indices[a:b]]
        return out

    def ball(self, x0: int, r: float) -> tuple:
        """Closed ball {y : d(x0, y) <= r} as a sorted vertex tuple."""
        return tuple(np.flatnonzero(self.distances_from(x0) <= r).tolist())

    def eccentricity(self, x0: int) -> float:
        d = self.distances_from(x0)
        finite = d[np.isfinite(d)]
        return float(finite.max()) if finite.size else 0.0


def discovered_jump_size(m: PathMetric) -> float:
    """Least s with w(x,y) = 0 whenever d(x,y) > s, on the realized graph:
    max over stored edges of d(x, y). Experimental diagnostic."""
    g = m.graph
    d = m.edge_distances()[g.rows < g.indices]     # each edge once, from x < y
    return float(d.max()) if d.size else 0.0


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


def _loads(w: np.ndarray, length: np.ndarray) -> np.ndarray:
    """w len^2 per edge as w * len^2, or as (w * len) * len where len^2
    overflows: a tiny weight can bring the load back into float range."""
    big = length > SQUARE_MAX
    if not big.any():
        return w * np.square(length)
    with np.errstate(over="ignore"):
        return np.where(big, w * length * length, w * np.square(length))


def _certificate(g: WeightedGraph, entry_len: np.ndarray,
                 kind: str) -> IntrinsicCertificate:
    """Slack 1 - (1/mu(x)) sum_y w(x,y) len(x,y)^2; passes at -REL_TOL."""
    slack = 1.0 - g.row_fsum(_loads(g.w, entry_len)) / g.mu
    worst = int(np.argmin(slack))
    mn = float(slack[worst])
    return IntrinsicCertificate(kind, slack, mn, worst, REL_TOL,
                                mn >= -REL_TOL)


def strongly_intrinsic_check(g: WeightedGraph,
                             lengths: EdgeLengths) -> IntrinsicCertificate:
    """Certificate for (1/mu) sum w sigma^2 <= 1 using the lengths directly."""
    if not _same_pattern(g, lengths.graph):
        raise InputError("the lengths live on a different graph")
    return _certificate(g, lengths.entry_values(), "strongly-intrinsic")


def intrinsic_check(g: WeightedGraph,
                    metric: PathMetric) -> IntrinsicCertificate:
    """Certificate with len = d_sigma (path distances) on the edges.

    d <= sigma edgewise, so strongly intrinsic implies intrinsic; tests
    assert that ordering whenever both certificates are computed.
    """
    if not _same_pattern(g, metric.graph):
        raise InputError("the metric lives on a different graph")
    return _certificate(g, metric.edge_distances(), "intrinsic")


def _same_pattern(g: WeightedGraph, h: WeightedGraph) -> bool:
    return g is h or (np.array_equal(g.indptr, h.indptr)
                      and np.array_equal(g.indices, h.indices))
