"""Geodesics, metric-completeness evidence, and boundary distances.

For locally finite graphs the Hopf-Rinow dichotomy ties together metric
completeness, geodesic completeness, finiteness of distance balls, and
compactness of bounded closed sets. On truncations of an infinite family
we can only gather evidence: ball sizes that stabilize as the window
grows, and the total edge length of each ray end (a finite total length
means the end is a Cauchy boundary point, so the graph is incomplete).

Boundary distances: for a ray end with edge lengths sigma, the distance
from vertex x to the ideal boundary point is r(x) = sum_{y >= x} sigma(y),
computed from certified tail sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .graphs import GraphFamily, WeightedGraph
from .metrics import (EdgeLengths, PathMetric, close, natural_scaled, sigma0,
                      sigma1)
from .series import TailSum


def lengths_for(g: WeightedGraph, choice, family: GraphFamily | None = None
                ) -> EdgeLengths:
    """Resolve a sigma choice: 'sigma0', 'sigma1', 'natural:K', 'canonical'."""
    if isinstance(choice, EdgeLengths):
        return choice
    if choice == "canonical":
        if family is None:
            raise InputError("canonical lengths need a family")
        return family.canonical_lengths(g)
    if choice == "sigma0":
        return sigma0(g)
    if choice == "sigma1":
        return sigma1(g)
    if isinstance(choice, str) and choice.startswith("natural:"):
        try:
            k = float(choice.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad natural metric spec {choice!r}") from None
        return natural_scaled(g, k)
    raise InputError(f"unknown sigma choice {choice!r}")


@dataclass(frozen=True)
class Geodesic:
    vertices: tuple
    length: float
    verified: bool   # every prefix realizes the path distance


def find_geodesic(metric: PathMetric, origin: int, n: int) -> Geodesic:
    """Length-minimal path from origin to the combinatorial sphere at n,
    among paths staying inside the combinatorial ball of radius n.

    Ties are broken by lexicographic vertex order of the whole path. The
    returned path realizes the unrestricted path distance to its endpoint,
    and so does every prefix; this is checked and reported in `verified`.
    """
    g = metric.graph
    if not 0 <= origin < g.n:
        raise InputError("origin out of range")
    # combinatorial distances from the origin
    dn = [-1] * g.n
    dn[origin] = 0
    frontier = [origin]
    while frontier:
        nxt = []
        for x in frontier:
            for y in g.adj[x]:
                if dn[y] < 0:
                    dn[y] = dn[x] + 1
                    nxt.append(y)
        frontier = nxt
    sphere = [x for x in range(g.n) if dn[x] == n]
    if not sphere:
        raise InputError(f"combinatorial sphere at {n} is empty in this window")
    ball = set(x for x in range(g.n) if 0 <= dn[x] <= n)

    dist_o = _restricted_dijkstra(metric, origin, ball)
    best_len = min(dist_o[z] for z in sphere)
    if math.isinf(best_len):
        raise InputError("sphere unreachable inside the ball")
    candidates = [z for z in sphere if close(dist_o[z], best_len)]

    best_path = None
    for z in candidates:
        dist_z = _restricted_dijkstra(metric, z, ball)
        path = _lex_min_path(metric, origin, z, ball, dist_o, dist_z)
        if best_path is None or path < best_path:
            best_path = path
    length = math.fsum(metric.lengths.of(a, b)
                       for a, b in zip(best_path, best_path[1:]))
    verified = all(
        close(_restricted_prefix_len(metric, best_path, k),
              metric.distance(origin, best_path[k]))
        for k in range(1, len(best_path)))
    return Geodesic(tuple(best_path), length, verified)


def _restricted_prefix_len(metric, path, k):
    return math.fsum(metric.lengths.of(a, b)
                     for a, b in zip(path[:k], path[1:k + 1]))


def _restricted_dijkstra(metric, src, allowed):
    import heapq
    g = metric.graph
    dist = {v: math.inf for v in allowed}
    dist[src] = 0.0
    heap = [(0.0, src)]
    done = set()
    while heap:
        d, x = heapq.heappop(heap)
        if x in done:
            continue
        done.add(x)
        for y in g.adj[x]:
            if y in allowed:
                nd = d + metric.lengths.of(x, y)
                if nd < dist[y]:
                    dist[y] = nd
                    heapq.heappush(heap, (nd, y))
    return dist


def _lex_min_path(metric, origin, z, ball, dist_o, dist_z):
    """Lexicographically smallest shortest origin-z path inside the ball.

    A vertex v lies on some shortest path iff d(o,v) + d(v,z) = d(o,z);
    greedily extending by the smallest feasible neighbor stays shortest.
    """
    total = dist_o[z]
    path = [origin]
    cur = origin
    while cur != z:
        choices = []
        for y in metric.graph.adj[cur]:
            if y not in ball:
                continue
            step = metric.lengths.of(cur, y)
            if close(dist_o[cur] + step, dist_o[y]) and \
               close(dist_o[y] + dist_z[y], total):
                choices.append(y)
        cur = min(choices)
        path.append(cur)
    return path


@dataclass
class HopfRinowReport:
    family: str
    sigma_kind: str
    windows: list
    radii: list
    ball_sizes: dict        # radius -> list of |B_r(x0)| per window
    stabilized: dict        # radius -> bool (constant over last 3 windows)
    end_lengths: list       # (label, TailSum or None, finite: bool | None)
    verdict: str
    notes: list = field(default_factory=list)

    def to_dict(self):
        return {"family": self.family, "sigma": self.sigma_kind,
                "windows": self.windows, "radii": self.radii,
                "ball_sizes": {f"{r:.6g}": s for r, s in self.ball_sizes.items()},
                "stabilized": {f"{r:.6g}": v for r, v in self.stabilized.items()},
                "end_lengths": [
                    {"end": lab, "length": (ts.value if ts else None),
                     "bound": (ts.bound if ts else None), "finite": fin}
                    for lab, ts, fin in self.end_lengths],
                "verdict": self.verdict, "notes": self.notes}


def _ball_scan(fam: GraphFamily, sigma, n_max: int, parts: int):
    """Distances from the origin over doubling windows 8, 16, ... up to
    the family's usable cap at n_max.

    Yields (window, graph, distances, radii) per window. The radii are
    the fractions j/parts (j = 1..parts) of the origin's eccentricity in
    the first window, and stay fixed across windows.
    """
    cap = fam.max_window(n_max)
    windows = []
    w = 8
    while w < cap:
        windows.append(w)
        w *= 2
    windows.append(cap)
    radii = None
    for win in sorted(set(windows)):
        g = fam.truncate(win)
        metric = PathMetric(lengths_for(g, sigma, fam))
        d = metric.distances_from(fam.model_to_id(0, win))
        if radii is None:
            ecc = float(np.max(d[np.isfinite(d)]))
            radii = [ecc * j / parts for j in range(1, parts + 1)]
        yield win, g, d, radii


def hopf_rinow_report(fam: GraphFamily, sigma="canonical",
                      n_max: int = 256) -> HopfRinowReport:
    """Ball-stabilization evidence for the completeness dichotomy.

    Evidence, not proof: ball sizes |B_r(x0)| are tracked over doubling
    windows and compared, and each linear end contributes its certified
    total length (finite length => Cauchy boundary point => incomplete).
    For families that are not locally finite the dichotomy does not apply
    and the verdict says so.
    """
    windows = []
    sizes = {}
    for win, _, d, radii in _ball_scan(fam, sigma, n_max, 8):
        windows.append(win)
        for r in radii:
            sizes.setdefault(r, []).append(int(np.sum(d <= r)))

    stabilized = {}
    for r in radii:
        s = sizes[r]
        stabilized[r] = len(s) >= 4 and len(set(s[-4:])) == 1

    end_lengths = []
    any_finite = False
    for end in fam.ends():
        try:
            ts = end.sigma_tail(0)
            finite = math.isfinite(ts.upper)
        except InputError:
            ts, finite = None, None
        end_lengths.append((end.label, ts, finite))
        any_finite = any_finite or bool(finite)

    notes = []
    if not fam.locally_finite:
        verdict = "inapplicable (not locally finite)"
        notes.append("completeness dichotomy needs local finiteness; "
                     "ball sizes reported for the truncation sequence only")
    elif any_finite:
        verdict = "incomplete-evidence"
        k = sum(1 for _, _, fin in end_lengths if fin)
        notes.append(f"{k} end(s) with finite total length "
                     "(Cauchy boundary points)")
    elif end_lengths and all(fin is False for _, _, fin in end_lengths) \
            and all(stabilized.values()):
        verdict = "complete-evidence"
    elif all(stabilized.values()) and not end_lengths:
        verdict = "complete-evidence"
    else:
        verdict = "inconclusive"
    return HopfRinowReport(fam.describe(), str(sigma), windows, radii,
                           sizes, stabilized, end_lengths, verdict, notes)


@dataclass
class BoundaryModel:
    """Which ends of the family are ideal boundary points (finite length)."""
    family: GraphFamily
    entries: list            # (End, length TailSum, is_boundary_point)

    def boundary_ends(self):
        return [e for e, _, b in self.entries if b]


def boundary_model(fam: GraphFamily) -> BoundaryModel:
    ends = fam.ends()
    if not ends:
        raise InputError(f"{fam.describe()}: no linear end structure")
    entries = []
    for end in ends:
        ts = end.sigma_tail(0)
        entries.append((end, ts, math.isfinite(ts.upper)))
    return BoundaryModel(fam, entries)


@dataclass
class BoundaryDistance:
    """r(k) = distance from the k-th vertex (outward) to the end."""
    end_label: str
    values: np.ndarray       # r(k) for k = 0..depth-1
    bounds: np.ndarray       # certified |error| per entry
    exact: bool

    def r(self, k: int) -> float:
        return float(self.values[k])


def boundary_distances(bm: BoundaryModel, end_label: str,
                       depth: int) -> BoundaryDistance:
    matches = [(e, ts, b) for e, ts, b in bm.entries if e.label == end_label]
    if not matches:
        raise InputError(f"no end labeled {end_label!r}")
    end, ts, is_bp = matches[0]
    if not is_bp:
        raise InputError(
            f"end {end_label!r} has infinite total length (no boundary point)")
    vals = np.empty(depth)
    bnds = np.empty(depth)
    exact = True
    for k in range(depth):
        t = end.sigma_tail(k)
        vals[k] = t.value
        bnds[k] = t.bound
        exact = exact and t.exact
    return BoundaryDistance(end_label, vals, bnds, exact)
