"""Geodesics, metric-completeness evidence, and boundary distances.

For locally finite graphs the Hopf-Rinow dichotomy ties together metric
completeness, geodesic completeness, finiteness of distance balls, and
compactness of bounded closed sets. On a ray or line the ends alone
decide completeness (completeness_verdict): an end of finite total
length is a Cauchy boundary point, and when every end is certified
infinitely long every ball is finite. Completeness decides Markov
uniqueness and essential self-adjointness only for an intrinsic metric,
so a ray or line is called complete only where its canonical lengths are
strongly intrinsic, sum_y w(x,y) sigma(x,y)^2 <= mu(x), at the root and
every interior vertex of the largest usable window (_not_intrinsic).
hopf_rinow_report adds ball sizes as evidence that no verdict reads.

The ball scan takes its distances from one of two sources. A ray or
line with canonical sigma needs no graph: on a chain the only path from
the root to an end's k-th vertex runs along the end, so Dijkstra's
distance there is the (k-1)-th distance plus one length, added outward,
which is np.cumsum of the lengths bit for bit. The lengths, weights and
measures come from the family's chain (LinearFamily.chain), the arrays
the window's realization reads, so degrees are bit-equal too. Stars,
and every other sigma choice, realize each window and run Dijkstra on it.

Geodesics are searched with the metric's own Dijkstra kernel
(scipy.sparse.csgraph): hop counts give the combinatorial ball, and its
induced submatrix gives the distances restricted to that ball.

Boundary distances: boundary_end picks the one end of finite total
length. For that end with edge lengths sigma, the distance from vertex x
to the ideal boundary point is r(x) = sum_{y >= x} sigma(y), its
certified tail sum end.sigma_tail(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .errors import InputError
from .graphs import End, GraphFamily, LinearFamily, WeightedGraph, vertex_id
from .metrics import (REL_TOL, EdgeLengths, PathMetric, _loads, close,
                      natural_scaled, sigma0, sigma1)
from .series import prefix_fsums

INAPPLICABLE = "inapplicable (not locally finite)"   # no dichotomy applies


def lengths_for(g: WeightedGraph, choice, family: GraphFamily | None = None
                ) -> EdgeLengths:
    """Resolve a sigma choice: 'sigma0', 'sigma1', 'natural:K', 'canonical'."""
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
    origin = vertex_id(g, origin)
    hops = dijkstra(metric._csr, unweighted=True, indices=origin)
    sphere = np.flatnonzero(hops == n)
    if not sphere.size:
        raise InputError(f"combinatorial sphere at {n} is empty in this window")
    inside = hops <= n
    ball = np.flatnonzero(inside)
    # rows: distances inside the ball from the origin, then from each
    # sphere vertex; columns: every vertex (inf outside the ball)
    dist = np.full((1 + sphere.size, g.n), math.inf)
    dist[:, ball] = dijkstra(metric._csr[ball][:, ball],
                             indices=np.searchsorted(ball, [origin, *sphere]))
    dist_o = dist[0]
    best_len = dist_o[sphere].min()
    if math.isinf(best_len):
        raise InputError("sphere unreachable inside the ball")
    best_path = min(_lex_min_path(metric, origin, z, inside, dist_o, dist_z)
                    for z, dist_z in zip(sphere, dist[1:])
                    if close(dist_o[z], best_len))
    prefixes, verified = _prefix_lengths(metric, best_path)
    return Geodesic(tuple(best_path), prefixes[-1] if prefixes else 0.0,
                    verified)


def _prefix_lengths(metric, path):
    """The length of each prefix path[:k + 1], k >= 1, from one prefix_fsums
    pass, and whether each is the path distance from path[0] to path[k]
    (metrics.close: relative only, since lengths can lie far below any
    absolute floor)."""
    prefixes = prefix_fsums([metric.lengths.of(a, b)
                             for a, b in zip(path, path[1:])])
    dist = metric.distances_from(path[0])
    return prefixes, all(close(p, dist[v]) for p, v in zip(prefixes, path[1:]))


def _lex_min_path(metric, origin, z, inside, dist_o, dist_z):
    """Lexicographically smallest shortest origin-z path inside the ball.

    A vertex v lies on some shortest path iff d(o,v) + d(v,z) = d(o,z);
    greedily extending by the smallest feasible neighbor stays shortest.
    Both tests are relative only (metrics.close): with an absolute floor
    above the distances, a step back would pass as shortest.
    """
    g = metric.graph
    total = dist_o[z]
    path = [origin]
    cur = origin
    while cur != z:
        choices = []
        row = slice(g.indptr[cur], g.indptr[cur + 1])
        for y, step in zip(g.indices[row].tolist(),
                           metric.entry_lengths[row].tolist()):
            if not inside[y]:
                continue
            if close(dist_o[cur] + step, dist_o[y]) and \
               close(dist_o[y] + dist_z[y], total):
                choices.append(y)
        cur = min(choices)
        path.append(cur)
    return path


@dataclass
class HopfRinowReport:
    family: str
    sigma: str
    windows: list
    radii: list
    ball_sizes: dict        # radius -> list of |B_r(x0)| per window
    stabilized: dict        # radius -> bool (constant over last 4 windows)
    end_lengths: list       # (label, TailSum or None, finite: bool | None)
    verdict: str
    notes: list = field(default_factory=list)

    def to_dict(self):
        return {"family": self.family, "sigma": self.sigma,
                "windows": self.windows, "radii": self.radii,
                "ball_sizes": {f"{r:.6g}": s for r, s in self.ball_sizes.items()},
                "stabilized": {f"{r:.6g}": v for r, v in self.stabilized.items()},
                "end_lengths": [
                    {"end": lab, "length": (ts.value if ts else None),
                     "bound": (ts.bound if ts else None), "finite": fin}
                    for lab, ts, fin in self.end_lengths],
                "verdict": self.verdict, "notes": self.notes}


@dataclass
class BallScan:
    windows: list
    radii: list             # eighths ecc*j/8 (j = 1..8) of the first window
    sizes: dict             # radius -> |B_r(x0)| per window
    max_deg: dict           # even radius -> max Deg over n(B_r(x0)) per window


def _ball_scan(fam: GraphFamily, sigma, n_max: int) -> BallScan:
    """Balls around the origin over doubling windows 8, 16, ... up to the
    family's usable cap at n_max.

    The radii are the eighths j/8 (j = 1..8) of the origin's eccentricity
    in the first window, and stay fixed across windows. Per window the
    scan counts every ball and, at the even radii radii[1::2], takes the
    largest weighted degree over the ball's combinatorial neighborhood.
    Rays and lines with canonical sigma take the balls from prefix sums
    of the rules (_chain_balls), the rest from Dijkstra on each realized
    window (_graph_balls); the module docstring says why both agree.
    """
    cap = fam.max_window(n_max)
    windows = [1 << p for p in range(3, (cap - 1).bit_length())] + [cap]
    chain = isinstance(fam, LinearFamily) and sigma == "canonical"
    scan = None
    for win in windows:
        ecc, balls = (_chain_balls(fam, win) if chain
                      else _graph_balls(fam, sigma, win))
        if scan is None:
            scan = BallScan([], [ecc * j / 8 for j in range(1, 9)], {}, {})
        scan.windows.append(win)
        sizes, max_deg = balls(scan.radii)
        for r, size in zip(scan.radii, sizes):
            scan.sizes.setdefault(r, []).append(size)
        for r, deg in zip(scan.radii[1::2], max_deg):
            scan.max_deg.setdefault(r, []).append(deg)
    return scan


def _graph_balls(fam: GraphFamily, sigma, win: int):
    """The origin's eccentricity in the realized window, and its balls
    radii -> (|B_r(x0)| per radius, max Deg over n(B_r(x0)) per radius
    of radii[1::2]), from Dijkstra distances."""
    g = fam.truncate(win)
    metric = PathMetric(lengths_for(g, sigma, fam))
    d, deg = metric.distances_from(g.origin), g.degrees()

    def balls(radii):
        sizes, max_deg = [], []
        for j, r in enumerate(radii):
            inside = d <= r
            sizes.append(int(np.count_nonzero(inside)))
            if j % 2:
                inside[g.indices[inside[g.rows]]] = True    # n(B_r(x0))
                max_deg.append(float(deg[inside].max()))
        return sizes, max_deg

    return metric.eccentricity(g.origin), balls


def _chain_balls(fam: LinearFamily, win: int):
    """_graph_balls for canonical sigma on a ray or line, with no graph:
    distances are running sums of each end's lengths, a ball is an index
    range per end and its neighborhood that range widened by one, and Deg
    is (w_left + w_right) / mu, with no right edge at the outermost vertex,
    as the realization's row sums have it."""
    depth = fam._depth(win)
    chains = fam.chain(depth)
    dists, degs = [], []
    with np.errstate(over="ignore"):
        # the root's measure is the last end's
        root = sum(c.w[0] for c in chains) / chains[-1].mu[0]
        for c in chains:
            w = c.w[:depth]
            rows = np.concatenate((w[:-1] + w[1:], w[-1:]))   # vertices 1..
            degs.append(np.maximum.accumulate(
                np.concatenate(([root], rows / c.mu[1:]))))
            dists.append(np.cumsum(c.sigma))
    ecc = max(float(d[np.isfinite(d)].max(initial=0.0)) for d in dists)

    def balls(radii):
        # vertices within r on each end, the root not counted
        counts = [np.searchsorted(d, radii, side="right") for d in dists]
        near = [deg[np.minimum(k[1::2] + 1, depth)]
                for deg, k in zip(degs, counts)]
        return (1 + sum(counts)).tolist(), np.max(near, axis=0).tolist()

    return ecc, balls


def hopf_rinow_report(fam: GraphFamily, sigma="canonical",
                      n_max: int = 256) -> HopfRinowReport:
    """completeness_verdict with its evidence: the end lengths, and ball
    sizes |B_r(x0)| over doubling windows with whether each radius
    stabilized, which no verdict reads. For families that are not locally
    finite the dichotomy does not apply and the verdict says so."""
    scan = _ball_scan(fam, sigma, n_max)
    stabilized = {r: len(s) >= 4 and len(set(s[-4:])) == 1
                  for r, s in scan.sizes.items()}
    verdict, end_lengths, notes = completeness_verdict(fam, sigma, n_max)
    if not fam.locally_finite:
        notes.append("completeness dichotomy needs local finiteness; "
                     "ball sizes reported for the truncation sequence only")
    return HopfRinowReport(fam.describe(), str(sigma), scan.windows,
                           scan.radii, scan.sizes, stabilized, end_lengths,
                           verdict, notes)


def completeness_verdict(fam: GraphFamily, sigma, n_max: int):
    """(verdict, end_lengths, notes) from each end's certified length
    sigma_tail(0), which only canonical sigma has, and the intrinsic check
    at max_window(n_max). When every end is infinitely long every ball is
    already finite, so no ball scan is read. A family that is not locally
    finite is INAPPLICABLE, and no end is read."""
    if not fam.locally_finite:
        return INAPPLICABLE, [], []
    canonical = sigma == "canonical"    # what the sigma tail rules sum
    end_lengths = []
    for end in fam.ends():
        ts = None
        if canonical and end.sigma_tail_fn is not None:
            ts = end.sigma_tail(0)
        end_lengths.append((end.label, ts, ts and math.isfinite(ts.upper)))
    n_finite = sum(1 for _, _, fin in end_lengths if fin)

    notes = []
    if end_lengths and not canonical:
        notes.append("end lengths are certified only for canonical sigma, "
                     f"not {sigma}")
    if n_finite:
        verdict = "incomplete-evidence"
        notes.append(f"{n_finite} end(s) with finite total length "
                     "(Cauchy boundary points)")
    elif not (end_lengths and all(fin is False for _, _, fin in end_lengths)):
        verdict = "inconclusive"
    elif vertex := _not_intrinsic(fam, fam.max_window(n_max)):
        verdict = "inconclusive"
        notes.append(f"canonical lengths not strongly intrinsic at {vertex}: "
                     "the completeness theorems need an intrinsic metric")
    else:
        verdict = "complete-evidence"
    return verdict, end_lengths, notes


def _not_intrinsic(fam: LinearFamily, window: int) -> str | None:
    """The first vertex of truncate(window), the root or an interior one,
    where the canonical lengths are not strongly intrinsic, (w(x-1)
    sigma(x-1)^2 + w(x) sigma(x)^2) / mu(x) <= 1 + REL_TOL, read from
    the chain; None when there is none."""
    depth = fam._depth(window)
    chains = fam.chain(depth)
    bound = 1.0 + REL_TOL
    with np.errstate(all="ignore"):
        loads = [_loads(c.w[:depth], c.sigma) for c in chains]   # per edge
        if not sum(t[0] for t in loads) / chains[-1].mu[0] <= bound:
            return "the root"
        for end, c, t in zip(fam.ends(), chains, loads):
            bad = np.flatnonzero(~((t[:-1] + t[1:]) / c.mu[1:depth] <= bound))
            if bad.size:
                return f"vertex {int(bad[0]) + 1} of end {end.label}"
    return None


def boundary_end(fam: GraphFamily, purpose: str) -> End:
    """The family's one end of finite total length: its metric boundary
    point. The distance from the end's k-th vertex to that point is
    end.sigma_tail(k).

    Raises InputError, naming `purpose`, when the family has no end or
    more than one of finite length, and passes on the InputError of an
    end that has no tail data for its lengths.
    """
    ends = fam.ends()
    if not ends:
        raise InputError(f"{fam.describe()}: no linear end structure")
    finite = [end for end in ends if math.isfinite(end.sigma_tail(0).upper)]
    if len(finite) != 1:
        raise InputError(f"{purpose} needs exactly one boundary end")
    return finite[0]
