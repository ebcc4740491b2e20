"""Weighted graphs with vertex measures, and rule-based infinite families.

A weighted graph here is a finite symmetric edge-weight structure w >= 0
with zero diagonal together with a strictly positive vertex measure mu.
The weighted degree is Deg(x) = (1/mu(x)) * sum_y w(x,y).

An infinite ray or line is a root vertex plus one or two End records.
An End holds the rules of one linear end (weight, measure and canonical
edge length as functions of the outward index) and its certified tail
data. The family realizes itself on finite windows via truncate().
Truncations carry the frontier (vertices that lost edge mass to the cut)
and the dropped mass per frontier vertex, which downstream modules use
for leak bounds.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import FamilyDefinitionError, InputError
from .series import TailSum, bounded_tail, geometric_tail


class WeightedGraph:
    """Finite symmetric weighted graph with a positive vertex measure.

    Vertices are 0..n-1. Edges are stored once per unordered pair in both
    adjacency mirrors, sharing the same float, so lookups of (x, y) and
    (y, x) are identical bit for bit.
    """

    __slots__ = ("n", "mu", "adj", "frontier", "leak", "labels", "_row_sums")

    def __init__(self, n, edges, mu, frontier=(), leak=None, labels=None):
        if n <= 0:
            raise InputError("graph needs at least one vertex")
        self.n = int(n)
        self.mu = np.asarray(mu, dtype=float)
        if self.mu.shape != (self.n,):
            raise InputError(f"mu must have length {self.n}")
        if not np.all(np.isfinite(self.mu)) or np.any(self.mu <= 0.0):
            raise InputError("measure must be finite and strictly positive")
        self.adj = [dict() for _ in range(self.n)]
        for x, y, w in edges:
            x, y, w = int(x), int(y), float(w)
            if not 0 <= x < self.n or not 0 <= y < self.n:
                raise InputError(f"edge ({x},{y}) out of range")
            if x == y:
                raise InputError(f"self-loop at {x} (diagonal must be zero)")
            if not math.isfinite(w) or w < 0.0:
                raise InputError(f"edge ({x},{y}) has invalid weight {w}")
            if y in self.adj[x]:
                raise InputError(f"duplicate edge ({x},{y})")
            if w == 0.0:
                continue  # absent edge
            self.adj[x][y] = w
            self.adj[y][x] = w
        self.leak = {int(k): float(v) for k, v in (leak or {}).items()}
        for x, v in self.leak.items():
            if not 0 <= x < self.n or v < 0.0:
                raise InputError("invalid leak entry")
        self.frontier = frozenset(int(v) for v in frontier) | frozenset(self.leak)
        if any(not 0 <= v < self.n for v in self.frontier):
            raise InputError("frontier vertex out of range")
        self.labels = labels
        self._row_sums = np.array(
            [math.fsum(self.adj[x].values()) for x in range(self.n)])

    # -- basic accessors -------------------------------------------------

    def neighbors(self, x: int):
        return self.adj[x]

    def weight(self, x: int, y: int) -> float:
        return self.adj[x].get(y, 0.0)

    def row_sum(self, x: int) -> float:
        """Cached sum_y w(x,y)."""
        return float(self._row_sums[x])

    def recomputed_row_sum(self, x: int) -> float:
        return math.fsum(self.adj[x].values())

    def degree(self, x: int) -> float:
        """Weighted degree Deg(x) = row_sum(x) / mu(x)."""
        return float(self._row_sums[x]) / float(self.mu[x])

    def combinatorial_degree(self, x: int) -> int:
        return len(self.adj[x])

    def edges(self):
        """Yield (x, y, w) once per edge with x < y, sorted."""
        for x in range(self.n):
            for y in sorted(self.adj[x]):
                if x < y:
                    yield x, y, self.adj[x][y]

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def total_measure(self) -> float:
        return math.fsum(self.mu)

    def is_connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in self.adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == self.n


def weighted_degree(g: WeightedGraph, x: int) -> float:
    """Deg(x) = (1/mu(x)) sum_y w(x,y)."""
    return g.degree(x)


def vertex_set(g: WeightedGraph, ids) -> tuple:
    """Normalize an iterable of vertex ids: sorted, unique, validated."""
    out = sorted(set(int(v) for v in ids))
    if out and (out[0] < 0 or out[-1] >= g.n):
        raise InputError("vertex id out of range")
    return tuple(out)


def combinatorial_neighborhood(g: WeightedGraph, ids) -> tuple:
    """n(K) = K together with every vertex adjacent to K."""
    k = vertex_set(g, ids)
    out = set(k)
    for x in k:
        out.update(g.adj[x])
    return tuple(sorted(out))


# -- graph interchange format ---------------------------------------------
#
# Line-oriented text:
#     graph <n>
#     mu <x> <value>
#     edge <x> <y> <w>
# Floats are written with repr() (shortest round-trip form, up to 17
# significant digits), so dumps/loads is bit-stable. Truncation metadata
# (frontier, leaks, labels) is not part of the format.

def dumps(g: WeightedGraph) -> str:
    lines = [f"graph {g.n}"]
    for x in range(g.n):
        lines.append(f"mu {x} {float(g.mu[x])!r}")
    for x, y, w in g.edges():
        lines.append(f"edge {x} {y} {w!r}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> WeightedGraph:
    n = None
    mu = {}
    edges = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "graph" and len(parts) == 2:
                n = int(parts[1])
            elif parts[0] == "mu" and len(parts) == 3:
                mu[int(parts[1])] = float(parts[2])
            elif parts[0] == "edge" and len(parts) == 4:
                edges.append((int(parts[1]), int(parts[2]), float(parts[3])))
            else:
                raise ValueError
        except ValueError:
            raise InputError(f"bad interchange line {ln}: {raw!r}") from None
    if n is None:
        raise InputError("missing 'graph <n>' header")
    if set(mu) != set(range(n)):
        raise InputError("mu lines must cover exactly the vertices 0..n-1")
    return WeightedGraph(n, edges, [mu[x] for x in range(n)])


def dump_path(g: WeightedGraph, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(g))


def load_path(path) -> WeightedGraph:
    with open(path) as fh:
        return loads(fh.read())


# -- family configuration files -------------------------------------------
#
# Key-value lines, one per line, '#' comments allowed:
#     family ex5.6
#     alpha 1.0
#     case 2
# 'family' is required; remaining keys are parsed as int, then float,
# then kept as strings, and passed to the registry constructor.

def load_family_config(path):
    name = None
    params = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise InputError(f"bad config line {ln}: {raw.rstrip()!r}")
            key, val = parts[0], parts[1].strip()
            if key == "family":
                name = val
            else:
                for cast in (int, float):
                    try:
                        val = cast(val)
                        break
                    except ValueError:
                        continue
                params[key] = val
    if name is None:
        raise InputError("config file missing 'family <name>' line")
    return name, params


# -- rule families ---------------------------------------------------------

def _valid(values):
    v = np.asarray(values, dtype=float)
    return np.isfinite(v) & (v > 0.0)


def _validate_window(name, w, mu):
    ok_w, ok_mu = _valid(w), _valid(mu)
    if not ok_w.all():
        bad = int(np.argmin(ok_w))
        raise FamilyDefinitionError(
            f"{name}: weight rule invalid at edge index {bad} (value {w[bad]})")
    if not ok_mu.all():
        raise FamilyDefinitionError(
            f"{name}: measure rule invalid at vertex {int(np.argmin(ok_mu))}")


class GraphFamily:
    """Base class: a countable weighted graph given by rules, realized on
    finite windows. Subclasses define truncate() and end structure."""

    name = "family"
    params: dict = {}
    locally_finite = True

    def truncate(self, window: int) -> WeightedGraph:
        raise NotImplementedError

    def ends(self):
        """End descriptors (empty when the family has no linear ends)."""
        return ()

    def canonical_lengths(self, g: WeightedGraph):
        """Edge lengths of the family's canonical path metric on g."""
        raise NotImplementedError

    def max_window(self, cap: int) -> int:
        """Largest usable window <= cap (float-range probing)."""
        return cap

    def root_id(self, window: int) -> int:
        """Id of the model origin inside truncate(window)."""
        return 0

    def model_to_id(self, x: int, window: int) -> int:
        """Id of the vertex with model coordinate x inside truncate(window)."""
        return int(x) + self.root_id(window)

    def describe(self) -> str:
        ps = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}({ps})" if ps else self.name


@dataclass(eq=False)
class End:
    """One linear end of a family: its rules, indexed outward from the root.

    w_fn(k) is the weight of the k-th edge outward (vertex k to k+1),
    mu_fn(k) the measure of the k-th vertex and sigma_fn(k) the canonical
    length of the k-th edge, all vectorized over numpy arrays; vertex 0 is
    the root. The optional tail data certify sum_{j >= k} sigma(j) and
    sum_{j >= k} mu(j), each by a closed form, a geometric ratio or a
    remainder bound. mu_total is the declared total measure (inf for an
    infinite end) and res_upper a certified upper bound on the tail
    resistance sum_{k>=1} 1/w(k), or None when unknown or infinite.
    label names the end in reports ('plus', or 'minus' for the left end
    of a line). Ends compare by identity.
    """

    w_fn: Callable
    mu_fn: Callable
    sigma_fn: Callable
    sigma_tail_fn: Callable | None = None
    sigma_ratio: float | None = None
    sigma_rem_fn: Callable | None = None
    mu_tail_fn: Callable | None = None
    mu_ratio: float | None = None
    mu_rem_fn: Callable | None = None
    mu_total: float | None = None
    res_upper: float | None = None
    label: str = "plus"

    def sigma_tail(self, k: int) -> TailSum:
        """sum_{j >= k} sigma(j): remaining length beyond vertex k."""
        if self.sigma_tail_fn is not None:
            return TailSum(float(self.sigma_tail_fn(k)))
        if self.sigma_ratio is not None:
            return geometric_tail(self.sigma_fn, k, self.sigma_ratio)
        if self.sigma_rem_fn is not None:
            return bounded_tail(self.sigma_fn, k, self.sigma_rem_fn)
        raise InputError(
            f"end {self.label}: no tail data for the edge lengths")

    def mu_tail(self, k: int) -> TailSum:
        """sum_{j >= k} mu(j); raises if the measure tail is infinite."""
        if self.mu_is_infinite():
            raise InputError(f"end {self.label}: measure tail is infinite")
        if self.mu_tail_fn is not None:
            return TailSum(float(self.mu_tail_fn(k)))
        if self.mu_ratio is not None:
            return geometric_tail(self.mu_fn, k, self.mu_ratio)
        if self.mu_rem_fn is not None:
            return bounded_tail(self.mu_fn, k, self.mu_rem_fn)
        raise InputError(f"end {self.label}: no tail data for the measure")

    def mu_is_infinite(self) -> bool:
        return self.mu_total is not None and math.isinf(self.mu_total)

    def total_measure(self):
        """The declared total measure, else the certified tail sum from 0."""
        if self.mu_total is not None:
            return self.mu_total
        return self.mu_tail(0).value

    def has_boundary_point(self) -> bool:
        """Finite remaining length <=> the end is a metric boundary point."""
        try:
            return math.isfinite(self.sigma_tail(0).upper)
        except InputError:
            return False


def _probe_depth(ends, hi: int) -> int:
    """Largest depth d <= hi at which every end's w and mu are finite and
    positive on 0..d, and its sigma on 0..d-1 (the realized edges)."""
    lo, chunk = 0, 1 << 12
    while lo <= hi:               # scan in growing chunks, not one arange(cap)
        xs = np.arange(lo, min(lo + chunk, hi + 1), dtype=float)
        cuts = []
        with np.errstate(all="ignore"):
            for end in ends:
                ok = _valid(end.w_fn(xs)) & _valid(end.mu_fn(xs))
                ok_sigma = _valid(end.sigma_fn(xs))
                if not ok.all():
                    cuts.append(lo + int(np.argmin(ok)) - 1)
                if not ok_sigma.all():
                    cuts.append(lo + int(np.argmin(ok_sigma)))
        if cuts:
            return min(cuts)
        lo += chunk
        chunk = min(chunk * 4, 1 << 22)
    return hi


def default_sigma0_rule(w_fn, mu_fn):
    """Closed-form sigma_0 edge lengths of the infinite nearest-neighbor ray.

    sigma_0(x, x+1) = min(Deg(x)^-1/2, Deg(x+1)^-1/2, 1) with the full-ray
    degree Deg(x) = (w(x-1,x) + w(x,x+1)) / mu(x) (no left edge at 0).
    """
    def deg(x):
        x = np.asarray(x, dtype=float)
        left = np.where(x > 0, w_fn(np.maximum(x - 1.0, 0.0)), 0.0)
        return (left + w_fn(x)) / mu_fn(x)

    def sigma(x):
        x = np.asarray(x, dtype=float)
        return np.minimum(np.minimum(deg(x) ** -0.5, deg(x + 1.0) ** -0.5), 1.0)

    return sigma


class LinearFamily(GraphFamily):
    """A root vertex with one or two linear ends: a ray or a line.

    The last end in ends() runs from the root toward increasing ids. A
    second end, listed first, runs toward decreasing ids, so model
    coordinate x >= 0 is vertex x of the last end and x < 0 is vertex -x
    of the first; the root takes its measure from the last end. A
    realization of depth d holds vertices 0..d of every end, and each
    end's outermost vertex leaks the weight of edge d, the first one cut.

    Subclasses fix the window convention: the window minus the depth
    (_depth_offset) and the root's id (root_id). They also define
    truncate() and canonical_lengths() in their own bodies, as one-line
    delegations, because per-class instrumentation (perfbench/tracing.py)
    looks these methods up in each class's namespace.
    """

    _depth_offset = 0

    def __init__(self, name, ends, params=None, sigma_kind="sigma0",
                 window_cap=1 << 24):
        self.name = name
        self.params = dict(params or {})
        self.sigma_kind = sigma_kind
        self._ends = tuple(ends)
        self._window_cap = window_cap

    def ends(self):
        return self._ends

    def _depth(self, window: int) -> int:
        return int(window) - self._depth_offset

    def _sign(self, end: End) -> int:
        """+1 if the end runs toward increasing ids, -1 if toward decreasing."""
        if end is self._ends[-1]:
            return +1
        if end is self._ends[0]:
            return -1
        raise InputError(f"end {end.label!r} is not an end of {self.name}")

    def _realize(self, window: int) -> WeightedGraph:
        depth = self._depth(window)
        if depth < 1:
            raise InputError(
                f"window must be at least {1 + self._depth_offset}")
        root = self.root_id(window)
        ks = np.arange(depth + 1.0)
        mu = np.empty(root + depth + 1)
        leak = {}
        sides = []                       # (direction in ids, edge weights)
        for end in self._ends:
            sign = self._sign(end)
            w = np.asarray(end.w_fn(ks[:-1]), dtype=float)
            m = np.asarray(end.mu_fn(ks if sign > 0 else ks[1:]), dtype=float)
            _validate_window(self.name, w, m)
            if sign > 0:
                mu[root:] = m
            else:
                mu[:root] = m[::-1]
            leak[root + sign * depth] = float(end.w_fn(np.float64(depth)))
            sides.insert(0, (sign, w))
        edges = [(root + sign * k, root + sign * (k + 1), w[k])
                 for k in range(depth) for sign, w in sides]
        return WeightedGraph(root + depth + 1, edges, mu, leak=leak,
                             labels={i: i - root for i in range(mu.size)})

    def _canonical_lengths(self, g: WeightedGraph):
        from .metrics import EdgeLengths
        first, last = self._ends[0], self._ends[-1]
        lengths = {}
        for x, y, _ in g.edges():
            k = g.labels[x]              # model coordinate of the lower end
            s = last.sigma_fn(np.float64(k)) if k >= 0 else \
                first.sigma_fn(np.float64(-k - 1))
            lengths[(x, y)] = float(s)
        return EdgeLengths(g, lengths, kind=self.sigma_kind)

    def max_window(self, cap: int) -> int:
        """Largest window <= cap whose realization and canonical lengths
        read only finite, positive rule values."""
        hi = self._depth(min(int(cap), self._window_cap))
        window = _probe_depth(self._ends, hi) + self._depth_offset
        if window < 2:
            raise FamilyDefinitionError(
                f"{self.name}: rules invalid near the origin")
        return window

    def tail_ids(self, end: End, start: int, window: int):
        """Ids of the end's vertices k >= start inside truncate(window)."""
        depth, root = self._depth(window), self.root_id(window)
        if self._sign(end) > 0:
            return tuple(range(root + int(start), root + depth + 1))
        return tuple(range(root - depth, root - int(start) + 1))


class RayFamily(LinearFamily):
    """One-sided ray on 0, 1, 2, ... with nearest-neighbor weights.

    w_fn(x) is the weight of edge (x, x+1), mu_fn(x) the measure, both
    vectorized over numpy arrays. sigma_fn(x) is the canonical edge length
    of (x, x+1); by default the closed-form sigma_0 of the infinite ray.
    The remaining keywords are the End's tail data. Window N realizes
    depth N-1: vertices 0..N-1 with the root at id 0.
    """

    _depth_offset = 1

    def __init__(self, name, w_fn, mu_fn, params=None, sigma_fn=None,
                 sigma_kind="sigma0", window_cap=1 << 24, **tail):
        end = End(w_fn, mu_fn, sigma_fn or default_sigma0_rule(w_fn, mu_fn),
                  **tail)
        super().__init__(name, (end,), params, sigma_kind, window_cap)

    def truncate(self, window: int) -> WeightedGraph:
        return self._realize(window)

    def canonical_lengths(self, g: WeightedGraph):
        return self._canonical_lengths(g)


class LineFamily(LinearFamily):
    """Two-sided line ..., -1, 0, 1, ... glued at the root from two ends.

    Both ends are given in outward coordinates: plus.w_fn(k) = w(k, k+1)
    and minus.w_fn(k) = w(-k-1, -k) for k >= 0, minus.mu_fn(k) = mu(-k)
    for k >= 1; mu(0) comes from plus.mu_fn. The family holds copies
    labeled 'minus' and 'plus'. Window N realizes depth N: the window
    [-N, N] with id(x) = x + N.
    """

    def __init__(self, name, minus: End, plus: End, params=None):
        super().__init__(name, (replace(minus, label="minus"),
                                replace(plus, label="plus")), params)

    def root_id(self, window: int) -> int:
        return int(window)

    def truncate(self, window: int) -> WeightedGraph:
        return self._realize(window)

    def canonical_lengths(self, g: WeightedGraph):
        return self._canonical_lengths(g)
