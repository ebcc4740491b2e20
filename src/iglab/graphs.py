"""Weighted graphs with vertex measures, and rule-based infinite families.

A weighted graph here is a finite symmetric edge-weight structure w >= 0
with zero diagonal together with a strictly positive vertex measure mu.
The weighted degree is Deg(x) = (1/mu(x)) * sum_y w(x,y).

Storage. A WeightedGraph keeps its edges once, as arrays built in one
vectorized pass:

    edge_u, edge_v, edge_w   the edges x < y with w > 0, sorted by (x, y);
                             edges() yields them in this order
    indptr, indices, w       symmetric CSR: the neighbors of x, increasing,
                             are indices[indptr[x]:indptr[x+1]], with
                             w(x, y) at the same positions; each edge has
                             the two entries (x, y) and (y, x)
    rows                     the row x of every entry
    edge_of                  the edge index of every entry, so per-edge
                             values reach the entries as values[edge_of]
    mu, row_sums             the measure and sum_y w(x, y) per vertex

Kernels on a graph compute one value per entry as an array expression and
sum each row as math.fsum would (row_fsum). fsum is correctly rounded, so
a row sum does not depend on the order of the entries.

A graph owns its arrays and they are read-only: mu is a copy of the
caller's, leak is a read-only mapping, and a write to any of them raises.
So one graph can be handed to every caller.

An infinite ray or line is a root vertex plus one or two End records.
An End holds the rules of one linear end (weight, measure and canonical
edge length as functions of the outward index) and one tail rule per
series, a closed form or a certified TailSum; a tail rule whose value is
inf marks an infinite series. The family realizes itself on finite
windows via truncate(). A truncation carries the id of the model origin
(origin) and the edge mass each frontier vertex lost to the cut (leak),
which downstream modules use for leak bounds.

Each family builds each window once, and each End evaluates each tail
rule once per index: both keep a memo that lives as long as the family
(or End) object does. The gallery and the CLI build one family per run,
so one classification realizes every window and every tail once, and
the ball scan, the capacity solves, the witness and the golden claims
share them.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import FamilyDefinitionError, InputError
from .series import TailSum


class WeightedGraph:
    """Finite symmetric weighted graph with a positive vertex measure.

    Vertices are 0..n-1. The edges are stored once as the symmetric CSR
    arrays described in the module docstring; an edge's two entries hold
    the same float, so weight(x, y) and weight(y, x) agree bit for bit.
    leak and origin are the truncation metadata of the module docstring.
    Every array is read-only and leak is a read-only mapping.
    """

    __slots__ = ("n", "mu", "indptr", "indices", "w", "rows", "edge_u",
                 "edge_v", "edge_w", "edge_of", "frontier", "leak", "origin",
                 "row_sums", "_short_rows")

    def __init__(self, n, edges, mu, leak=None, origin=0):
        if n <= 0:
            raise InputError("graph needs at least one vertex")
        self.n = int(n)
        self.mu = np.array(mu, dtype=float)      # a copy: never the caller's
        if self.mu.shape != (self.n,):
            raise InputError(f"mu must have length {self.n}")
        if not ((self.mu > 0.0) & (self.mu < math.inf)).all():
            raise InputError("measure must be finite and strictly positive")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        self._store(*_valid_edges(self.n, np.asarray(edges, dtype=float)))
        leak = {int(k): float(v) for k, v in (leak or {}).items()}
        for x, v in leak.items():
            if not 0 <= x < self.n or v < 0.0:
                raise InputError("invalid leak entry")
        self.leak = MappingProxyType(leak)
        self.frontier = frozenset(leak)
        self.origin = int(origin)
        if not 0 <= self.origin < self.n:
            raise InputError("origin out of range")
        self.row_sums = self.row_fsum(self.w)
        for a in (self.mu, self.indptr, self.indices, self.w, self.rows,
                  self.edge_u, self.edge_v, self.edge_w, self.edge_of,
                  self.row_sums):
            a.flags.writeable = False

    def _store(self, u, v, w) -> None:
        """Build the CSR arrays from edges u < v with w > 0, sorted."""
        n, m = self.n, u.size
        self.edge_u, self.edge_v, self.edge_w = u, v, w
        rows = np.concatenate((u, v))
        cols = np.concatenate((v, u))
        entry = np.argsort(rows * n + cols)
        self.rows, self.indices = rows[entry], cols[entry]
        # position k < m of (rows, cols) is edge k as (u, v), m + k as (v, u)
        self.edge_of = entry % max(m, 1)
        self.w = w[self.edge_of]
        self.indptr = np.searchsorted(self.rows, np.arange(n + 1))
        self._short_rows = int(np.diff(self.indptr).max()) <= 2

    # -- basic accessors -------------------------------------------------

    def _entry(self, x: int, y: int) -> int:
        """CSR position of the entry (x, y), or -1 when it is not an edge."""
        a, b = self.indptr[x], self.indptr[x + 1]
        k = a + int(np.searchsorted(self.indices[a:b], y))
        return k if k < b and self.indices[k] == y else -1

    def neighbors(self, x: int) -> dict:
        """{y: w(x, y)} over the neighbors of x, in increasing order."""
        a, b = self.indptr[x], self.indptr[x + 1]
        return dict(zip(self.indices[a:b].tolist(), self.w[a:b].tolist()))

    def weight(self, x: int, y: int) -> float:
        k = self._entry(x, y)
        return float(self.w[k]) if k >= 0 else 0.0

    def edge_index(self, x: int, y: int) -> int:
        """Position of the edge {x, y} in edges(); KeyError if absent."""
        k = self._entry(x, y) if 0 <= x < self.n and 0 <= y < self.n else -1
        if k < 0:
            raise KeyError((x, y))
        return int(self.edge_of[k])

    def row_fsum(self, values) -> np.ndarray:
        """math.fsum of per-entry values over each row. fsum is correctly
        rounded, so each row sum does not depend on the entry order.

        When every row has at most two entries (rays and lines), one
        bincount gives the same sums: it adds a row's entries to 0.0 in
        turn, and 0.0 + a + b is the correctly rounded a + b, with -0.0
        turned into 0.0 as fsum does. Rows whose sum is not finite are
        summed again by fsum, which keeps its OverflowError and ValueError.
        """
        if not self._short_rows:
            vals = np.asarray(values, dtype=float).tolist()
            ip = self.indptr.tolist()
            fsum = math.fsum
            return np.array([fsum(vals[a:b]) for a, b in zip(ip, ip[1:])])
        vals = np.asarray(values, dtype=float)
        out = np.bincount(self.rows, weights=vals, minlength=self.n) + 0.0
        ip = self.indptr
        for x in np.flatnonzero(~np.isfinite(out)).tolist():
            out[x] = math.fsum(vals[ip[x]:ip[x + 1]].tolist())
        return out

    def degrees(self) -> np.ndarray:
        """Deg(x) for every vertex, as one array (inf where it overflows)."""
        with np.errstate(over="ignore"):
            return self.row_sums / self.mu

    def edges(self):
        """Yield (x, y, w) once per edge with x < y, sorted."""
        return zip(self.edge_u.tolist(), self.edge_v.tolist(),
                   self.edge_w.tolist())

    def edge_count(self) -> int:
        return int(self.edge_u.size)

    def csr(self, values=None) -> sp.csr_matrix:
        """scipy CSR matrix on the edge pattern, holding per-entry values
        (default: the weights)."""
        return sp.csr_matrix((self.w if values is None else values,
                              self.indices, self.indptr), shape=(self.n, self.n))

    def is_connected(self) -> bool:
        return connected_components(self.csr(), directed=False,
                                    return_labels=False) == 1


def _valid_edges(n: int, e: np.ndarray):
    """The edges of an (m, 3) array of (x, y, w) rows, as arrays u < v
    (int) and w (float) sorted by (u, v), without the absent (w == 0)
    ones. An invalid row raises the InputError of _check_edges."""
    e = e.reshape(-1, 3)
    x, y, w = e[:, 0], e[:, 1], e[:, 2]
    suspect = ~((x >= 0) & (x < n) & (y >= 0) & (y < n)
                & (w >= 0.0) & (w < math.inf))
    if suspect.any():
        _check_edges(n, e)
    x, y = x.astype(np.int64), y.astype(np.int64)
    u, v = np.minimum(x, y), np.maximum(x, y)
    key = u * n + v
    order = np.argsort(key, kind="stable")
    if (u == v).any() or (key[order[1:]] == key[order[:-1]]).any():
        _check_edges(n, e)      # a self-loop, or a repeat (unless absent)
    order = order[w[order] != 0.0]
    return u[order], v[order], w[order]


def _check_edges(n: int, e: np.ndarray) -> None:
    """Store the rows one by one, in order, and raise InputError at the
    first that is out of range, a self-loop, a negative or non-finite
    weight, or a repeat of an edge already stored."""
    stored = set()
    for x, y, w in e.tolist():
        x, y, w = int(x), int(y), float(w)
        if not 0 <= x < n or not 0 <= y < n:
            raise InputError(f"edge ({x},{y}) out of range")
        if x == y:
            raise InputError(f"self-loop at {x} (diagonal must be zero)")
        if not math.isfinite(w) or w < 0.0:
            raise InputError(f"edge ({x},{y}) has invalid weight {w}")
        pair = (min(x, y), max(x, y))
        if pair in stored:
            raise InputError(f"duplicate edge ({x},{y})")
        if w != 0.0:
            stored.add(pair)


def vertex_set(g: WeightedGraph, ids) -> tuple:
    """Normalize an iterable of vertex ids: sorted, unique, validated."""
    out = sorted(set(int(v) for v in ids))
    if out and (out[0] < 0 or out[-1] >= g.n):
        raise InputError("vertex id out of range")
    return tuple(out)


def combinatorial_neighborhood(g: WeightedGraph, ids) -> tuple:
    """n(K) = K together with every vertex adjacent to K."""
    inside = np.zeros(g.n, dtype=bool)
    inside[list(vertex_set(g, ids))] = True
    inside[g.indices[inside[g.rows]]] = True
    return tuple(np.flatnonzero(inside).tolist())


# -- graph interchange format ---------------------------------------------
#
# Line-oriented text:
#     graph <n>
#     mu <x> <value>
#     edge <x> <y> <w>
# Floats are written with repr() (shortest round-trip form, up to 17
# significant digits), so dumps/loads is bit-stable. Truncation metadata
# (leaks, origin) is not part of the format.

def dumps(g: WeightedGraph) -> str:
    lines = [f"graph {g.n}"]
    lines += [f"mu {x} {m!r}" for x, m in enumerate(g.mu.tolist())]
    lines += [f"edge {x} {y} {w!r}" for x, y, w in g.edges()]
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
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read family config {path}: {exc}") from None
    name = None
    params = {}
    for ln, raw in enumerate(lines, start=1):
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
            params[key] = _cast(val)
    if name is None:
        raise InputError("config file missing 'family <name>' line")
    return name, params


def _cast(text: str):
    """A parameter value: int if it parses as one, else float, else str."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


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
    finite windows. Subclasses set name and params and define truncate(),
    canonical_lengths(), max_window() and, given linear ends, ends()."""

    name: str
    params: dict
    locally_finite = True
    codim_closed_form: float | None = None  # boundary codimension, if known

    def ends(self):
        """End descriptors (empty when the family has no linear ends)."""
        return ()

    def describe(self) -> str:
        ps = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}({ps})" if ps else self.name


@dataclass(eq=False)
class End:
    """One linear end of a family: its rules, indexed outward from the root.

    w_fn(k) is the weight of the k-th edge outward (vertex k to k+1),
    mu_fn(k) the measure of the k-th vertex and sigma_fn(k) the canonical
    length of the k-th edge, all vectorized over numpy arrays; vertex 0 is
    the root. One optional tail rule per series certifies sum_{j >= k}
    sigma(j) (sigma_tail_fn) and sum_{j >= k} mu(j) (mu_tail_fn) as a float
    (a closed form, exact) or a TailSum (e.g. series.geometric_tail); a
    rule with value inf declares an infinite series, such as an infinite
    measure, which has no measure tail. res_upper is a certified upper
    bound on the tail resistance sum_{k>=1} 1/w(k), or None. label names
    the end in reports ('plus', or 'minus' for the left end of a line).
    Ends compare by identity.

    sigma_tail, mu_tail and mu_is_infinite share one memo: each tail rule
    runs once per index k for the life of the End, and a rule that raises
    is not remembered. A copy made with dataclasses.replace starts empty.
    """

    w_fn: Callable
    mu_fn: Callable
    sigma_fn: Callable
    sigma_tail_fn: Callable | None = None
    mu_tail_fn: Callable | None = None
    res_upper: float | None = None
    label: str = "plus"
    _tails: dict = field(default_factory=dict, init=False, repr=False)

    def _tail(self, rule, k) -> TailSum:
        """rule(k) as a TailSum, from the (rule, k) memo."""
        key = (rule, k)
        tail = self._tails.get(key)
        if tail is None:
            tail = self._tails[key] = _tail_sum(rule(k))
        return tail

    def sigma_tail(self, k: int) -> TailSum:
        """sum_{j >= k} sigma(j): remaining length beyond vertex k."""
        if self.sigma_tail_fn is None:
            raise InputError(
                f"end {self.label}: no tail data for the edge lengths")
        return self._tail(self.sigma_tail_fn, k)

    def mu_tail(self, k: int) -> TailSum:
        """sum_{j >= k} mu(j); raises if the measure tail is infinite."""
        if self.mu_tail_fn is None:
            raise InputError(f"end {self.label}: no tail data for the measure")
        tail = self._tail(self.mu_tail_fn, k)
        if math.isinf(tail.value):
            raise InputError(f"end {self.label}: measure tail is infinite")
        return tail

    def mu_is_infinite(self) -> bool:
        """Whether the measure tail rule declares infinite measure."""
        return (self.mu_tail_fn is not None
                and math.isinf(self._tail(self.mu_tail_fn, 0).value))


def _tail_sum(t) -> TailSum:
    """A tail rule's value as a TailSum; a float is an exact closed form."""
    return t if isinstance(t, TailSum) else TailSum(float(t))


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
    max_window never passes window_cap: at the default 2^20, realizing
    the largest window and its canonical lengths stays under ~0.5 GB.
    The family builds each window once and keeps it for its own life;
    every later truncate(window) returns that same read-only graph.

    Subclasses fix the window convention: the window minus the depth
    (_depth_offset) and the root's id (root_id, the truncation's origin).
    They also define truncate() and canonical_lengths() in their own
    bodies, as one-line delegations, because per-class instrumentation
    (perfbench/tracing.py) looks these methods up in each class's namespace.
    """

    _depth_offset = 0

    def __init__(self, name, ends, params=None, window_cap=1 << 20):
        self.name = name
        self.params = dict(params or {})
        self._ends = tuple(ends)
        self._window_cap = window_cap
        self._windows = {}               # window -> its realization

    def ends(self):
        return self._ends

    def _depth(self, window: int) -> int:
        return int(window) - self._depth_offset

    def root_id(self, window: int) -> int:
        """Id of the root inside truncate(window)."""
        return 0

    def _sign(self, end: End) -> int:
        """+1 if the end runs toward increasing ids, -1 if toward decreasing."""
        if end is self._ends[-1]:
            return +1
        if end is self._ends[0]:
            return -1
        raise InputError(f"end {end.label!r} is not an end of {self.name}")

    def _realize(self, window: int) -> WeightedGraph:
        g = self._windows.get(int(window))
        if g is not None:
            return g
        depth = self._depth(window)
        if depth < 1:
            raise InputError(
                f"window must be at least {1 + self._depth_offset}")
        root = self.root_id(window)
        ks = np.arange(depth + 1.0)
        mu = np.empty(root + depth + 1)
        leak = {}
        edges = []                       # one (x, y, w) block per end
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
            ids = root + sign * ks
            edges.append(np.column_stack((ids[:-1], ids[1:], w)))
        g = self._windows[int(window)] = WeightedGraph(
            root + depth + 1, np.concatenate(edges), mu, leak=leak,
            origin=root)
        return g

    def _canonical_lengths(self, g: WeightedGraph):
        from .metrics import EdgeLengths
        # model coordinate of each edge's lower end
        k = (g.edge_u - g.origin).astype(float)

        plus = k >= 0
        lengths = np.empty(k.size)
        for end, sel, idx in ((self._ends[-1], plus, k),
                              (self._ends[0], ~plus, -k - 1)):
            if sel.any():
                lengths[sel] = end.sigma_fn(idx[sel])
        return EdgeLengths(g, lengths, kind="canonical")

    def max_window(self, cap: int) -> int:
        """Largest window <= cap whose realization and canonical lengths
        read only finite, positive rule values.

        Raises InputError when cap is below the smallest window (depth 1),
        and FamilyDefinitionError when the rules fail at depth 1.
        """
        smallest = 1 + self._depth_offset
        if int(cap) < smallest:
            raise InputError(f"{self.name}: window cap {int(cap)} is below "
                             f"the smallest window {smallest}")
        hi = self._depth(min(int(cap), self._window_cap))
        window = _probe_depth(self._ends, hi) + self._depth_offset
        if window < smallest:
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
    The remaining keywords are the End's other fields. Window N realizes
    depth N-1: vertices 0..N-1 with the root at id 0.
    """

    _depth_offset = 1

    def __init__(self, name, w_fn, mu_fn, params=None, sigma_fn=None,
                 window_cap=1 << 20, **tail):
        end = End(w_fn, mu_fn, sigma_fn or default_sigma0_rule(w_fn, mu_fn),
                  **tail)
        super().__init__(name, (end,), params, window_cap)

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
