"""Weighted graphs with vertex measures, and rule-based infinite families.

A weighted graph here is a finite symmetric edge-weight structure w >= 0
with zero diagonal together with a strictly positive vertex measure mu.
The weighted degree is Deg(x) = (1/mu(x)) * sum_y w(x,y). Vertex ids are
integers in 0..n-1; vertex_mask and vertex_id raise InputError on others.

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

A family builds a window on each truncate call and keeps none. Each End
evaluates each tail rule once per index, and a ray or line keeps one
memo of its rules w, mu and sigma per end (LinearFamily.chain); both
live as long as the End or family does. The ball scan, the capacity
ladder, the lambda recursion, the witness and the cutoff test of a ray
or line slice the chain, the arrays a realization reads, and build no
graph. Three readers call the rules on index arrays of their own, so
they may evaluate an index the chain also holds: the ramp grid's w sum
(potential._w_sum, where the End declares no w_sum_fn) and its mass
(the mu rule in potential._ramp_upper), and the summed tail rules
(series.geometric_tail and bounded_tail). The gallery and the CLI build
one family per run, so the witness and the golden claims share its memos.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import FamilyDefinitionError, InputError, NumericalError
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
        try:
            self.row_sums = self.row_fsum(self.w)
        except OverflowError:         # a row's weights sum past float range
            ip, w = self.indptr.tolist(), self.w.tolist()
            for x in range(self.n):
                try:
                    math.fsum(w[ip[x]:ip[x + 1]])
                except OverflowError:
                    raise NumericalError(f"the weights at vertex {x} sum past "
                                         "the float range") from None
            raise
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
        """CSR position of the entry (x, y), or -1 when it is not an edge.
        x and y are checked by vertex_id."""
        x, y = vertex_id(self, x), vertex_id(self, y)
        a, b = self.indptr[x], self.indptr[x + 1]
        k = a + int(np.searchsorted(self.indices[a:b], y))
        return k if k < b and self.indices[k] == y else -1

    def neighbors(self, x: int) -> dict:
        """{y: w(x, y)} over the neighbors of x, in increasing order."""
        x = vertex_id(self, x)
        a, b = self.indptr[x], self.indptr[x + 1]
        return dict(zip(self.indices[a:b].tolist(), self.w[a:b].tolist()))

    def weight(self, x: int, y: int) -> float:
        """w(x, y), 0.0 when x and y are vertices but not an edge."""
        k = self._entry(x, y)
        return float(self.w[k]) if k >= 0 else 0.0

    def edge_index(self, x: int, y: int) -> int:
        """Position of the edge {x, y} in edges(); KeyError if absent."""
        k = self._entry(x, y)
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


def vertex_mask(g: WeightedGraph, ids) -> np.ndarray:
    """The vertex ids `ids`, any iterable, as a boolean mask over 0..n-1."""
    try:
        a = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids))
    except (TypeError, ValueError):       # not an iterable of scalars
        a = np.asarray(None)
    if a.size and (a.ndim != 1 or a.dtype.kind not in "iu"
                   or a.min() < 0 or a.max() >= g.n):
        raise InputError(f"vertex ids must be integers in 0..{g.n - 1}")
    mask = np.zeros(g.n, dtype=bool)
    mask[a.astype(int)] = True
    return mask


def vertex_id(g: WeightedGraph, x) -> int:
    """One vertex id, checked as vertex_mask checks each of its ids."""
    if (isinstance(x, bool) or not isinstance(x, (int, np.integer))
            or not 0 <= x < g.n):
        raise InputError(f"vertex id {x!r} is not an integer in 0..{g.n - 1}")
    return int(x)


def combinatorial_neighborhood(g: WeightedGraph, ids) -> tuple:
    """n(K) = K together with every vertex adjacent to K."""
    inside = vertex_mask(g, ids)
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
    finite windows. A subclass defines _build(window), truncate(),
    canonical_lengths() and, given linear ends, ends(). truncate() goes
    through _window(), the one way from a window to a graph: a window
    outside [smallest_window, window_cap] raises InputError before any
    rule runs, and any other is built on each call: no window is kept.
    window_cap is a memory guard; a ray's or line's max_window lowers it
    to the rules' float range.
    """

    locally_finite = True
    codim_closed_form: float | None = None  # boundary codimension, if known
    smallest_window = 2

    def __init__(self, name, params, window_cap):
        self.name = name
        self.params = dict(params or {})
        self.window_cap = window_cap

    def _window(self, window: int) -> WeightedGraph:
        return self._build(self._checked(window))

    def _checked(self, window: int) -> int:
        window = int(window)
        if not self.smallest_window <= window <= self.window_cap:
            raise InputError(
                f"{self.name}: window {window} is not between the "
                f"smallest window {self.smallest_window} and the window "
                f"cap {self.window_cap}")
        return window

    def max_window(self, cap: int) -> int:
        """cap clamped to window_cap; InputError below the smallest window."""
        if int(cap) < self.smallest_window:
            raise InputError(f"{self.name}: window cap {int(cap)} is below "
                             f"the smallest window {self.smallest_window}")
        return min(int(cap), self.window_cap)

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
    (a closed form, exact) or a TailSum (e.g. series.geometric_tail, which
    calls its term rule, such as sigma_fn, on arrays of indices); a
    rule with value inf declares an infinite series, such as an infinite
    measure, which has no measure tail. The optional w_sum_fn(a, b) is the
    correctly rounded sum of w_fn's floats over a <= k < b (a closed form,
    for potential's ramp bounds), or None where it has none. res_upper is
    a certified upper bound on the tail resistance sum_{k>=1} 1/w(k), or
    None. label names the end in reports ('plus', or 'minus' for the left
    end of a line). Ends compare by identity.

    sigma_tail, mu_tail and mu_is_infinite share one memo: each tail rule
    runs once per index k for the life of the End, and a rule that raises
    is not remembered. A copy made with dataclasses.replace starts empty;
    a line's two ends share one memo, which is keyed by (rule, k), so ends
    that hold the same rule evaluate it once per index between them. Any
    other sharing between ends is decided by the family, not by the rules
    (LinearFamily.per_end).
    """

    w_fn: Callable
    mu_fn: Callable
    sigma_fn: Callable
    sigma_tail_fn: Callable | None = None
    mu_tail_fn: Callable | None = None
    w_sum_fn: Callable | None = None
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


@dataclass(frozen=True)
class Chain:
    """One end's rules outward from the root as read-only raw arrays
    (LinearFamily.chain): w and mu on 0..depth, the end's own mu(0)
    included, and sigma on 0..depth-1. w[depth] is the leak: the weight of
    the first edge a realization of this depth cuts."""

    w: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray


def _valid_depth(rules, n: int) -> int:
    """Largest depth d < n at which every end's w and mu (rules: per end,
    w, mu and sigma from index 0) are finite and positive on 0..d, sigma on
    0..d-1 (the realized edges), and every realized row sum is finite: the
    root's, w(0) summed over the ends, and w(k-1) + w(k) at 0 < k < d."""
    bad = np.arange(n + 1) == n          # bad[d]: depth d reads a bad value
    with np.errstate(all="ignore"):
        bad[1] |= not np.isfinite(sum(w[0] for w, _, _ in rules))  # the root
        for w, mu, sigma in rules:
            w = w[:n]
            bad[:n] |= ~(_valid(w) & _valid(mu[:n]))
            bad[1:n] |= ~_valid(sigma[:n - 1])
            bad[2:n] |= ~np.isfinite(w[:-2] + w[1:-1])
    return int(np.argmax(bad)) - 1


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
    The ends of a line share one tail memo (see End), and per_end runs a
    per-end computation once per distinct End the family was built from.
    The rules' float range (max_window) is the only depth bound a ray or
    line has of its own. WINDOW_CAP 2^20 is a memory guard above it:
    realizing the largest window and its canonical lengths stays under
    ~0.5 GB.

    Subclasses fix the window convention: the smallest window, which
    realizes depth 1, and the root's id (root_id, the truncation's
    origin). They also define truncate() and canonical_lengths() in their
    own bodies, as one-line delegations, because per-class instrumentation
    (perfbench/tracing.py) looks these methods up in each class's namespace.
    """

    smallest_window = 1
    WINDOW_CAP = 1 << 20
    _mirrored = False                    # a line built from one End twice

    def __init__(self, name, ends, params=None):
        super().__init__(name, params, self.WINDOW_CAP)
        self._ends = tuple(ends)
        self._rules = [(np.empty(0),) * 3 for _ in self._ends]  # w, mu, sigma
        self._size = 0                   # _rules hold indices 0.._size-1

    def ends(self):
        return self._ends

    def per_end(self, fn) -> list:
        """[fn(end) for end in ends()], with fn run once per distinct End
        the family was built from: a mirrored line runs it on its minus end
        and gives that one result to both. Its ends hold the same rules and
        its realizations are symmetric about the root, so fn(plus) would
        give the same floats; fn must not read the end's label."""
        if self._mirrored:
            return [fn(self._ends[0])] * 2
        return [fn(end) for end in self._ends]

    def _depth(self, window: int) -> int:
        return int(window) + 1 - self.smallest_window

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

    def chain(self, depth: int) -> tuple:
        """One Chain of this depth per end of ends(), sliced from the memo
        that the chain's readers (module docstring), max_window and
        truncate share. The memo is filled on first use (never at
        construction) and grows to at least twice its length when too
        short, so it runs each rule once per index. Values are raw: valid
        ones lie within the depth of max_window."""
        depth = int(depth)
        if depth >= self._size:
            self._grow(max(depth + 1, 2 * self._size))
        return tuple(Chain(w[:depth + 1], mu[:depth + 1], sigma[:depth])
                     for w, mu, sigma in self._rules)

    def _grow(self, size: int) -> None:
        """Append each end's w, mu and sigma on the indices from the memo's
        length to size - 1: raw, under np.errstate(all="ignore")."""
        if size <= self._size:
            return
        xs = np.arange(self._size, size, dtype=float)
        with np.errstate(all="ignore"):
            self._rules = [tuple(np.concatenate((old, np.asarray(
                rule(xs), dtype=float))) for old, rule in
                zip(rules, (end.w_fn, end.mu_fn, end.sigma_fn)))
                for end, rules in zip(self._ends, self._rules)]
        for a in (a for rules in self._rules for a in rules):
            a.flags.writeable = False
        self._size = size

    def _build(self, window: int) -> WeightedGraph:
        depth, root = self._depth(window), self.root_id(window)
        w, mu = self._window_arrays(window)
        ids = np.arange(mu.size)
        leak = {root + self._sign(end) * depth: float(c.w[depth])
                for end, c in zip(self._ends, self.chain(depth))}
        return WeightedGraph(mu.size, np.column_stack((ids[:-1], ids[1:], w)),
                             mu, leak=leak, origin=root)

    def _window_arrays(self, window: int):
        """truncate(window)'s w(x, x + 1) and mu(x) over its ids x, from the
        chain and checked as truncate checks them, the cut edge's weight
        (the leak) included, with no graph: an fsum over these is bit-equal
        to one over the realization's arrays."""
        depth = self._depth(self._checked(window))
        ws, mus = [], []
        for end, c in zip(self._ends, self.chain(depth)):
            last = end is self._ends[-1]    # the root's measure is its own
            _validate_window(self.name, c.w, c.mu[0 if last else 1:])
            ws.append(c.w[:depth] if last else c.w[depth - 1::-1])
            mus.append(c.mu if last else c.mu[:0:-1])
        return np.concatenate(ws), np.concatenate(mus)

    def _canonical_lengths(self, g: WeightedGraph):
        from .metrics import EdgeLengths
        lengths = [c.sigma for c in self.chain(g.n - 1 - g.origin)]
        # a realization stores a line's minus edges first, outermost first
        return EdgeLengths(g, np.concatenate(
            [s[::-1] for s in lengths[:-1]] + lengths[-1:]), kind="canonical")

    def max_window(self, cap: int) -> int:
        """GraphFamily.max_window, lowered to the largest window whose
        realization and canonical lengths read only finite, positive rule
        values (_valid_depth). The memo grows by doubling only until the
        first invalid index or the cap. Raises FamilyDefinitionError when
        the rules fail at depth 1."""
        hi = self._depth(super().max_window(cap))
        # a step's fixed cost (a few dozen numpy calls) outweighs 512 points
        n = min(hi + 1, max(self._size, 512))
        self._grow(n)
        while (depth := _valid_depth(self._rules, n)) == n - 1 and n <= hi:
            n = min(2 * n, hi + 1)
            self._grow(n)
        if depth < 1:
            raise FamilyDefinitionError(
                f"{self.name}: rules invalid near the origin")
        return depth - 1 + self.smallest_window

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
    depth N-1: vertices 0..N-1 with the root at id 0, for N up to the
    rules' float range (max_window).
    """

    smallest_window = 2

    def __init__(self, name, w_fn, mu_fn, params=None, sigma_fn=None, **tail):
        end = End(w_fn, mu_fn, sigma_fn or default_sigma0_rule(w_fn, mu_fn),
                  **tail)
        super().__init__(name, (end,), params)

    def truncate(self, window: int) -> WeightedGraph:
        return self._window(window)

    def canonical_lengths(self, g: WeightedGraph):
        return self._canonical_lengths(g)


class LineFamily(LinearFamily):
    """Two-sided line ..., -1, 0, 1, ... glued at the root from two ends.

    Both ends are given in outward coordinates: plus.w_fn(k) = w(k, k+1)
    and minus.w_fn(k) = w(-k-1, -k) for k >= 0, minus.mu_fn(k) = mu(-k)
    for k >= 1; mu(0) comes from plus.mu_fn. The family holds copies
    labeled 'minus' and 'plus', with one tail memo between them. Window N
    realizes depth N: the window [-N, N] with id(x) = x + N. A line built
    from one End twice (minus is plus) is mirrored: per_end runs each
    per-end computation on the minus end and gives its result to both.
    """

    def __init__(self, name, minus: End, plus: End, params=None):
        ends = (replace(minus, label="minus"), replace(plus, label="plus"))
        ends[1]._tails = ends[0]._tails
        super().__init__(name, ends, params)
        self._mirrored = minus is plus

    def root_id(self, window: int) -> int:
        return int(window)

    def truncate(self, window: int) -> WeightedGraph:
        return self._window(window)

    def canonical_lengths(self, g: WeightedGraph):
        return self._canonical_lengths(g)
