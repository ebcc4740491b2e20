"""The array kernels against the scalar formulas they replace, bit for bit.

The reference functions below evaluate every formula one vertex or one edge
at a time over a dict-of-dicts adjacency, the layout the package used before
its graphs were stored as CSR arrays: per-vertex Dijkstra for the path
distances, per-vertex math.fsum over generators, t * t for squares and
math.sqrt for roots, and the equilibrium system assembled from triplets.
Every kernel result must equal its reference exactly (same bytes), since
math.fsum, t * t and sqrt are correctly rounded and the kernels keep each
elementwise operation and its order.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import dijkstra

import iglab.metrics as metrics
from iglab.forms import (VertexFunction, caccioppoli_check, energy,
                         gradient_pairing_all, gradient_sq_all,
                         green_identity_check, laplacian_all, leibniz_check,
                         norm_sq)
from iglab.graphs import WeightedGraph
from iglab.metrics import (PathMetric, custom_lengths, intrinsic_check,
                           sigma0, sigma1, strongly_intrinsic_check)
from iglab.potential import equilibrium

from conftest import make_random_graph


# -- reference: the scalar formulas over a dict-of-dicts adjacency ------------

def sq(t):
    return t * t


class Ref:
    """A graph as the list of neighbor dicts it was stored as, filled in
    the order of the input edge list."""

    def __init__(self, n, edges, mu):
        self.n = n
        self.mu = np.asarray(mu, dtype=float)
        self.adj = [dict() for _ in range(n)]
        for x, y, w in edges:
            if w != 0.0:
                self.adj[x][y] = self.adj[y][x] = float(w)
        self.row_sums = [math.fsum(a.values()) for a in self.adj]

    def degree(self, x):
        return self.row_sums[x] / float(self.mu[x])

    def edges(self):
        for x in range(self.n):
            for y in sorted(self.adj[x]):
                if x < y:
                    yield x, y, self.adj[x][y]


def ref_sigma0(r):
    deg = [r.degree(x) for x in range(r.n)]
    return {(x, y): min(1.0 / math.sqrt(deg[x]), 1.0 / math.sqrt(deg[y]),
                        1.0)
            for x, y, _ in r.edges()}


def ref_sigma1(r):
    out = {}
    for x, y, w in r.edges():
        mx = r.mu[x] / len(r.adj[x])
        my = r.mu[y] / len(r.adj[y])
        out[(x, y)] = math.sqrt(min(mx, my)) / math.sqrt(w)
    return out


def ref_slack(r, length_of):
    slack = np.empty(r.n)
    for x in range(r.n):
        s = math.fsum(w * sq(length_of(x, y)) for y, w in r.adj[x].items())
        slack[x] = 1.0 - s / r.mu[x]
    return slack


def ref_distance_fn(r, lengths):
    """d(x, y) by one single-source Dijkstra per source x."""
    ij = np.array(list(lengths), dtype=np.intp).reshape(-1, 2)
    s = np.array(list(lengths.values()))
    csr = sp.csr_matrix((np.tile(s, 2), (ij.T.ravel(), ij[:, ::-1].T.ravel())),
                        shape=(r.n, r.n))
    memo = {}

    def distance(x, y):
        if x not in memo:
            memo[x] = dijkstra(csr, indices=x)
        return float(memo[x][y])
    return distance


def ref_laplacian(r, v, x):
    return math.fsum(w * (v[x] - v[y]) for y, w in r.adj[x].items()) \
        / float(r.mu[x])


def ref_pairing(r, vf, vg, x):
    return math.fsum(w * (vf[x] - vf[y]) * (vg[x] - vg[y])
                     for y, w in r.adj[x].items())


def ref_gradient_sq(r, v, x):
    return math.fsum(w * sq(v[x] - v[y]) for y, w in r.adj[x].items())


def ref_energy(r, v):
    return math.fsum(w * sq(v[x] - v[y]) for x, y, w in r.edges())


def ref_norm_sq(r, v):
    return math.fsum(sq(float(v[x])) * float(r.mu[x]) for x in range(r.n))


def ref_green(r, u, v):
    mu = r.mu
    a = math.fsum(ref_laplacian(r, u, x) * float(v[x]) * float(mu[x])
                  for x in range(r.n))
    b = math.fsum(float(u[x]) * ref_laplacian(r, v, x) * float(mu[x])
                  for x in range(r.n))
    c = 0.5 * math.fsum(ref_pairing(r, u, v, x) for x in range(r.n))
    return a, b, c


def ref_leibniz(r, f, g, h):
    fg = f * g
    lhs = math.fsum(ref_pairing(r, fg, h, x) for x in range(r.n))
    rhs = math.fsum(float(f[x]) * ref_pairing(r, g, h, x)
                    + float(g[x]) * ref_pairing(r, f, h, x)
                    for x in range(r.n))
    return lhs, rhs


def ref_caccioppoli(r, u, v):
    lhs = -math.fsum(ref_laplacian(r, u, x) * float(u[x])
                     * sq(float(v[x])) * float(r.mu[x]) for x in range(r.n))
    rhs = 0.5 * math.fsum(sq(float(u[x])) * ref_gradient_sq(r, v, x)
                          for x in range(r.n))
    return lhs, rhs, rhs - lhs


def ref_equilibrium(r, U):
    U = sorted(set(U))
    in_u = np.zeros(r.n, dtype=bool)
    in_u[U] = True
    free = np.flatnonzero(~in_u)
    values = np.ones(r.n)
    res = 0.0
    if free.size:
        idx = -np.ones(r.n, dtype=int)
        idx[free] = np.arange(free.size)
        rows, cols, vals = [], [], []
        b = np.zeros(free.size)
        for i, x in enumerate(free):
            rows.append(i)
            cols.append(i)
            vals.append(r.row_sums[x] + float(r.mu[x]))
            for y, w in r.adj[x].items():
                if in_u[y]:
                    b[i] += w
                else:
                    rows.append(i)
                    cols.append(idx[y])
                    vals.append(-w)
        A = sp.csr_matrix((vals, (rows, cols)), shape=(free.size, free.size))
        diag = A.diagonal()
        dis = sp.diags(1.0 / np.sqrt(diag))
        sol = dis @ spla.spsolve((dis @ A @ dis).tocsr(), dis @ b)
        res = float(np.max(np.abs(A @ sol - b) / diag))
        values[free] = sol
    en = ref_energy(r, values)
    n2 = ref_norm_sq(r, values)
    return math.sqrt(en + n2), en + n2, res, values


# -- inputs -----------------------------------------------------------------

def corpus_shape(rng, n):
    """A graph shaped like the benchmark corpus: a spanning path, then
    extra edges with probability 0.3, listed in that (unsorted) order."""
    edges = [(x, x + 1, (1.0 - rng.random()) * 4.0) for x in range(n - 1)]
    edges += [(x, y, (1.0 - rng.random()) * 4.0)
              for x in range(n) for y in range(x + 2, n)
              if rng.random() < 0.3]
    return edges, (1.0 - rng.random(n)) * 2.0


def cases():
    """(graph, reference, three test functions, equilibrium set) tuples."""
    rng = np.random.default_rng(20120830)
    out = []
    for _ in range(25):
        g = make_random_graph(rng, n_max=12)
        r = Ref(g.n, g.edges(), g.mu)
        funcs = rng.uniform(-2.0, 2.0, size=(3, g.n))
        U = sorted({0, int(rng.integers(g.n))})
        out.append((g, r, funcs, U))
    # the last graph has ~12000 entries: enough squares and roots that a
    # kernel which rounds one of them otherwise (libm's pow, say, in place
    # of t * t or sqrt) shows in the results
    for n in (4, 9, 17, 28, 40) * 3 + (200,):
        edges, mu = corpus_shape(rng, n)
        # the input order is not sorted: with one vertex in U, no free
        # vertex sums more than one U-neighbor into b
        out.append((WeightedGraph(n, edges, mu), Ref(n, edges, mu),
                    rng.uniform(-2.0, 2.0, size=(3, n)),
                    [int(rng.integers(n))]))
    # the equilibrated entry of the light edge (1, 3), about 1e-300/1e30,
    # underflows to 0; the sparse product drops it, and the solve differs
    # in the last bit when the zero is kept
    edges = [(0, 1, 1e30), (0, 2, 1e-300), (0, 3, 1e30), (1, 3, 1e-300),
             (2, 3, 1e-300)]
    mu = [1.0, 0.5, 0.5, 1.0]
    out.append((WeightedGraph(4, edges, mu), Ref(4, edges, mu),
                rng.uniform(-2.0, 2.0, size=(3, 4)), [0]))
    return out


CASES = cases()
IDS = [f"case{i}-n{case[0].n}" for i, case in enumerate(CASES)]


def same(a, b):
    return np.asarray(a, dtype=float).tobytes() == \
        np.asarray(b, dtype=float).tobytes()


def lengths_array(g, ref_lengths):
    return [ref_lengths[(x, y)] for x, y, _ in g.edges()]


# -- the kernels against the reference --------------------------------------

@pytest.mark.parametrize("g, r, funcs, U", CASES, ids=IDS)
def test_lengths_and_certificates_are_exact(g, r, funcs, U):
    assert same(g.row_sums, r.row_sums)
    for build, ref_build in ((sigma0, ref_sigma0), (sigma1, ref_sigma1)):
        lengths = build(g)
        ref = ref_build(r)
        assert same(lengths.values, lengths_array(g, ref))
        strong = strongly_intrinsic_check(g, lengths)
        assert same(strong.slack, ref_slack(r, lambda x, y: ref[
            (min(x, y), max(x, y))]))
        metric = PathMetric(lengths)
        intrinsic = intrinsic_check(g, metric)
        assert same(intrinsic.slack, ref_slack(r, ref_distance_fn(r, ref)))
        assert intrinsic.worst_vertex == int(np.argmin(intrinsic.slack))


@pytest.mark.parametrize("g, r, funcs, U", CASES, ids=IDS)
def test_forms_and_identities_are_exact(g, r, funcs, U):
    f, h, k = (VertexFunction(g, vals) for vals in funcs)
    vf, vh, vk = funcs
    xs = range(g.n)
    assert same(laplacian_all(f), [ref_laplacian(r, vf, x) for x in xs])
    assert same(gradient_sq_all(f), [ref_gradient_sq(r, vf, x) for x in xs])
    assert same(gradient_pairing_all(f, h),
                [ref_pairing(r, vf, vh, x) for x in xs])
    assert same(energy(f), ref_energy(r, vf))
    assert same(norm_sq(f), ref_norm_sq(r, vf))
    green = green_identity_check(f, h)
    assert same(list(green.terms.values()), ref_green(r, vf, vh))
    leibniz = leibniz_check(f, h, k)
    assert same(list(leibniz.terms.values()), ref_leibniz(r, vf, vh, vk))
    cacc = caccioppoli_check(f, h)
    assert same(list(cacc.terms.values()), ref_caccioppoli(r, vf, vh))


@pytest.mark.parametrize("g, r, funcs, U", CASES, ids=IDS)
def test_equilibrium_is_exact(g, r, funcs, U):
    eq = equilibrium(g, U)
    cap, cap_sq, res, values = ref_equilibrium(r, U)
    assert same([eq.cap, eq.cap_sq, eq.residual], [cap, cap_sq, res])
    assert same(eq.e.values, values)


def gallery_tails():
    """(graph, U) as boundary_capacity solves them: a tail from N covering
    most of an outer window 4N..16N of a ray, or of one end of a line."""
    from iglab.gallery import build_family
    out = []
    for name, tail, window in (("ex5.4", 16, 64), ("ex5.5", 8, 128),
                               ("ex5.3a", 32, 128), ("codim3", 4, 64),
                               ("ex5.1", 16, 64), ("ex5.3", 8, 128)):
        fam = build_family(name)
        g = fam.truncate(window)
        out += [(g, fam.tail_ids(end, tail, window)) for end in fam.ends()]
    return out


TAILS = gallery_tails()


@pytest.mark.parametrize("g, U", TAILS,
                         ids=[f"tail{i}-n{g.n}-u{len(U)}"
                              for i, (g, U) in enumerate(TAILS)])
def test_equilibrium_on_gallery_tails_is_exact(g, U):
    assert len(U) > g.n // 4
    eq = equilibrium(g, U)
    cap, cap_sq, res, values = ref_equilibrium(Ref(g.n, g.edges(), g.mu), U)
    assert same([eq.cap, eq.cap_sq, eq.residual], [cap, cap_sq, res])
    assert same(eq.e.values, values)
    assert same(eq.energy, ref_energy(Ref(g.n, g.edges(), g.mu), values))


# -- the bounded multi-source search ------------------------------------------

def test_distance_equal_to_the_search_limit_is_found():
    # triangle 0-1-2 with lengths 0.5, 0.5 and 1.0 on (0, 2): the longest
    # length is the search limit, and d(0, 2) = 0.5 + 0.5 equals it
    # exactly; on the path (3, 4, 5) d(3, 4) is the edge itself, also 1.0
    g = WeightedGraph(6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                          (3, 4, 1.0), (4, 5, 1.0)], [1.0] * 6)
    lens = {(0, 1): 0.5, (1, 2): 0.5, (0, 2): 1.0, (3, 4): 1.0, (4, 5): 0.25}
    metric = PathMetric(custom_lengths(g, lens))
    d = metric.edge_distances()
    want = [metric.distance(int(x), int(y))
            for x, y in zip(g.rows, g.indices)]
    assert same(d, want)
    assert d[g._entry(0, 2)] == 1.0 and d[g._entry(3, 4)] == 1.0
    r = Ref(6, g.edges(), g.mu)
    assert same(intrinsic_check(g, metric).slack,
                ref_slack(r, ref_distance_fn(r, lens)))


def test_source_blocks_are_stitched(monkeypatch):
    # 3 sources per block over 40 vertices; vertices 0-3 are isolated, so
    # the first block holds no entry at all
    rng = np.random.default_rng(7)
    edges, mu = corpus_shape(rng, 36)
    edges = [(x + 4, y + 4, w) for x, y, w in edges]
    mu = np.concatenate((np.ones(4), mu))
    g = WeightedGraph(40, edges, mu)
    monkeypatch.setattr(metrics, "SOURCE_BLOCK_ENTRIES", 3 * g.n)
    r = Ref(40, edges, mu)
    for build, ref_build in ((sigma0, ref_sigma0), (sigma1, ref_sigma1)):
        lengths = build(g)
        ref = ref_build(r)
        cert = intrinsic_check(g, PathMetric(lengths))
        assert same(cert.slack, ref_slack(r, ref_distance_fn(r, ref)))
