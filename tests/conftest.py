"""Shared helpers: the seeded random-graph corpus and two independent
oracles (exhaustive simple-path distances, dense least-squares capacity).

The oracles deliberately avoid the code paths they check: distances come
from a subset DP over simple paths instead of Dijkstra, capacities from
numpy.linalg.lstsq on the stacked incidence factor instead of the sparse
equilibrium solve.
"""

import math

import numpy as np

from iglab.graphs import WeightedGraph


def make_random_graph(rng, n_max=10, require_edge=True):
    """Random graph: n in 2..n_max, w in (0, 4], mu in (0, 2]."""
    n = int(rng.integers(2, n_max + 1))
    edges = []
    for x in range(n):
        for y in range(x + 1, n):
            if rng.random() < 0.6:
                edges.append((x, y, (1.0 - rng.random()) * 4.0))
    if require_edge and not edges:
        edges.append((0, 1, (1.0 - rng.random()) * 4.0))
    mu = (1.0 - rng.random(n)) * 2.0
    return WeightedGraph(n, edges, mu)


def random_values(rng, n, scale=2.0):
    return rng.uniform(-scale, scale, size=n)


def exhaustive_distances(g, lengths, src):
    """Minimum length over all simple paths from src, by DP over vertex
    subsets (each state = set of visited vertices + endpoint). Exponential
    in n; meant for n <= 8.
    """
    n = g.n
    best = [dict() for _ in range(1 << n)]
    start = 1 << src
    best[start][src] = 0.0
    dist = [math.inf] * n
    dist[src] = 0.0
    for s in range(1 << n):
        if not s & start:
            continue
        for v, dv in best[s].items():
            for u, _w in g.neighbors(v).items():
                if s >> u & 1:
                    continue
                nd = dv + lengths.of(v, u)
                s2 = s | (1 << u)
                if nd < best[s2].get(u, math.inf):
                    best[s2][u] = nd
                    if nd < dist[u]:
                        dist[u] = nd
    return np.array(dist)


def lstsq_capacity(g, U):
    """Capacity of U by dense least squares.

    ||u||_Q^2 = ||B u||^2 with B the stacked factor (one sqrt(w) difference
    row per edge, one sqrt(mu) row per vertex); minimizing over u with
    u = 1 on U is an unconstrained lstsq in the free coordinates.
    Returns (cap, full minimizer).
    """
    n = g.n
    rows = []
    for x, y, w in g.edges():
        r = np.zeros(n)
        s = math.sqrt(w)
        r[x], r[y] = s, -s
        rows.append(r)
    for x in range(n):
        r = np.zeros(n)
        r[x] = math.sqrt(g.mu[x])
        rows.append(r)
    B = np.array(rows)
    on = np.zeros(n, dtype=bool)
    on[list(U)] = True
    u = np.ones(n)
    if (~on).any():
        c = B[:, on].sum(axis=1)
        sol, *_ = np.linalg.lstsq(B[:, ~on], -c, rcond=None)
        u[~on] = sol
    r = B @ u
    return math.sqrt(float(r @ r)), u


# -- acceptance summary -------------------------------------------------------
# test_acceptance.py records one entry per criterion; printed at the end of
# every run that touched that module so the pass/fail lines survive output
# capture.

ACCEPTANCE_RESULTS = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        ok, detail = ACCEPTANCE_RESULTS[num]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d}: {status}  {detail}")
