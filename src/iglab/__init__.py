"""iglab: a numerical laboratory for weighted-graph Laplacians.

Intrinsic path metrics, Dirichlet form identities, boundary capacities of
truncated infinite graphs, Minkowski codimension of the metric boundary, and
classification of graph families against self-adjointness and Markov
uniqueness criteria.

Each name is imported from the module that defines it (iglab.graphs,
iglab.classify, ...); the package itself holds only __version__.
"""

__version__ = "0.1.0"
