"""Anchor-based multi-view clustering via unified bipartite graph learning.

The package learns, jointly: one row-stochastic sample-to-anchor graph per
view, a consensus graph constrained to exactly c connected components, and
adaptive view weights. Cluster labels are read directly off the consensus
graph's components.

Import the API from the submodules (``udbgl.solver``, ``udbgl.dataset``,
...); the package itself holds only ``__version__``.
"""

__version__ = "0.1.0"
