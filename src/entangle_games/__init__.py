"""Entanglement-distribution games on fixed quantum network topologies.

Library layout:

- ``topology``: network construction (leader mesh, two-tree network,
  distance-decay random links), JSON schema and its input checks
- ``quantum``: dense state/density-matrix engine, noise channels, CHSH,
  the quantized 2x2 game, coin-flip consensus
- ``coalition``: multiplayer coalition formation for a source-destination
  path, classical merge-and-split and the entangled referee variant
- ``consensus``: per-node two-way next-hop selection, classical and
  coin/entanglement-assisted rounds
- ``equilibrium``: best-response Nash solver and Wardrop latency equalization
- ``trial``: time-stepped distribution trials as metric columns
- ``simulation``: the metric sweeps and the node sweep's path choice
- ``cli``: the ``entangle-games`` command-line front end
"""

from .errors import CapacityError, ParameterError, UnreachableError

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ParameterError",
    "UnreachableError",
    "__version__",
]
