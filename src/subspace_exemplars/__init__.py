"""Exemplar selection, clustering and classification for data in a union of
low-dimensional subspaces.

The library selects a small set of data points (exemplars) whose sparse
linear combinations reconstruct the whole dataset, then uses them to cluster
or classify it.  Geometry oracles verify the selection objective against its
convex-geometric characterization at desk scale.
"""

from . import classify, cluster, dataset, ffs, geometry, lasso, metrics, selfrep
from .classify import *
from .cluster import *
from .dataset import *
from .ffs import *
from .geometry import *
from .lasso import *
from .metrics import *
from .selfrep import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [name for module in (classify, cluster, dataset, ffs, geometry, lasso, metrics, selfrep)
           for name in module.__all__]
