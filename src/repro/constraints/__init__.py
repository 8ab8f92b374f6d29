"""Constrained selection: fairness floors/ceilings and cluster budgets.

The constrained-selection subsystem makes demographic guarantees a
first-class selection mode on top of the paper's coverage objective:

* :class:`ConstraintSpec` declares per-group hard floors/ceilings
  (generalizing customization's G₊/G₋) or a cluster-budgeted mode.
* :func:`constrained_select` runs the CSR-index-native solvers
  (:mod:`~repro.constraints.fair`, :mod:`~repro.constraints.clustered`)
  and reports per-bound satisfaction.
* :func:`~repro.core.greedy.select_from_index` accepts
  ``constraints=spec`` so every caller of the vectorized backends can
  compose constraints with the matrix/sharded/stochastic methods and
  memory-mapped checkpoint indexes.

Both solvers run the shared greedy kernel of :mod:`repro.core.greedy`
(the fair one as a feasibility gate, the clustered repair round from a
starting coverage).  Each has a pure-Python oracle twin in
``tests/oracles/constraints.py``, pinned by exact-parity sweeps in
``tests/constraints``.
"""

from .clustered import (
    ClusterSolve,
    clustered_select_rows,
    partition_rows,
)
from .fair import diagnose_floors, fair_select_rows
from .feasibility import (
    eligibility_mask,
    eligible_user_filter,
    keys_by_property,
)
from .select import (
    BoundReport,
    ClusterReport,
    ConstrainedSelectionResult,
    constrained_select,
)
from .spec import CLUSTER_METHODS, ClusterSpec, ConstraintSpec

__all__ = [
    "BoundReport",
    "CLUSTER_METHODS",
    "ClusterReport",
    "ClusterSolve",
    "ClusterSpec",
    "ConstrainedSelectionResult",
    "ConstraintSpec",
    "clustered_select_rows",
    "constrained_select",
    "diagnose_floors",
    "eligibility_mask",
    "eligible_user_filter",
    "fair_select_rows",
    "keys_by_property",
    "partition_rows",
]
