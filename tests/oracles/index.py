"""Transpose-based reference for ``InstanceIndex.restricted_scaled``.

The production derivation filters and renumbers the cached user-side
CSR without sorting.  This oracle derives the same index the direct
way: slice the active group rows, then rebuild the user-side CSR with a
stable counting sort over every (user, group) incidence entry, exactly
as :meth:`InstanceIndex.build` transposes.
"""

from __future__ import annotations

import numpy as np

from repro.core.index import InstanceIndex, id_dtype


def restricted_scaled_by_transpose(
    index: InstanceIndex, group_dense_ids: np.ndarray, weights: list
) -> InstanceIndex:
    """Restrict ``index`` to ``group_dense_ids`` with new ``weights``."""
    group_dense_ids = np.asarray(group_dense_ids, dtype=np.int64)
    m = len(group_dense_ids)
    sizes = index.row_sizes(group_dense_ids)
    g_indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(sizes, out=g_indptr[1:])
    g_indices = index.members_of_rows(group_dense_ids)
    entry_group = np.repeat(np.arange(m, dtype=id_dtype(m)), sizes)
    order = np.argsort(g_indices, kind="stable")
    u_indices = entry_group[order]
    degree = np.bincount(g_indices, minlength=index.n_users).astype(np.int64)
    u_indptr = np.zeros(index.n_users + 1, dtype=np.int64)
    np.cumsum(degree, out=u_indptr[1:])
    return InstanceIndex.from_csr(
        users=index.users,
        group_keys=tuple(index.group_keys[g] for g in group_dense_ids),
        u_indptr=u_indptr,
        u_indices=u_indices,
        g_indptr=g_indptr,
        g_indices=g_indices,
        cov=index.cov[group_dense_ids].copy(),
        weights=weights,
        user_pos=index.user_pos,
    )
