"""Vectorized numpy oracle for the kernel interface (test-only).

Not a backend: :mod:`repro.kernels` selects only ``python`` and
``native``, and the library never imports numpy.  This module
re-derives the kernel entry points a third way, with no heap at all,
so ``tests/test_kernels.py`` can check the reference against an
implementation that shares none of its control flow.

**Why a fixpoint reproduces the heap.**  The canonical ``(dist,
index)`` tie contract (:mod:`repro.graph.csr`) makes every output a
pure function of the graph view: each distance label is the IEEE-754
minimum over ``dist[parent] + weight`` single-add candidates built from
*final* parent labels, and the canonical predecessor is the tight
parent minimizing ``(dist[parent], parent index)`` — a local property
of the final labels.  Monotone fixpoint iteration (Bellman–Ford style)
over the same float64 adds therefore converges to **bitwise** the same
labels as the reference heap kernel, and a vectorized tight-parent
extraction reproduces the same predecessors, with no heap-order replay
(the restorable-tiebreaking property of Bodwin–Parter,
arXiv:2102.10174).  If the reference ever came to depend on settle
order, the two would part.

**Stages.**  CSR buffers are wrapped zero-copy into ndarrays; full rows
are settled for a batch of sources at once in ``(source, node)``
layout, on ``scipy.sparse.csgraph.dijkstra`` when scipy is importable
(dead slots carry ``inf`` weights) and otherwise by batched
whole-graph Bellman–Ford rounds.  Predecessors come from
segmented lexicographic minima; unit-weight graphs compare int32
levels.  The repair re-settle runs the restricted fixpoint over the
affected subtree, and the decomposition DP is a masked matrix
recurrence.  Counters are the closed-form equivalents of the reference
loops' counts, so counter deltas are compared too.

The public entries keep size gates (targeted queries, small single
rows, small affected sets and short chains go to the reference loops);
the tests call the vectorized stages directly as well, so a gate can
never hide a divergence.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.graph.shortest_paths import EPSILON
from repro.kernels import REPAIRED
from repro.kernels import python_backend as _py
from repro.perf import COUNTERS

from .decomp_oracles import decompose_flat_reference

try:
    from scipy.sparse import csr_matrix as _sp_csr_matrix
    from scipy.sparse.csgraph import dijkstra as _sp_dijkstra
except ImportError:  # the Bellman–Ford rounds reach the same fixpoint
    _sp_csr_matrix = None
    _sp_dijkstra = None

INF = float("inf")

#: Sources settled together per relaxation chunk (bounds the ``S × m``
#: temporaries).
CHUNK = 64

#: Size gates of the public entries (see the module docstring).
SINGLE_MIN_N = 400
REPAIR_MIN_AFFECTED = 192
DECOMPOSE_MIN_CHAIN = 24


# -- array views --------------------------------------------------------------


def _graph_arrays(csr) -> dict:
    """Zero-copy ndarray casts of the snapshot + derived index arrays."""
    indptr = np.frombuffer(csr.indptr, dtype=np.int64)
    indices = np.frombuffer(csr.indices, dtype=np.int64)
    weights = np.frombuffer(csr.weights, dtype=np.float64)
    deg = np.diff(indptr)
    return {
        "indptr": indptr,
        "indices": indices,
        "indices32": indices.astype(np.int32),
        "weights": weights,
        "deg": deg,
        "starts": indptr[:-1],
        "row_of": np.repeat(np.arange(csr.n, dtype=np.int64), deg),
        "empty": deg == 0,
    }


def _dead_masks(view) -> tuple[np.ndarray, np.ndarray]:
    """``(edge_dead, node_dead)``: bool views over the same bytearrays the
    reference loops probe (:meth:`CsrView.masks`)."""
    edge_mask, node_mask = view.masks()
    return (
        np.frombuffer(edge_mask, dtype=np.uint8).view(np.bool_),
        np.frombuffer(node_mask, dtype=np.uint8).view(np.bool_),
    )


def _effective_weights(g, edge_dead: np.ndarray, unit: bool) -> np.ndarray:
    """Slot weights with ``inf`` on dead slots (1.0 base in unit mode)."""
    if unit:
        w = np.ones(len(g["weights"]))
    elif edge_dead.any():
        w = g["weights"].copy()
    else:
        return g["weights"]
    if edge_dead.any():
        w[edge_dead] = INF
    return w


def _row_arrays(dist: np.ndarray, pred: np.ndarray) -> tuple[array, array]:
    """One row as the ``array('d')`` / ``array('q')`` pair every backend
    returns."""
    return (
        array("d", dist.astype(np.float64, copy=False).tobytes()),
        array("q", pred.astype(np.int64, copy=False).tobytes()),
    )


# -- batched full rows --------------------------------------------------------


def _settle(g, node_dead, w_eff, srcs: np.ndarray) -> np.ndarray:
    """Whole-graph relaxation rounds to fixpoint, ``(n, S)`` labels."""
    n, m = len(g["deg"]), len(g["indices"])
    S = len(srcs)
    dist = np.full((n, S), INF)
    dist[srcs, np.arange(S)] = 0.0
    cand = np.empty((m + 1, S))
    cand[m] = INF
    w_col = w_eff[:, None]
    indices, starts, empty = g["indices"], g["starts"], g["empty"]
    dead_rows = node_dead if node_dead.any() else None
    while True:
        np.take(dist, indices, axis=0, out=cand[:m])
        cand[:m] += w_col
        new = np.minimum.reduceat(cand, starts, axis=0)
        new[empty] = INF
        np.minimum(new, dist, out=new)
        if dead_rows is not None:
            new[dead_rows] = INF
        if np.array_equal(new, dist):
            break
        dist, new = new, dist
    return dist


def _scipy_matrix(g, n: int, w_eff: np.ndarray, node_dead: np.ndarray):
    """scipy CSR matrix over the graph buffers.

    Dead slots (and slots into dead nodes) carry ``inf`` weights: an
    ``inf`` edge can never improve a label, and any label reached only
    through one stays ``inf`` — exactly the reference kernels' skip.
    """
    data = w_eff
    if node_dead.any():
        data = w_eff.copy()
        data[node_dead[g["indices"]]] = INF
    return _sp_csr_matrix((data, g["indices"], g["indptr"]), shape=(n, n))


def _extract_preds(
    g,
    D: np.ndarray,
    w_eff: np.ndarray,
    srcs: np.ndarray,
    unit: bool,
    edge_dead: np.ndarray,
) -> np.ndarray:
    """Canonical predecessors from final ``(S, n)`` labels.

    ``pred[v] = argmin over tight parents of (dist[parent], parent)``
    — contiguous axis-1 segmented minima.  Unit graphs skip the
    parent-distance pass (every tight parent of ``v`` sits at level
    ``dist[v] - 1``) and compare int32 levels, but must mask dead slots
    explicitly since the hop arithmetic never touches the
    ``inf``-carrying weights.  Unreachable nodes and the sources
    themselves get ``-1``, matching the reference kernels.
    """
    n = D.shape[1]
    indices, starts, row_of, empty = (
        g["indices"], g["starts"], g["row_of"], g["empty"],
    )
    fin = np.isfinite(D)
    if unit:
        Di = np.where(fin, D, -2.0).astype(np.int32)
        tight = Di[:, indices] + 1 == Di[:, row_of]
        if edge_dead.any():
            tight &= ~edge_dead
        key2 = np.where(tight, g["indices32"], n)
    else:
        pdist = D[:, indices]
        cand = pdist + w_eff
        tight = cand == D[:, row_of]
        np.logical_and(tight, np.isfinite(cand), out=tight)
        key1 = np.where(tight, pdist, INF)
        m1 = np.minimum.reduceat(key1, starts, axis=1)
        m1[:, empty] = INF
        np.logical_and(tight, pdist == m1[:, row_of], out=tight)
        key2 = np.where(tight, indices, n)
    m2 = np.minimum.reduceat(key2, starts, axis=1)
    m2[:, empty] = n
    pred = np.where(fin & (m2 < n), m2, -1)
    pred[np.arange(len(srcs)), srcs] = -1
    return pred


def _full_rows(
    view, sources: list[int], unit: bool
) -> dict[int, tuple[array, array]]:
    """Exhaustive canonical rows for *sources*, settled in chunks."""
    g = _graph_arrays(view.csr)
    edge_dead, node_dead = _dead_masks(view)
    w_eff = _effective_weights(g, edge_dead, unit)
    live = ~edge_dead & ~node_dead[g["indices"]]
    mat = None
    if _sp_dijkstra is not None:
        mat = _scipy_matrix(g, view.csr.n, w_eff, node_dead)
    row_of = g["row_of"]
    out: dict[int, tuple[array, array]] = {}
    relaxations = 0
    settled = 0
    for lo in range(0, len(sources), CHUNK):
        chunk = np.asarray(sources[lo:lo + CHUNK], dtype=np.int64)
        if mat is not None:
            D = _sp_dijkstra(mat, indices=chunk)
        else:
            D = np.ascontiguousarray(_settle(g, node_dead, w_eff, chunk).T)
        pred = _extract_preds(g, D, w_eff, chunk, unit, edge_dead)
        fin = np.isfinite(D)
        settled += int(np.count_nonzero(fin))
        # Per the reference loops: one relaxation per live slot whose
        # scanning endpoint settled.
        relaxations += int((fin.sum(axis=0)[row_of] * live).sum())
        for k, src in enumerate(chunk.tolist()):
            out[src] = _row_arrays(D[k], pred[k])
    COUNTERS.csr_relaxations += relaxations
    COUNTERS.csr_settled += settled
    return out


# -- kernel interface ---------------------------------------------------------


def _vector_eligible(view, n_needed: int) -> bool:
    """Vectorized full rows apply: undirected snapshot, big enough."""
    return not view.csr.directed and view.csr.n >= n_needed


def dijkstra_canonical(
    view, source: int, targets: Optional[Iterable[int]] = None
) -> tuple[array, array, bool]:
    """Canonical Dijkstra rows; vectorized for exhaustive queries.

    Targeted early-exit queries keep the reference heap: settling a
    whole component would throw away the truncation the oracle relies on.
    """
    if targets is not None or not _vector_eligible(view, SINGLE_MIN_N):
        return _py.dijkstra_canonical(view, source, targets)
    dist, pred = _full_rows(view, [source], unit=False)[source]
    return dist, pred, True


def bfs(view, source: int, target: int = -1) -> tuple[array, array]:
    """Canonical BFS rows; vectorized for exhaustive queries."""
    if target >= 0 or not _vector_eligible(view, SINGLE_MIN_N):
        return _py.bfs(view, source, target)
    return _full_rows(view, [source], unit=True)[source]


def rows_many(
    view, sources: list[int], unit: bool
) -> Optional[dict[int, tuple[array, array]]]:
    """Batched exhaustive rows (``None`` on directed snapshots)."""
    if not sources:
        return {}
    if not _vector_eligible(view, 0):
        return None
    return _full_rows(view, list(sources), unit)


#: Children indices and shortest-path counts are sequential passes with
#: nothing to vectorize; the reference serves them.
children_index = _py.children_index
count_paths = _py.count_paths


def repair_resettle(
    view,
    source: int,
    dist,
    pred,
    children: tuple[array, array],
    threshold: float,
    unit: bool,
) -> tuple[int, Optional[array], Optional[array]]:
    """Fused repair: reference subtree discovery and threshold, then the
    re-settle — vectorized above the size gate."""
    outcome, affected = _py.cut_subtree(
        view, source, dist, pred, children, threshold
    )
    if outcome != REPAIRED:
        return outcome, None, None
    if len(affected) < REPAIR_MIN_AFFECTED or view.csr.directed:
        new_dist, new_pred = _py.resettle(view, dist, pred, affected, unit)
    else:
        new_dist, new_pred = _repair_resettle_vec(
            view, source, dist, pred, affected, unit
        )
    return outcome, new_dist, new_pred


def _repair_resettle_vec(
    view,
    source: int,
    dist,
    pred,
    affected: set[int],
    unit: bool,
) -> tuple[array, array]:
    """Vectorized Ramalingam–Reps re-settle.

    Blank the affected labels, then relax *only the affected rows* to
    fixpoint against the frozen unaffected boundary — the same
    candidates the reference loop's boundary offers + bounded heap
    consider, so the fixpoint (and the canonical tight-parent
    extraction on top of it) is bitwise identical.  Relaxation counters
    are the closed-form equivalents of the reference loop's
    boundary-scan + settle-scan counts.
    """
    g = _graph_arrays(view.csr)
    edge_dead, node_dead = _dead_masks(view)
    w_eff = _effective_weights(g, edge_dead, unit)
    indptr, indices, deg = g["indptr"], g["indices"], g["deg"]
    n = len(g["deg"])

    new_dist = np.array(dist, dtype=np.float64)
    new_pred = np.array(pred, dtype=np.int64)
    aff_idx = np.fromiter(affected, dtype=np.int64, count=len(affected))
    aff_idx.sort()
    aff_mask = np.zeros(n, dtype=bool)
    aff_mask[aff_idx] = True
    new_dist[aff_idx] = INF
    new_pred[aff_idx] = -1

    rows = aff_idx[~node_dead[aff_idx]]
    degs_r = deg[rows]
    tot_r = int(degs_r.sum())
    cum = np.concatenate(([0], np.cumsum(degs_r)))
    slots_r = np.repeat(indptr[rows] - cum[:-1], degs_r) + np.arange(tot_r)
    nbr = indices[slots_r]
    w_r = w_eff[slots_r][:, None]
    cand = np.empty((tot_r + 1, 1))
    cand[tot_r] = INF
    empty_r = degs_r == 0
    while True:
        cand[:tot_r, 0] = new_dist[nbr]
        cand[:tot_r] += w_r
        mins = np.minimum.reduceat(cand, cum[:-1], axis=0)[:, 0]
        mins[empty_r] = INF
        old = new_dist[rows]
        upd = np.minimum(old, mins)
        if np.array_equal(upd, old):
            break
        new_dist[rows] = upd

    # Canonical tight parents over the affected rows' in-candidates.
    parent_dist = new_dist[nbr]
    cand_final = parent_dist + w_eff[slots_r]
    row_dist = np.repeat(new_dist[rows], degs_r)
    tight = (cand_final == row_dist) & np.isfinite(cand_final)
    key1 = np.where(tight, parent_dist, INF)
    key1 = np.append(key1, INF)
    min_pd = np.minimum.reduceat(key1[:, None], cum[:-1], axis=0)[:, 0]
    min_pd[empty_r] = INF
    key2 = np.where(tight & (parent_dist == np.repeat(min_pd, degs_r)), nbr, n)
    key2 = np.append(key2, n)
    min_parent = np.minimum.reduceat(key2[:, None], cum[:-1], axis=0)[:, 0]
    min_parent[empty_r] = n
    row_finite = np.isfinite(new_dist[rows])
    new_pred[rows] = np.where(row_finite & (min_parent < n), min_parent, -1)

    # Counter parity with the reference loop: the boundary scan counts
    # every live slot from an alive affected node to an alive
    # *unaffected* neighbor; the settle scan counts every live slot
    # from a settled node to an alive *affected* neighbor.
    slot_live = ~edge_dead[slots_r] & ~node_dead[nbr]
    nbr_aff = aff_mask[nbr]
    boundary = int(np.count_nonzero(slot_live & ~nbr_aff))
    settle_scan = int(np.count_nonzero(
        slot_live & nbr_aff & np.repeat(row_finite, degs_r)
    ))
    COUNTERS.csr_relaxations += boundary + settle_scan
    COUNTERS.spt_nodes_resettled += int(np.count_nonzero(row_finite))
    return _row_arrays(new_dist, new_pred)


def decompose_flat(
    chain: Sequence[int],
    cum: Sequence[float],
    rows: Sequence,
) -> tuple[list[int], list[int], int]:
    """Min-pieces DP; matrix recurrence above the chain-length gate."""
    if len(chain) < DECOMPOSE_MIN_CHAIN:
        return decompose_flat_reference(chain, cum, rows)
    return _decompose_flat_vec(chain, cum, rows)


def _decompose_flat_vec(
    chain: Sequence[int],
    cum: Sequence[float],
    rows: Sequence,
) -> tuple[list[int], list[int], int]:
    """Masked matrix form of the decomposition DP.

    ``valid[j, i]`` reproduces the reference cell test — one-hop pieces
    unconditionally, longer spans iff the prefix-sum cost matches the
    oracle distance under ``costs_equal`` tolerance — then min-plus
    rounds reach the same lexicographic-minimal piece counts and the
    first-minimal-``j`` choice falls out of a column argmax.
    """
    n = len(chain)
    unset = n + 1
    cumv = np.asarray(cum, dtype=np.float64)
    cols = np.asarray(chain, dtype=np.int64)
    dist_ji = np.full((n, n), INF)
    for j in range(n - 2):
        dist_ji[j] = np.asarray(rows[j], dtype=np.float64)[cols]
    span = cumv[None, :] - cumv[:, None]
    gap = np.arange(n)[None, :] - np.arange(n)[:, None]
    tol = EPSILON * np.maximum(
        1.0, np.maximum(np.abs(span), np.abs(dist_ji))
    )
    valid = (gap == 1) | (
        (gap > 1) & np.isfinite(dist_ji) & (np.abs(span - dist_ji) <= tol)
    )
    best = np.full(n, INF)
    best[0] = 0.0
    while True:
        cand = np.where(valid, best[:, None] + 1.0, INF).min(axis=0)
        new = np.minimum(best, cand)
        if np.array_equal(new, best):
            break
        best = new
    eligible = valid & (best[:, None] + 1.0 == best[None, :])
    choice = np.where(eligible.any(axis=0), eligible.argmax(axis=0), 0)
    # The reference loop probes every (i, j<i) pair whose best[j] is
    # set at the time i is processed — final by then, so closed form.
    probes = int(np.count_nonzero(np.isfinite(best)[:, None] & (gap >= 1)))
    best_list = [int(b) if np.isfinite(b) else unset for b in best]
    return best_list, choice.tolist(), probes
