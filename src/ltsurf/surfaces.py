"""Moving surfaces b(t, a) and their Moreau envelopes."""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Surface:
    """Continuous surface b(t, a).

    lipschitz is declared by the scenario author, not inferred; it marks
    the composed process t -> b(t, A_t) as having bounded variation
    whenever A does.
    """

    b: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lipschitz: bool = False


def constant_surface(level):
    c = float(level)
    return Surface(lambda t, a: np.broadcast_arrays(np.asarray(t, float) * 0.0 + c, a)[0],
                   lipschitz=True)


# Floats per batch of the grid search (0.5 MB): in (queries, grid_n, grid_n) grids, or
# in (queries, grid_n) rows if b ignores t. Larger batches only raised peak memory.
_CHUNK_FLOATS = 2 ** 16


def moreau_envelope(surface, m, query, search_box, grid_n=33, rounds=6, shrink=10.0):
    """Quadratic inf-convolution of b evaluated at (t, a) query points.

    query is (tq, aq), two scalars or two arrays of one shape; a scalar
    query returns a float, an array query an array of that shape.  Penalty
    convention is (m/2)||.||^2, so the envelope increases to b as m grows.
    The infimum is approximated by a nested grid search over the search
    box; the query point itself is always a candidate, so the result never
    exceeds b(query).  All queries are searched at once, in batches.
    """
    if not 0 < m / 2.0 < np.inf:  # a penalty m/2 of 0 makes 0 * inf = nan where t is far
        raise ConfigError(f"m must be positive and finite, and m / 2 nonzero, got {m!r}")
    if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= least
               for n, least in ((grid_n, 1), (rounds, 0))) or not 1 <= shrink < np.inf:
        raise ConfigError("the search needs integers grid_n >= 1 and rounds >= 0 and a finite "
                          f"shrink >= 1, got {grid_n=}, {rounds=}, {shrink=}")
    (t_lo, t_hi), (a_lo, a_hi) = search_box
    if t_lo > t_hi or a_lo > a_hi:
        raise ConfigError("empty search box")
    tq, aq = (np.asarray(q, dtype=float) for q in query)
    if tq.shape != aq.shape:
        raise ConfigError(f"query t and a differ in shape: {tq.shape} and {aq.shape}")
    if not np.all((t_lo <= tq) & (tq <= t_hi) & (a_lo <= aq) & (aq <= a_hi)):
        raise ConfigError("query must lie inside the search box")
    shape, tq, aq = tq.shape, tq.ravel(), aq.ravel()
    # every query's first grid spans the box; on it, b gives one row if it ignores t
    rowwise = np.shape(surface.b(np.linspace(t_lo, t_hi, grid_n)[None, :, None],
                                 np.linspace(a_lo, a_hi, grid_n)[None, None, :])) == (1, 1, grid_n)
    chunk = max(1, _CHUNK_FLOATS // grid_n ** (1 if rowwise else 2))
    env = np.empty(tq.size)
    for lo in range(0, tq.size, chunk):
        env[lo:lo + chunk] = _grid_search(surface, m / 2.0, tq[lo:lo + chunk], aq[lo:lo + chunk],
                                          search_box, grid_n, rounds, shrink, rowwise)
    return env.reshape(shape) if shape else float(env[0])


def _grid_search(surface, c, tq, aq, search_box, grid_n, rounds, shrink, rowwise):
    """The nested grid search for a 1-D batch of queries, penalty c = m/2.

    Row 0 of each (2, queries) array is t, row 1 is a.
    """
    (t_lo, t_hi), (a_lo, a_hi) = search_box
    box_lo, box_hi = np.array([[t_lo], [a_lo]]), np.array([[t_hi], [a_hi]])
    half = (box_hi - box_lo) / 2.0
    best = np.stack([tq, aq])
    center = np.broadcast_to((box_lo + box_hi) / 2.0, best.shape)
    best_val = surface.b(tq, aq)
    rows = np.arange(tq.size)
    for _ in range(rounds):
        ts, as_ = np.linspace(np.maximum(box_lo, center - half),
                              np.minimum(box_hi, center + half), grid_n, axis=-1)
        k, v = (_row_argmin if rowwise else _grid_argmin)(surface, c, tq, aq, ts, as_)
        better = v < best_val
        best_val = np.where(better, v, best_val)
        best = center = np.where(better, [ts[rows, k // grid_n], as_[rows, k % grid_n]], best)
        half /= shrink
    return best_val


def _grid_argmin(surface, c, tq, aq, ts, as_):
    """First flat argmin i * grid_n + j of each query's grid (ts[:, i], as_[:, j]), and value."""
    k, v = np.empty(tq.size, dtype=int), np.empty(tq.size)
    step = max(1, _CHUNK_FLOATS // ts.shape[1] ** 2)
    for s in (slice(lo, lo + step) for lo in range(0, tq.size, step)):
        # C order, so that each query's grid is one contiguous row of flat
        tt, aa = np.ascontiguousarray(ts[s])[:, :, None], np.ascontiguousarray(as_[s])[:, None]
        flat = (((tt - tq[s, None, None]) ** 2 + (aa - aq[s, None, None]) ** 2) * c
                + surface.b(tt, aa)).reshape(len(tt), -1)
        k[s] = flat.argmin(axis=1)
        v[s] = flat[np.arange(len(flat)), k[s]]
    return k, v


def _row_argmin(surface, c, tq, aq, ts, as_):
    """_grid_argmin from (queries, grid_n) arrays, for a b that ignores t.

    Column j, (p_i + r_j) * c + b_j with p_i = (t_i - tq)**2, r_j = (a_j - aq)**2, is
    nondecreasing in p_i even when rounded. Where it is finite at max p and one column j0
    alone reaches the minimum V at min p, the argmin is column j0's first row equal to V.
    Only the other queries, if any, are searched on the full grid.
    """
    rows, n = np.arange(tq.size), ts.shape[1]
    p, r = (ts - tq[:, None]) ** 2, (as_ - aq[:, None]) ** 2
    b = np.reshape(surface.b(ts[:, :, None], as_[:, None, :]), r.shape)
    low, high = (np.stack([p.min(axis=1), p.max(axis=1)])[:, :, None] + r) * c + b
    j = low.argmin(axis=1)
    v = low[rows, j]
    k = ((p + r[rows, j, None]) * c + b[rows, j, None] == v[:, None]).argmax(axis=1) * n + j
    full = ~np.isfinite(high).all(axis=1) | ((low == v[:, None]).sum(axis=1) > 1)
    if full.any():
        k[full], v[full] = _grid_argmin(surface, c, tq[full], aq[full], ts[full], as_[full])
    return k, v
