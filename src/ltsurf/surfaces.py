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
    """b = level, which ignores t, so its envelope is searched over a alone."""
    c = float(level) + 0.0  # a level of -0.0 gives 0.0
    return Surface(lambda t, a: np.broadcast_to(c, np.shape(a)), lipschitz=True)


# Floats per batch of the grid search (0.5 MB): in (queries, grid_n, grid_n) grids, or in
# (queries, grid_n) rows over a alone if b ignores t. Larger batches only raised peak memory.
_CHUNK_FLOATS = 2 ** 16


def moreau_envelope(surface, m, query, search_box, grid_n=33, rounds=6):
    """Quadratic inf-convolution of b evaluated at (t, a) query points.

    query is (tq, aq), two scalars or two arrays of one shape; a scalar
    query returns a float, an array query an array of that shape.  Penalty
    convention is (m/2)||.||^2, so the envelope increases to b as m grows.
    The infimum is approximated by a nested grid search over the search
    box, each round's half-width a tenth of the last's; the query point
    itself is always a candidate, so the result never exceeds b(query).
    If b ignores t, the infimum lies at t = tq, so only a is searched, the
    result does not depend on tq, and queries with the same aq bits share
    one search.  All queries are searched at once, in batches.
    """
    if not 0 < m / 2.0 < np.inf:  # a penalty m/2 of 0 makes 0 * inf = nan where t is far
        raise ConfigError(f"m must be positive and finite, and m / 2 nonzero, got {m!r}")
    if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= least
               for n, least in ((grid_n, 1), (rounds, 0))):
        raise ConfigError(f"the search needs integers grid_n >= 1 and rounds >= 0, got {grid_n=}, "
                          f"{rounds=}")
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
    t_free = np.shape(surface.b(np.linspace(t_lo, t_hi, grid_n)[None, :, None],
                                np.linspace(a_lo, a_hi, grid_n)[None, None, :])) == (1, 1, grid_n)
    back = slice(None)
    if t_free:  # the result ignores tq: search each distinct aq once, by bits, so -0.0 != 0.0
        _, first, back = np.unique(aq.view(np.int64), return_index=True, return_inverse=True)
        tq, aq = tq[first], aq[first]
    chunk = max(1, _CHUNK_FLOATS // grid_n ** (1 if t_free else 2))
    env = np.empty(tq.size)
    for lo in range(0, tq.size, chunk):
        env[lo:lo + chunk] = _grid_search(surface, m / 2.0, tq[lo:lo + chunk], aq[lo:lo + chunk],
                                          search_box, grid_n, rounds, t_free)
    return env[back].reshape(shape) if shape else float(env[0])


def _grid_search(surface, c, tq, aq, search_box, grid_n, rounds, t_free):
    """The nested grid search for a 1-D batch of queries, penalty c = m/2.

    If b ignores t, the penalty's t part is least, at 0, at t = tq, so t stays
    there and each round searches a alone: row 0 of each (dims, queries) array
    is then a. Otherwise each round searches the full grid, and row 0 is t, row 1 a.
    """
    (t_lo, t_hi), (a_lo, a_hi) = search_box
    if t_free:
        box_lo, box_hi, best = np.array([[a_lo]]), np.array([[a_hi]]), aq[None]
    else:
        box_lo, box_hi = np.array([[t_lo], [a_lo]]), np.array([[t_hi], [a_hi]])
        best = np.stack([tq, aq])
    half = (box_hi - box_lo) / 2.0
    center = np.broadcast_to((box_lo + box_hi) / 2.0, best.shape)
    best_val = surface.b(tq, aq)
    rows = np.arange(tq.size)
    for _ in range(rounds):
        grid = np.linspace(np.maximum(box_lo, center - half),
                           np.minimum(box_hi, center + half), grid_n, axis=-1)
        if t_free:
            row = (grid[0] - aq[:, None]) ** 2 * c + surface.b(tq[:, None], grid[0])
            k = row.argmin(axis=1)
            v, at = row[rows, k], grid[:, rows, k]
        else:
            ts, as_ = grid
            k, v = _grid_argmin(surface, c, tq, aq, ts, as_)
            at = [ts[rows, k // grid_n], as_[rows, k % grid_n]]
        better = v < best_val
        best_val = np.where(better, v, best_val)
        best = center = np.where(better, at, best)
        half /= 10.0
    return best_val


def _grid_argmin(surface, c, tq, aq, ts, as_):
    """First flat argmin i * grid_n + j of each query's grid (ts[:, i], as_[:, j]), and value.

    The queries are one of moreau_envelope's batches, whose grids fit in _CHUNK_FLOATS."""
    # C order, so that each query's grid is one contiguous row of flat
    tt, aa = np.ascontiguousarray(ts)[:, :, None], np.ascontiguousarray(as_)[:, None]
    flat = (((tt - tq[:, None, None]) ** 2 + (aa - aq[:, None, None]) ** 2) * c
            + surface.b(tt, aa)).reshape(len(tt), -1)
    k = flat.argmin(axis=1)
    return k, flat[np.arange(len(flat)), k]
