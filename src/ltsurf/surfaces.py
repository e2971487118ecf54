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


# Chunk size of the batched grid search: each chunk's (queries, grid_n, grid_n)
# buffer holds about this many floats (0.5 MB). Larger chunks were no faster
# and only raised peak memory.
_CHUNK_FLOATS = 2 ** 16


def moreau_envelope(surface, m, query, search_box, grid_n=33, rounds=6, shrink=10.0):
    """Quadratic inf-convolution of b evaluated at (t, a) query points.

    query is (tq, aq), two scalars or two arrays of one shape; a scalar
    query returns a float, an array query an array of that shape.  Penalty
    convention is (m/2)||.||^2, so the envelope increases to b as m grows.
    The infimum is approximated by a nested grid search over the search
    box; the query point itself is always a candidate, so the result never
    exceeds b(query).  All queries are searched at once, in chunks.
    """
    if not 0 < m < np.inf:
        raise ConfigError("m must be positive and finite")
    (t_lo, t_hi), (a_lo, a_hi) = search_box
    if t_lo > t_hi or a_lo > a_hi:
        raise ConfigError("empty search box")
    tq, aq = (np.asarray(q, dtype=float) for q in query)
    if tq.shape != aq.shape:
        raise ConfigError(f"query t and a differ in shape: {tq.shape} and {aq.shape}")
    if not np.all((t_lo <= tq) & (tq <= t_hi) & (a_lo <= aq) & (aq <= a_hi)):
        raise ConfigError("query must lie inside the search box")
    shape, tq, aq = tq.shape, tq.ravel(), aq.ravel()
    env = np.empty(tq.size)
    chunk = max(1, _CHUNK_FLOATS // grid_n ** 2)
    for lo in range(0, tq.size, chunk):
        env[lo:lo + chunk] = _grid_search(surface, m, tq[lo:lo + chunk], aq[lo:lo + chunk],
                                          search_box, grid_n, rounds, shrink)
    return env.reshape(shape) if shape else float(env[0])


def _grid_search(surface, m, tq, aq, search_box, grid_n, rounds, shrink):
    """The nested grid search for a 1-D batch of queries.

    Row 0 of each (2, queries) array is t, row 1 is a.
    """
    (t_lo, t_hi), (a_lo, a_hi) = search_box
    box_lo, box_hi = np.array([[t_lo], [a_lo]]), np.array([[t_hi], [a_hi]])
    half = (box_hi - box_lo) / 2.0
    best = np.stack([tq, aq])
    center = np.broadcast_to((box_lo + box_hi) / 2.0, best.shape)
    best_val = surface.b(tq, aq)
    rows = np.arange(tq.size)
    tq, aq = tq[:, None, None], aq[:, None, None]
    vals = np.empty((rows.size, grid_n, grid_n))
    flat = vals.reshape(rows.size, -1)
    for _ in range(rounds):
        ts, as_ = np.linspace(np.maximum(box_lo, center - half),
                              np.minimum(box_hi, center + half), grid_n, axis=-1)
        tt, aa = ts[:, :, None], as_[:, None, :]
        np.add((tt - tq) ** 2, (aa - aq) ** 2, out=vals)
        vals *= m / 2.0
        vals += surface.b(tt, aa)
        k = flat.argmin(axis=1)
        v = flat[rows, k]
        better = v < best_val
        best_val = np.where(better, v, best_val)
        best = center = np.where(better, [ts[rows, k // grid_n], as_[rows, k % grid_n]], best)
        half /= shrink
    return best_val

