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


# Floats per batch of the grid search (0.5 MB), in (queries, grid_n) rows over a.
# Larger batches only raised peak memory.
_CHUNK_FLOATS = 2 ** 16


def moreau_envelope(surface, m, query, search_box, grid_n=33, rounds=6):
    """Quadratic inf-convolution of a surface b that ignores t, evaluated at
    (t, a) query points.

    query is (tq, aq), two scalars or two arrays of one shape; a scalar
    query returns a float, an array query an array of that shape.  Penalty
    convention is (m/2)||.||^2, so the envelope increases to b as m grows.
    As b ignores t, the infimum lies at t = tq, so only a is searched and the
    result does not depend on tq; a surface that depends on t is a
    ConfigError.  The infimum is approximated by a nested grid search over
    the box's a-range, each round's half-width a tenth of the last's; the
    query point itself is always a candidate, so the result never exceeds
    b(query).  Queries with the same aq bits share one search, and all are
    searched at once, in batches.
    """
    if not 0 < m / 2.0 < np.inf:  # a penalty m/2 of 0 makes 0 * inf = nan where a is far
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
    # on a (t, a) grid spanning the box, b gives one row over a if it ignores t
    if np.shape(surface.b(np.linspace(t_lo, t_hi, grid_n)[None, :, None],
                          np.linspace(a_lo, a_hi, grid_n)[None, None, :])) != (1, 1, grid_n):
        raise ConfigError("the envelope needs a surface b(t, a) that ignores t and takes the "
                          "shape of a")
    # search each distinct aq once, by bits, so -0.0 != 0.0
    shape, tq, aq = tq.shape, tq.ravel(), aq.ravel()
    _, first, back = np.unique(aq.view(np.int64), return_index=True, return_inverse=True)
    tq, aq = tq[first], aq[first]
    chunk = max(1, _CHUNK_FLOATS // grid_n)
    env = np.empty(tq.size)
    for lo in range(0, tq.size, chunk):
        env[lo:lo + chunk] = _grid_search(surface, m / 2.0, tq[lo:lo + chunk], aq[lo:lo + chunk],
                                          (a_lo, a_hi), grid_n, rounds)
    return env[back].reshape(shape) if shape else float(env[0])


def _grid_search(surface, c, tq, aq, a_box, grid_n, rounds):
    """The nested grid search over a for a 1-D batch of queries, penalty c = m/2.

    The penalty's t part is least, at 0, at t = tq, so t stays there."""
    (a_lo, a_hi), best = a_box, aq
    half = (a_hi - a_lo) / 2.0
    center = np.full(aq.shape, (a_lo + a_hi) / 2.0)
    best_val = surface.b(tq, aq)
    rows = np.arange(tq.size)
    for _ in range(rounds):
        grid = np.linspace(np.maximum(a_lo, center - half),
                           np.minimum(a_hi, center + half), grid_n, axis=-1)
        row = (grid - aq[:, None]) ** 2 * c + surface.b(tq[:, None], grid)
        k = row.argmin(axis=1)
        v, at = row[rows, k], grid[rows, k]
        better = v < best_val
        best_val = np.where(better, v, best_val)
        best = center = np.where(better, at, best)
        half /= 10.0
    return best_val
