"""Simulation of the driving processes and jump-diffusion SDE paths.

Paths live on a time grid that contains every jump time, so left limits
at jumps are well defined on-grid.  The Euler scheme is left-point: the
diffusion increment of the step ending at a jump time is applied first,
the pre-jump value recorded, and the jump applied afterwards.
"""

import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigError, NumericalAbort

_COEFFICIENTS = ("mu_x", "sigma", "lambda_x", "mu_a", "lambda_a")

# a jump time within _SNAP * max(1, t_end) of a uniform grid point replaces it
_SNAP = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time points on [0, t_end] with jump markers, in
    one row (L+1,) or in P rows (P, L+1) with k jumps each.

    The arrays are read-only views, so one grid can be shared by every
    path simulated on it.  The step lengths and jump indices are computed
    once, at construction, which checks the grid (build_grid checks its own).
    """

    times: np.ndarray
    jump_flags: np.ndarray
    dts: np.ndarray = field(init=False, repr=False, compare=False)
    jump_indices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        f = np.asarray(self.jump_flags, dtype=bool)
        if t.ndim not in (1, 2) or t.shape[-1] < 2:
            raise ConfigError("grid needs at least two time points")
        if np.any(t[..., 0] != 0.0):
            raise ConfigError("grid must start at 0")
        dts = np.diff(t, axis=-1)
        if not np.all(dts > 0):
            raise ConfigError("grid times must be strictly increasing")
        if f.shape != t.shape:
            raise ConfigError("jump_flags must align with times")
        _store_grid(self, t, f, np.nonzero(f)[-1].reshape(*f.shape[:-1], -1), dts)

    @property
    def n_steps(self):
        return self.times.shape[-1] - 1

    @cached_property
    def sqrt_dts(self):
        return _read_only(np.sqrt(self.dts))

    @cached_property
    def zero_steps(self):
        """+0.0 at every step: the increments of a train without jumps."""
        return _read_only(np.zeros(self.dts.shape))


def _store_grid(grid, times, flags, jump_indices, dts):
    """Set the grid's arrays, read-only, with no check."""
    for name, value in (("times", times), ("jump_flags", flags), ("dts", dts),
                        ("jump_indices", jump_indices)):
        object.__setattr__(grid, name, _read_only(value))
    return grid


def _read_only(array):
    view = array.view()
    view.flags.writeable = False
    return view


class Jumps(NamedTuple):
    """Compound Poisson trains of a batch of paths, flat: path p's counts[p] events
    follow those of the paths before it, at strictly increasing times."""

    counts: np.ndarray
    times: np.ndarray
    sizes: np.ndarray


@dataclass(frozen=True)
class JumpLaw:
    """Jump-size sampler with finite mean absolute size.

    kinds: two_point, params (lo, hi): lo or hi with probability 1/2 each,
    lo where the uniform draw is below 0.5; and exponential, params (mean,):
    sizes of mean |mean|, negated if mean < 0.  A sample is
    sizes(draw(rng, n)).
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in ("two_point", "exponential"):
            raise ConfigError(f"unknown jump law kind: {self.kind!r}")

    def draw(self, rng, size):
        """The generator's draws, which sizes() maps elementwise."""
        if self.kind == "two_point":
            return rng.random(size)
        return rng.exponential(abs(self.params[0]), size)

    def sizes(self, draws):
        if self.kind == "two_point":
            lo, hi = self.params
            return np.where(draws < 0.5, lo, hi).astype(float)
        return np.sign(self.params[0]) * draws


def two_point(lo, hi):
    return JumpLaw("two_point", (lo, hi))


@dataclass(frozen=True)
class SdeSpec:
    """Coefficients and jump laws for the simulated jump-diffusion pair.

    dX = mu_x dt + sigma dB + lambda_x dY
    dA = mu_a dt + lambda_a dZ

    The five coefficients are real constants, stored as floats.  Setting
    a_jump_driver="y" routes the A jumps through the same train Y that
    drives X, for scenarios where both processes share one jump clock.
    """

    mu_x: float = 0.0
    sigma: float = 0.0
    lambda_x: float = 0.0
    mu_a: float = 0.0
    lambda_a: float = 0.0
    rate_y: float = 0.0
    rate_z: float = 0.0
    jump_law_y: Optional[JumpLaw] = None
    jump_law_z: Optional[JumpLaw] = None
    x0: float = 0.0
    a0: float = 0.0
    a_jump_driver: str = "z"

    def __post_init__(self):
        for name in _COEFFICIENTS:
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ConfigError(f"coefficient {name} must be a real constant, "
                                  f"got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.a_jump_driver not in ("y", "z"):
            raise ConfigError("a_jump_driver must be 'y' or 'z'")
        if self.rate_y < 0 or self.rate_z < 0:
            raise ConfigError("jump intensities must be nonnegative")
        if self.rate_y > 0 and self.jump_law_y is None:
            raise ConfigError("rate_y > 0 requires jump_law_y")
        if self.rate_z > 0 and self.jump_law_z is None:
            raise ConfigError("rate_z > 0 requires jump_law_z")


@dataclass
class PathBundle:
    """Aligned realisation of (t, A, X) with left limits at jumps, for
    one path (L+1,) or a block of P paths (P, L+1) on a grid of either shape.

    Only the drivers are given, as per-step increments (..., L): the
    Brownian increments dB and the jump-train increments dY, dZ (placed at
    the step that ends at the jump); B, Y and Z are their running sums from
    0.  The increments split X into a martingale part M = sigma B and a
    finite-variation part K (drift + jumps), derived from the spec's
    constant coefficients:

        x[k+1] = x[k] + ((k_drift[k] + m[k]) + k_jump[k])

    with that exact floating-point association; the pre-jump value is
    x[k] + (k_drift[k] + m[k]).  Same split for A with m identically 0.
    Construction runs this Euler scheme once and stores (A, X) and their
    left limits, which equal the value at non-jump indices.  Arrays are
    read-only and shared where equal: x_pre is x_path without jumps.
    """

    grid: TimeGrid
    spec: SdeSpec
    db: np.ndarray
    dy: np.ndarray
    dz: np.ndarray
    a_path: np.ndarray = field(init=False)
    x_path: np.ndarray = field(init=False)
    a_pre: np.ndarray = field(init=False)
    x_pre: np.ndarray = field(init=False)

    def __post_init__(self):
        cont, shape = self.diffusion_increments, (*self.db.shape[:-1], self.db.shape[-1] + 1)
        x = _accumulate(self.spec.x0, cont, self.k_jump_increments, shape)
        if self.spec.mu_a == 0.0 and self.a_jump_increments is self.grid.zero_steps:
            # every A increment is +0.0, so the running sum is a0 + 0.0 from step 1
            a = np.full(shape, self.spec.a0 + 0.0)
            a[..., 0] = self.spec.a0
        else:
            a = _accumulate(self.spec.a0, self.a_drift_increments, self.a_jump_increments,
                            shape)
        # a running sum stays non-finite once it is, so the last value decides
        if not (np.isfinite(x[..., -1]).all() and np.isfinite(a[..., -1]).all()):
            raise NumericalAbort("non-finite values in simulated path")
        self.x_path, self.a_path = self.x_pre, self.a_pre = _read_only(x), _read_only(a)
        jidx = self.grid.jump_indices
        if jidx.size:
            at, before = row_index(jidx), row_index(jidx - 1)
            x_pre, a_pre = x.copy(), a.copy()
            x_pre[at] = x[before] + cont[before]
            a_pre[at] = a[before] + self.a_drift_increments[before]
            self.x_pre, self.a_pre = _read_only(x_pre), _read_only(a_pre)

    @property
    def jump_indices(self):
        return self.grid.jump_indices

    @property
    def times(self):
        return self.grid.times

    @property
    def jump_free(self):
        """No jump moves X: x_pre is x_path and every dX jump part is +0.0."""
        return self.x_pre is self.x_path and self.k_jump_increments is self.grid.zero_steps

    # The derived increments are computed on first read and kept, read-only,
    # for the bundle's lifetime.

    @cached_property
    def m_increments(self):
        return _scaled(self.spec.sigma, self.db, self.grid.zero_steps)

    @cached_property
    def k_drift_increments(self):
        if self.spec.mu_x == 0.0 and not np.signbit(self.spec.mu_x):  # +0.0 * dt is +0.0
            return self.grid.zero_steps
        return _read_only(self.spec.mu_x * self.grid.dts)

    @cached_property
    def k_jump_increments(self):
        return _scaled(self.spec.lambda_x, self.dy, self.grid.zero_steps)

    @cached_property
    def a_drift_increments(self):
        return _read_only(self.spec.mu_a * self.grid.dts)

    @cached_property
    def a_jump_increments(self):
        driver = self.dy if self.spec.a_jump_driver == "y" else self.dz
        return _scaled(self.spec.lambda_a, driver, self.grid.zero_steps)

    @cached_property
    def diffusion_increments(self):
        """Per-step continuous increments of X (drift + Brownian part)."""
        m = self.m_increments
        # +0.0 + m is m unless m holds a -0.0, which sigma * dB can: a drawn
        # -0.0, a sigma of +0.0 or -0.0, or a product that underflows. A
        # Gaussian draw is almost never 0, so m holding no zero decides it
        if self.k_drift_increments is self.grid.zero_steps and not (m == 0.0).any():
            return m
        return _read_only(self.k_drift_increments + m)


def row_index(idx):
    """The index of entry idx[p] of each row p of a block's (P, k) indices, as
    values[row_index(idx)] reads it; one path's (k,) indices are their own."""
    return (np.arange(len(idx))[:, None], idx) if idx.ndim == 2 else idx


def _scaled(coeff, driver, zeros):
    """coeff * driver, read-only; the shared zeros when that is +0.0 throughout,
    and the driver itself for a coefficient of 1.0, since 1.0 * x is x."""
    if driver is zeros and np.isfinite(coeff) and not np.signbit(coeff):
        return zeros
    return _read_only(driver if coeff == 1.0 else coeff * driver)


def build_grid(t_end, n_steps, jump_times=()):
    """Uniform grid of n_steps intervals with jump times merged in.

    A jump time coinciding with a uniform point replaces it (flagged once).
    Without jump times the shared uniform grid of (t_end, n_steps) is
    returned.  Jump times of shape (P, k) give a block of P rows, which
    must keep equally many uniform points.
    """
    if t_end <= 0:
        raise ConfigError("t_end must be positive")
    if n_steps < 1:
        raise ConfigError("n_steps must be at least 1")
    jt = np.sort(np.asarray(jump_times, dtype=float), axis=-1)
    if jt.size == 0:
        return _uniform_grid(t_end, n_steps)
    if not (jt.min() > 0 and jt.max() <= t_end):
        raise ConfigError("jump times must lie in (0, t_end]")
    uniform, (rows, k) = _uniform_grid(t_end, n_steps).times, jt.reshape(-1, jt.shape[-1]).shape
    near, snapped = _snaps(uniform, jt.reshape(-1), t_end)
    row, keep = np.arange(rows).repeat(k), np.ones((rows, n_steps + 1), bool)
    # a jump's slot: the uniform points before it that are kept, plus its rank
    slot, width = near[0] + np.tile(np.arange(k), rows), n_steps + 1 + k
    if snapped.any():
        keep[np.broadcast_to(row, near.shape)[snapped], near[snapped]] = False
        replaced = np.cumsum(~keep, axis=-1)
        if (replaced[:, -1] != replaced[0, -1]).any():
            raise ConfigError("the rows of a block must replace equally many uniform points")
        slot, width = slot - replaced[row, near[1]], width - replaced[0, -1]
    # sorted distinct jumps that leave 0 in place make a valid grid: no re-check
    if not keep[:, 0].all():  # a jump within the snap distance of 0
        raise ConfigError("grid must start at 0")
    if (np.diff(jt, axis=-1) == 0).any():
        raise ConfigError("grid times must be strictly increasing")
    flags, times = np.zeros((rows, width), bool), np.empty((rows, width))
    flags[row, slot] = True
    times[flags], times[~flags] = jt.reshape(-1), np.broadcast_to(uniform, keep.shape)[keep]
    times, flags, slot = (v.reshape(*jt.shape[:-1], -1) for v in (times, flags, slot))
    return _store_grid(object.__new__(TimeGrid), times, flags, slot, np.diff(times, axis=-1))


def _snaps(uniform, times, t_end):
    """The two uniform points each time falls between, as rows (its searchsorted
    index, then the one before), and which it snaps to: no farther point can."""
    near = np.searchsorted(uniform, times) - np.arange(2)[:, None]
    return near, np.abs(uniform[near] - times) <= _SNAP * max(1.0, t_end)


@lru_cache(maxsize=8)
def _uniform_grid(t_end, n_steps):
    return TimeGrid(np.linspace(0.0, t_end, n_steps + 1), np.zeros(n_steps + 1, dtype=bool))


def simulate_compound_poisson(rate, jump_law, t_end, seeds):
    """Compound Poisson event trains on (0, t_end], one per entry of a list of
    seeds, each deterministic in its seed.  Each generator draws its count, that
    many uniform times, then that many sizes; the distinct times take the first
    sizes, which a fresh generator draws alike whatever the count, so no path
    draws twice.  A rate of 0 draws nothing, so it reads no seed."""
    if rate < 0:
        raise ConfigError("rate must be nonnegative")
    if rate == 0:
        return Jumps(np.zeros(len(seeds), np.intp), np.empty(0), np.empty(0))
    counts, times, draws = [], [np.empty(0)], [np.empty(0)]
    for s in seeds:
        rng = np.random.default_rng(s)
        counts.append(n := rng.poisson(rate * t_end))
        if n:  # uniform(0, t_end) is 0.0 + t_end * random(), bit for bit
            times.append(rng.random(n))
            draws.append(jump_law.draw(rng, n))
    path, counts = np.repeat(np.arange(len(seeds)), counts), np.array(counts, np.intp)
    times, sizes = t_end * np.concatenate(times), jump_law.sizes(np.concatenate(draws))
    order, first = _by_path(path, times)
    if first.all():  # strictly increasing times almost surely
        return Jumps(counts, times[order], sizes)
    rank = np.arange(path.size) - np.repeat(np.cumsum(counts) - counts, counts)
    distinct = np.bincount(path[first], minlength=counts.size)
    return Jumps(distinct, times[order][first], sizes[rank < distinct[path]])


def _by_path(path, times):
    """The order that sorts events by path, then time, and which of the sorted
    events is the first at its time in its path."""
    order = np.lexsort((times, path))
    path, times, first = path[order], times[order], np.ones(times.size, bool)
    first[1:] = (times[1:] != times[:-1]) | (path[1:] != path[:-1])
    return order, first


def simulate_brownian(grid, seeds):
    """Standard Brownian increments dB on the grid's steps, read-only, one row
    (L,) per entry of a list of seeds: each step's standard normal, drawn from
    that seed, times the square root of its length.  B is the running sum from 0."""
    db = np.empty((len(seeds), grid.n_steps))
    for row, seed in zip(db, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    db *= grid.sqrt_dts
    return _read_only(db)


def _jump_increments(train, sizes, rows, at, grid):
    """Per-step increments of one jump train in the grid's rows: sizes[at], one per
    jump of a row, at the step that ends there; grid.zero_steps if no row jumps."""
    if not (at.size and train.counts[rows].any()):
        return grid.zero_steps
    inc = np.zeros(grid.dts.shape)
    inc[row_index(grid.jump_indices - 1)] = sizes[at]
    return _read_only(inc)


def _accumulate(x0, continuous, jumps, shape):
    """Each row's running sum x0, x0 + (continuous[0] + jumps[0]), ... in one buffer."""
    path = np.empty(shape)
    path[..., 0] = x0
    np.add(continuous, jumps, out=path[..., 1:])
    return np.cumsum(path, axis=-1, out=path)


def seed_hash(entropy, n_words):
    """SeedSequence(entropy).generate_state(n_words, np.uint64) for each column
    of a (k, P) array of uint32 entropy words, as (n_words, P): numpy's seed_seq
    hash (O'Neill 2015) over a pool of 4 words, in wrapping uint32 arithmetic."""
    def hashmix(value, c):  # c: numpy's running hash constant, which this advances
        value, c[0] = value ^ np.uint32(c[0]), c[0] * c[1] & 0xFFFFFFFF
        value = value * np.uint32(c[0])
        return value ^ value >> 16

    words, c = np.asarray(entropy, np.uint32), [0x43B0D7E5, 0x931E8875]
    pool = [hashmix(words[i] if i < len(words) else 0 * words[0], c) for i in range(4)]
    # each pool word into every other, then each entropy word past the pool into all
    for src, dst in [(s, d) for s in range(max(4, len(words))) for d in range(4) if s != d]:
        r = (pool[dst] * np.uint32(0xCA01F9DD)
             - hashmix(pool[src] if src < 4 else words[src], c) * np.uint32(0x4973F715))
        pool[dst] = r ^ r >> 16
    c = [0x8B51F9DD, 0x58F38DED]
    half = np.array([hashmix(pool[i % 4], c) for i in range(2 * n_words)], np.uint64)
    return half[0::2] | half[1::2] << np.uint64(32)


def seed_words(values, width=1):
    """Each nonnegative int's uint32 words, least significant first, as SeedSequence
    reads it: the columns of a (k, P) array zero-padded to `width` rows.  Padding
    past `width` would change a hash, so then every int must need all k words."""
    v = np.asarray(values).reshape(-1)
    if v.dtype.kind not in "iu":  # Python ints past 64 bits, or ones numpy made floats
        v = np.asarray(values, dtype=object).reshape(-1)
    low, top = (int(v.min()), int(v.max())) if v.size else (0, 0)
    rows = max(width, -(-top.bit_length() // 32))
    if low < 0 or (rows > width and low >> 32 * (rows - 1) == 0):
        raise ConfigError(f"seeds must be nonnegative integers, and those of one batch "
                          f"as long as each other when longer than {width} words")
    return np.array([(v >> 32 * j) & 0xFFFFFFFF for j in range(rows)], np.uint32)


class ChildSeed(ISeedSequence):
    """A child of a SeedSequence as the 4 uint64 words that seed a PCG64, in a
    C-contiguous array: PCG64 reads the words from its memory as laid out."""

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, np.dtype(dtype)) != (4, np.uint64):
            raise ValueError("a ChildSeed holds only its 4 uint64 words")
        return self.state


class Draws(NamedTuple):
    """A batch's random inputs short of its normals, flat.  Path p's jumps are
    entries offsets[p]:offsets[p + 1] of times, dy and dz: both trains' times
    in increasing order, a time of both once, and each train's size where it
    jumps, +0.0 elsewhere.  steps[p] counts the steps of p's grid with its jump
    times merged in; states_b[p] is the state of p's Brownian child seed."""

    train_y: Jumps
    train_z: Jumps
    offsets: np.ndarray
    times: np.ndarray
    dy: np.ndarray
    dz: np.ndarray
    steps: np.ndarray
    states_b: np.ndarray

    def blocks(self, size):
        """Path indices in blocks of up to `size` paths that share a step count and
        a jump count: each (steps, jumps) pair's paths in path order, `size` at a time."""
        jumps = np.diff(self.offsets)
        pair = self.steps * (jumps.max(initial=0) + 1) + jumps
        order = np.argsort(pair, kind="stable")  # path order within a pair
        cuts = np.flatnonzero(np.diff(pair[order])) + 1
        for group in np.split(order, cuts) if order.size else ():
            yield from np.split(group, range(size, group.size, size))


def draw_paths(spec, t_end, n_steps, seeds):
    """Both jump trains of each path from its seed, for all seeds at once.
    Sub-streams for the Y jumps, Z jumps and Brownian increments are children 0,
    1 and 2 of SeedSequence(seed), so the Brownian draw does not depend on how
    many jumps occurred.  seed_hash hashes those in use for up to 4096 seeds at
    once: a child's entropy is the seed's words padded to the pool, then k."""
    if t_end <= 0:
        raise ConfigError("t_end must be positive")
    n, words = len(seeds), seed_words(seeds, 4)
    used = [k for k, rate in enumerate((spec.rate_y, spec.rate_z, 1.0)) if rate > 0]
    states = [seed_hash(np.vstack((np.tile(chunk, len(used)), np.repeat(np.uint32(used),
                                   chunk.shape[1]))), 4).T.reshape(len(used), -1, 4)
              for chunk in np.split(words, range(4096, n, 4096), axis=1)]
    states = dict(zip(used, np.ascontiguousarray(np.concatenate(states, axis=1))))
    trains = ((0, spec.rate_y, spec.jump_law_y), (1, spec.rate_z, spec.jump_law_z))
    # a train of rate 0 reads no seed, so it gets placeholders and hashes no child
    y, z = (simulate_compound_poisson(rate, law, t_end, list(map(ChildSeed, states[k]))
                                      if k in states else [None] * n)
            for k, rate, law in trains)
    # merge each path's trains, a time of both once, with each train's sizes
    path = np.repeat(np.tile(np.arange(n), 2), np.concatenate((y.counts, z.counts)))
    times = np.concatenate((y.times, z.times))
    order, first = _by_path(path, times)
    sizes = np.zeros((2, np.count_nonzero(first)))
    sizes[(order >= y.times.size).astype(np.intp), np.cumsum(first) - 1] = 0.0 + np.concatenate(
        (y.sizes, z.sizes))[order]  # as adding into a step's zero: -0.0 becomes +0.0
    path, times = path[order][first], times[order][first]
    counts = np.bincount(path, minlength=n)
    near, snapped = _snaps(_uniform_grid(t_end, n_steps).times, times, t_end)
    replaced = np.unique((path * (n_steps + 1) + near)[snapped])
    steps = n_steps + counts - np.bincount(replaced // (n_steps + 1), minlength=n)
    return Draws(y, z, np.concatenate(([0], np.cumsum(counts))), times, *sizes, steps, states[2])


def simulate_jump_diffusion(spec, t_end, n_steps, seed, rows=None):
    """Euler left-point simulation of (A, X) driven by dB, dY, dZ.

    `seed` is one path's seed, which gives a 1-D bundle, or a draw_paths
    result.  Of that, `rows` is one path's index, which gives a 1-D bundle, or
    an array of indices of paths whose grids share a step count and a jump
    count, which gives a block with one row per index, in order.  Either way
    a path's values depend only on (spec, t_end, n_steps) and its seed.
    """
    if not isinstance(seed, Draws):
        if rows is not None or not isinstance(seed, numbers.Integral):
            raise ConfigError("a path's seed is an int; a block, draw_paths' result and rows")
        seed, rows = draw_paths(spec, t_end, n_steps, [seed]), 0
    rows, draws = np.asarray(rows), seed
    first = rows.flat[0] if rows.size else 0
    lo, k = draws.offsets[rows], draws.offsets[first + 1] - draws.offsets[first]
    if rows.size != 1 and not (rows.size and (draws.offsets[rows + 1] - lo == k).all()
                               and (draws.steps[rows] == draws.steps[first]).all()):
        raise ConfigError("a block's paths must share a step count and a jump count")
    at = lo[..., None] + np.arange(k)
    grid = build_grid(t_end, n_steps, draws.times[at])
    db = simulate_brownian(grid, list(map(ChildSeed, draws.states_b[rows.reshape(-1)])))
    return PathBundle(grid, spec, db if rows.ndim else db[0],
                      _jump_increments(draws.train_y, draws.dy, rows, at, grid),
                      _jump_increments(draws.train_z, draws.dz, rows, at, grid))
