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


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time points on [0, t_end] with jump markers, in
    one row (L+1,) or in P rows (P, L+1) with k jumps each.

    The arrays are read-only views, so one grid can be shared by every
    path simulated on it.  The step lengths and jump indices are computed
    once, at construction.
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
        jump_indices = np.nonzero(f)[-1].reshape(*f.shape[:-1], -1)
        for name, value in (("times", t), ("jump_flags", f), ("dts", dts),
                            ("jump_indices", jump_indices)):
            object.__setattr__(self, name, _read_only(value))

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


def _read_only(array):
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class JumpTrain:
    """Finitely many (time, size) events of a pure-jump path on (0, t_end]."""

    times: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.sizes, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "sizes", s)
        if t.shape != s.shape:
            raise ConfigError("jump times and sizes must align")
        if t.size and not np.all(np.diff(t) > 0):
            raise ConfigError("jump times must be strictly increasing")


@dataclass(frozen=True)
class JumpLaw:
    """Jump-size sampler with finite mean absolute size.

    kinds: two_point (values a/b with prob p/1-p) and exponential (mean,
    optionally negated via sign).
    """

    kind: str
    params: tuple

    def sample(self, rng, size):
        if self.kind == "two_point":
            lo, hi, p = self.params
            return np.where(rng.random(size) < p, lo, hi).astype(float)
        if self.kind == "exponential":
            (mean,) = self.params
            return np.sign(mean) * rng.exponential(abs(mean), size)
        raise ConfigError(f"unknown jump law kind: {self.kind!r}")


def two_point(lo, hi, p=0.5):
    return JumpLaw("two_point", (lo, hi, p))


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
    """Aligned realisation of (t, B, A, X) with left limits at jumps, for
    one path (L+1,) or a block of P paths (P, L+1) on a grid of either shape.

    Only the drivers are given: the Brownian path B and the per-step
    jump-train increments dY, dZ (placed at the step that ends at the jump).
    The increments split X into a martingale part M (Brownian integral)
    and a finite-variation part K (drift + jumps), derived from the spec's
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
    b_path: np.ndarray
    dy: np.ndarray
    dz: np.ndarray
    a_path: np.ndarray = field(init=False)
    x_path: np.ndarray = field(init=False)
    a_pre: np.ndarray = field(init=False)
    x_pre: np.ndarray = field(init=False)

    def __post_init__(self):
        cont, shape = self.diffusion_increments, self.b_path.shape
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
            before = jidx - 1
            x_pre, a_pre = x.copy(), a.copy()
            np.put_along_axis(x_pre, jidx, _take(x, before) + _take(cont, before), axis=-1)
            np.put_along_axis(a_pre, jidx, _take(a, before)
                              + _take(self.a_drift_increments, before), axis=-1)
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
        m = np.diff(self.b_path, axis=-1)
        m *= self.spec.sigma
        return _read_only(m)

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
        # +0.0 + m is m unless m holds a -0.0. No step of B, a running sum
        # from +0.0, is -0.0, and sigma > 0 keeps each step's sign, short of
        # a product so small that it underflows to zero
        if self.k_drift_increments is self.grid.zero_steps and self.spec.sigma > 0.0:
            return m
        return _read_only(self.k_drift_increments + m)


def _take(values, idx):
    """values[..., idx] row by row: idx has one row of indices per row."""
    return np.take_along_axis(values, idx, axis=-1)


def _scaled(coeff, driver, zeros):
    """coeff * driver, read-only; the shared zeros when that is +0.0 throughout."""
    if driver is zeros and np.isfinite(coeff) and not np.signbit(coeff):
        return zeros
    return _read_only(coeff * driver)


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
    if jt.min() <= 0 or jt.max() > t_end:
        raise ConfigError("jump times must lie in (0, t_end]")
    uniform, keep = _kept_uniform(t_end, n_steps, jt)
    kept = np.broadcast_to(uniform, keep.shape)[keep].reshape(*jt.shape[:-1], -1)
    times = np.concatenate((kept, jt), axis=-1)
    flags = np.concatenate((np.zeros(kept.shape, dtype=bool), np.ones(jt.shape, dtype=bool)),
                           axis=-1)
    order = np.argsort(times, axis=-1, kind="stable")
    return TimeGrid(_take(times, order), _take(flags, order))


def _kept_uniform(t_end, n_steps, jump_times):
    """The uniform grid points, and which of them no jump time replaces."""
    uniform = _uniform_grid(t_end, n_steps).times
    atol = 1e-12 * max(1.0, t_end)
    return uniform, ~(np.abs(uniform - jump_times[..., None]) <= atol).any(axis=-2)


@lru_cache(maxsize=8)
def _uniform_grid(t_end, n_steps):
    return TimeGrid(np.linspace(0.0, t_end, n_steps + 1), np.zeros(n_steps + 1, dtype=bool))


_NO_JUMPS = JumpTrain(_read_only(np.empty(0)), _read_only(np.empty(0)))


def simulate_compound_poisson(rate, jump_law, t_end, seed):
    """Compound Poisson event train on (0, t_end], deterministic per seed."""
    if rate < 0:
        raise ConfigError("rate must be nonnegative")
    if rate == 0:
        return _NO_JUMPS
    rng = np.random.default_rng(seed)
    count = rng.poisson(rate * t_end)
    times = np.sort(rng.uniform(0.0, t_end, count))
    # strictly increasing times almost surely; drop pathological duplicates
    if count > 1:
        distinct = np.concatenate(([True], np.diff(times) > 0))
        times = times[distinct]
    sizes = jump_law.sample(rng, times.size)
    return JumpTrain(times, sizes)


def simulate_brownian(grid, seed):
    """Standard Brownian motion sampled on the grid (B_0 = 0), read-only: one
    path, or one row per entry of a list of seed sequences, drawn from each."""
    rows = isinstance(seed, list) and bool(seed) and all(
        isinstance(s, ISeedSequence) for s in seed)
    seeds = seed if rows else [seed]
    path = np.empty((len(seeds), grid.n_steps + 1))
    path[:, 0] = 0.0
    for row, row_seed in zip(path, seeds):
        np.random.default_rng(row_seed).standard_normal(out=row[1:])
    path[:, 1:] *= grid.sqrt_dts
    np.cumsum(path, axis=-1, out=path)
    return _read_only(path if rows else path[0])


def _jump_increments(trains, grid):
    """Per-step increments of one jump train per grid row, each placed at the
    step that ends at its (on-grid) jump time; grid.zero_steps if none jumps."""
    if not any(train.times.size for train in trains):
        return grid.zero_steps
    inc = np.zeros(grid.dts.shape)
    for row, times, train in zip(np.atleast_2d(inc), np.atleast_2d(grid.times), trains):
        # a train's jump times are distinct grid points, one per step at most
        row[np.searchsorted(times, train.times) - 1] += train.sizes
    return _read_only(inc)


def _accumulate(x0, continuous, jumps, shape):
    """Each row's running sum x0, x0 + (continuous[0] + jumps[0]), ... in one buffer."""
    path = np.empty(shape)
    path[..., 0] = x0
    np.add(continuous, jumps, out=path[..., 1:])
    return np.cumsum(path, axis=-1, out=path)


class PathDraw(NamedTuple):
    """A path's random inputs short of its normals."""

    train_y: JumpTrain
    train_z: JumpTrain
    jump_times: np.ndarray  # both trains' times, merged
    n_steps: int  # steps of the grid with the jump times merged in
    seed_b: object  # the seed sequence of the Brownian increments


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
    v = np.asarray(values, dtype=object).reshape(-1)
    rows = max(width, -(-int(v.max()).bit_length() // 32))
    if v.min() < 0 or (rows > width and v.min() >> 32 * (rows - 1) == 0):
        raise ConfigError(f"seeds must be nonnegative integers, and those of one batch "
                          f"as long as each other when longer than {width} words")
    return np.array([(v >> 32 * j) & 0xFFFFFFFF for j in range(rows)], np.uint32)


class ChildSeed(ISeedSequence):
    """Child k of SeedSequence(entropy) as the 4 uint64 words that seed a PCG64."""

    def __init__(self, entropy, k, state):
        self.entropy, self.spawn_key, self.state = entropy, (k,), state

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, np.dtype(dtype)) != (4, np.uint64):
            raise ValueError("a ChildSeed holds only its 4 uint64 words")
        return self.state


def draw_paths(spec, t_end, n_steps, seeds):
    """Both jump trains of each path from its seed, one PathDraw per seed in turn.
    Sub-streams for the Y jumps, Z jumps and Brownian increments are children 0,
    1 and 2 of SeedSequence(seed), so the Brownian draw does not depend on how
    many jumps occurred.  Those in use are hashed for up to 4096 seeds at once."""
    if t_end <= 0:
        raise ConfigError("t_end must be positive")
    used = [k for k, rate in enumerate((spec.rate_y, spec.rate_z, 1.0)) if rate > 0]
    for lo in range(0, len(seeds), 4096):
        chunk = seeds[lo:lo + 4096]
        # a child's entropy is the seed's words padded to the pool, then k
        words = np.vstack((np.tile(seed_words(chunk, 4), len(used)),
                           np.repeat(np.uint32(used), len(chunk))))
        states = dict(zip(used, np.ascontiguousarray(seed_hash(words, 4).T).reshape(
            len(used), -1, 4)))
        for i, seed in enumerate(map(int, chunk)):
            y, z, b = (ChildSeed(seed, k, states[k][i]) if k in states else None
                       for k in range(3))
            train_y = simulate_compound_poisson(spec.rate_y, spec.jump_law_y, t_end, y)
            train_z = simulate_compound_poisson(spec.rate_z, spec.jump_law_z, t_end, z)
            # each train's times are sorted and distinct already
            yt, zt = train_y.times, train_z.times
            jump_times = np.union1d(yt, zt) if yt.size and zt.size else yt if yt.size else zt
            steps = (np.count_nonzero(_kept_uniform(t_end, n_steps, jump_times)[1])
                     + jump_times.size - 1) if jump_times.size else n_steps
            yield PathDraw(train_y, train_z, jump_times, steps, b)


def draw_path(spec, t_end, n_steps, seed):
    """draw_paths for one seed."""
    return next(draw_paths(spec, t_end, n_steps, [seed]))


def simulate_jump_diffusion(spec, t_end, n_steps, seed):
    """Euler left-point simulation of (A, X) driven by B, Y, Z.

    `seed` is one path's seed or draw_path result, which gives a 1-D bundle,
    or a list of draw_path results whose grids share a step count and a jump
    count, which gives a block with one row per draw, in list order.  Either
    way a path's values depend only on (spec, t_end, n_steps) and its seed.
    """
    block = isinstance(seed, list)
    if block and not (seed and all(isinstance(d, PathDraw) for d in seed)):
        raise ConfigError("a block of paths is a non-empty list of draw_path results")
    draws = seed if block else [
        seed if isinstance(seed, PathDraw) else draw_path(spec, t_end, n_steps, seed)]
    jump_times = [d.jump_times for d in draws]
    grid = build_grid(t_end, n_steps, jump_times if block else jump_times[0])
    seeds_b = [d.seed_b for d in draws]
    return PathBundle(grid, spec, simulate_brownian(grid, seeds_b if block else seeds_b[0]),
                      _jump_increments([d.train_y for d in draws], grid),
                      _jump_increments([d.train_z for d in draws], grid))
