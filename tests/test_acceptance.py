"""Acceptance gate: the eleven ensemble-level criteria.

Each test prints a single PASS/FAIL line with the measured numbers so the
run log doubles as the acceptance report.  Criterion 3's final-value bound
(median |residual| < 0.05) is asserted at dt = 1e-5, the finest row of its
convergence study.  The residual is the discrete Tanaka residual T minus an
estimate of the local time, and T itself misses the true local time by the
error of the left-point sum of sgn(X - a) dX, which shrinks like dt^(1/4)
(Jacod 1998): at dt = 1e-4 that gap alone has a median near 0.06-0.07, so no
estimator of L can meet 0.05 there except by copying T's error.  At dt = 1e-5
an honest estimator can, and the bound is kept unchanged.
"""

import functools
import os

import numpy as np
import pytest

from ltsurf import (ScenarioConfig, compare_estimators, convergence_study,
                    moreau_envelope, run_scenario, simulate_jump_diffusion)
from ltsurf.harness import derive_path_seed
from ltsurf.scenarios import SURFACES, build_parts
from occupation import occupation_formula_check

WORKERS = min(4, os.cpu_count() or 1)
ORACLE_LT = np.sqrt(2.0 / np.pi)  # E|B_1|, folded standard normal


def _line(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _per_path(config):
    """run_scenario's per-path rows, read back from the verify.csv it writes
    to config.output, as {column: value} in path order."""
    run_scenario(config)
    with open(os.path.join(config.output, "verify.csv")) as fh:
        header, *lines = fh.read().split()
    return [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]


@pytest.fixture(scope="module")
def estimator_stats():
    # shared by criteria 1 and 2: 10^4 paths at dt = 1e-4, eps = 1/n = 0.01
    cfg = ScenarioConfig(scenario="tanaka_bm", t_end=1.0, dt=1e-4,
                         n_paths=10000, seed=7, bandwidth_rule=0.01,
                         workers=WORKERS)
    return compare_estimators(cfg)


def test_criterion_1_local_time_magnitude(estimator_stats):
    rels = {k: abs(estimator_stats[k]["mean"] / ORACLE_LT - 1.0)
            for k in ("occupation", "mollifier", "tanaka")}
    ok = all(r < 0.03 for r in rels.values())
    _line("criterion 1", ok,
          ", ".join(f"{k} {100 * r:.2f}%" for k, r in rels.items()))
    assert ok, f"estimator means off the folded-normal oracle: {rels}"


def test_criterion_2_estimator_cross_agreement(estimator_stats):
    means = [estimator_stats[k]["mean"]
             for k in ("occupation", "mollifier", "tanaka")]
    worst = max(abs(a / b - 1.0) for a in means for b in means)
    ok = worst < 0.05
    _line("criterion 2", ok, f"worst pairwise gap {100 * worst:.2f}%")
    assert ok


@pytest.fixture(scope="module")
def tanaka_convergence():
    cfg = ScenarioConfig(scenario="tanaka_bm", n_paths=800, seed=7,
                         workers=WORKERS)
    return convergence_study(cfg, [1e-2, 1e-3, 1e-4, 1e-5])


def test_criterion_3_tanaka_residual_monotone(tanaka_convergence):
    meds = [r["median_abs_residual"] for r in tanaka_convergence["rows"]]
    ok = all(b < a for a, b in zip(meds, meds[1:]))
    _line("criterion 3 (monotone)", ok,
          "medians " + ", ".join(f"{m:.4f}" for m in meds))
    assert ok


def test_criterion_3_tanaka_residual_final_value(tanaka_convergence):
    rows = tanaka_convergence["rows"]
    final, dt = rows[-1]["median_abs_residual"], rows[-1]["dt"]
    table = ", ".join(f"dt={r['dt']:g}: {r['median_abs_residual']:.4f}"
                      for r in rows)
    ok = final < 0.05
    _line("criterion 3 (final)", ok,
          f"median |residual| {final:.4f} at dt={dt:g}; medians {table}")
    assert ok, (
        f"median |residual| {final:.4f} >= 0.05 at dt={dt:g} "
        f"(medians {table}); the medians should fall like dt^(1/4), and at "
        "dt=1e-5 seeds 1-10 give 0.043-0.049 with the mollifier estimator"
    )


def test_criterion_4_classical_ito_reduction():
    cfg = ScenarioConfig(scenario="smooth_quadratic", dt=1e-4, n_paths=3000,
                         seed=11, workers=WORKERS)
    med = run_scenario(cfg).residual_stats["abs_median"]
    meds = [med]
    for dt in (1.6e-3, 8e-4, 4e-4, 2e-4, 1e-4):
        cfg = ScenarioConfig(scenario="smooth_quadratic", dt=dt, n_paths=600,
                             seed=11, workers=WORKERS)
        meds.append(run_scenario(cfg).residual_stats["abs_median"])
    halving_ok = all(b <= a for a, b in zip(meds[1:], meds[2:]))
    ok = med < 0.01 and halving_ok
    _line("criterion 4", ok,
          f"median {med:.5f} at dt=1e-4; halving grid "
          + ", ".join(f"{m:.5f}" for m in meds[1:]))
    assert med < 0.01
    assert halving_ok


def test_criterion_5_jump_ltc_scenario():
    cfg = ScenarioConfig(scenario="glued_quadratic_jump", n_paths=1000,
                         seed=21, workers=WORKERS)
    table = convergence_study(cfg, [1e-2, 1e-3, 1e-4])
    meds = [r["median_abs_residual"] for r in table["rows"]]
    lt_mean = run_scenario(
        ScenarioConfig(scenario="glued_quadratic_jump", dt=1e-3, n_paths=1000,
                       seed=21, workers=WORKERS)
    ).term_stats["local_time"]["mean"]
    ok = table["monotone_nonincreasing"] and meds[-1] < 0.1 and lt_mean > 0
    _line("criterion 5", ok,
          f"medians {', '.join(f'{m:.4f}' for m in meds)}; "
          f"local-time term mean {lt_mean:.4f}")
    assert table["monotone_nonincreasing"]
    assert meds[-1] < 0.1
    assert lt_mean > 0


def test_criterion_6_smooth_fit_scenario():
    _, parts = build_parts("smooth_fit_sqrt_surface")
    # fx_jump identically zero on a test grid, to 1e-9
    tt, aa = np.meshgrid(np.linspace(0, 1, 20), np.linspace(0.5, 3.0, 20),
                         indexing="ij")
    from ltsurf.formulas import fx_jump
    gap = float(np.max(np.abs(fx_jump(parts.psf, tt, aa))))
    cfg = ScenarioConfig(scenario="smooth_fit_sqrt_surface", n_paths=1000,
                         seed=21, workers=WORKERS)
    table = convergence_study(cfg, [1e-2, 1e-3, 1e-4])
    meds = [r["median_abs_residual"] for r in table["rows"]]
    report = run_scenario(ScenarioConfig(scenario="smooth_fit_sqrt_surface",
                                         dt=1e-2, n_paths=1, seed=1))
    no_lt = "local_time" not in report.term_names
    ok = gap < 1e-9 and table["monotone_nonincreasing"] and meds[-1] < 0.1 and no_lt
    _line("criterion 6", ok,
          f"fx gap {gap:.1e}; medians {', '.join(f'{m:.4f}' for m in meds)}; "
          f"local-time term absent {no_lt}")
    assert gap < 1e-9
    assert table["monotone_nonincreasing"]
    assert meds[-1] < 0.1
    assert no_lt


def test_criterion_7_general_formula_coherence(tmp_path):
    kw = dict(t_end=1.0, dt=4e-5, n_paths=400, seed=5, bandwidth_rule=0.01,
              workers=WORKERS)
    sg = _per_path(ScenarioConfig(scenario="peskir_diffusion", variant="general",
                                  output=str(tmp_path / "general"), **kw))
    sp = _per_path(ScenarioConfig(scenario="peskir_diffusion",
                                  output=str(tmp_path / "default"), **kw))
    mapping = [("h_dlambda", "generator_time_integral"),
               ("fx_dM", "sigma_fx_brownian"),
               ("local_time", "local_time")]
    worst = 0.0
    for g, p in mapping:
        diffs = [abs(rg[f"term_{g}"] - rp[f"term_{p}"]) for rg, rp in zip(sg, sp)]
        worst = max(worst, float(np.median(diffs)))
    # jump terms: both scenarios are continuous, so the general report's
    # jump compensation must vanish identically
    jump_med = float(np.median([abs(r["term_jump_compensation"]) for r in sg]))
    ok = worst < 0.05 and jump_med == 0.0
    _line("criterion 7", ok,
          f"worst term-wise median discrepancy {worst:.4f}")
    assert worst < 0.05
    assert jump_med == 0.0


def test_criterion_8_occupation_time_formula():
    _, parts = build_parts("tanaka_bm")
    errs = []
    for i in range(100):
        b = simulate_jump_diffusion(parts.spec, 1.0, 10000,
                                    derive_path_seed(3, i))
        levels = np.linspace(b.x_path.min() - 0.02, b.x_path.max() + 0.02, 200)
        lhs, rhs, _ = occupation_formula_check(
            b, lambda x: np.ones_like(x), levels, eps=0.01)
        errs.append(abs(lhs - rhs) / 1.0)  # oracle: [B,B]_1 = 1
    mean_err = float(np.mean(errs))
    ok = mean_err < 0.05
    _line("criterion 8", ok, f"mean |lhs-rhs|/t {100 * mean_err:.2f}%")
    assert ok


def test_criterion_9_moreau_envelope_suite():
    box = ((-2.0, 3.0), (-3.0, 3.0))
    ts = np.linspace(0.0, 1.0, 20)
    as_ = np.linspace(-1.0, 1.0, 20)
    tt, aa = np.meshgrid(ts, as_, indexing="ij")
    ms = [1.0, 10.0, 100.0, 1000.0, 10000.0]
    for name in ("abs", "quad", "sqrt"):
        surf = SURFACES[name]
        bvals = surf.b(tt, aa)
        prev = None
        for m in ms:
            vals = moreau_envelope(surf, m, (tt, aa), box)
            assert np.all(vals <= bvals + 1e-9), f"envelope above b for {name}"
            if prev is not None:
                assert np.all(vals >= prev), f"not monotone in m for {name}"
            prev = vals
    # b = |a|: sup-gap and empirical Lipschitz constant at m = 1e4
    grid = np.linspace(-1.0, 1.0, 41)
    env = moreau_envelope(SURFACES["abs"], 1e4, (np.full_like(grid, 0.5), grid), box)
    sup_gap = float(np.max(np.abs(grid) - env))
    lip = float(np.max(np.abs(np.diff(env)) / np.diff(grid)))
    ok = sup_gap < 1e-3 and lip <= 1.0 + 1e-6
    _line("criterion 9", ok, f"sup-gap {sup_gap:.1e}, Lipschitz {lip:.8f}")
    assert sup_gap < 1e-3
    assert lip <= 1.0 + 1e-6


def test_criterion_10_degenerate_exactness(tmp_path):
    worst = 0.0
    for name in ("exact_drift", "exact_drift_jump"):
        _, parts = build_parts(name)
        for variant in parts.variants:
            cfg = ScenarioConfig(scenario=name, dt=1e-3, n_paths=20, seed=3,
                                 variant=variant, output=str(tmp_path / name / variant))
            worst = max(worst, max(abs(r["residual"]) for r in _per_path(cfg)))
    ok = worst < 1e-10
    _line("criterion 10", ok, f"worst per-path |residual| {worst:.2e}")
    assert ok


def test_criterion_11_determinism_parallel_invariance(tmp_path):
    blobs = []
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        cfg = ScenarioConfig(scenario="glued_quadratic_jump", dt=1e-3,
                             n_paths=30, seed=9, workers=workers,
                             output=str(out))
        run_scenario(cfg)
        blobs.append((out / "verify.csv").read_bytes()
                     + (out / "summary.json").read_bytes())
    ok = blobs[0] == blobs[1]
    _line("criterion 11", ok, "bit-identical CSV+JSON across worker counts")
    assert ok


# Convergence rates: the slope of log10 median |residual| per decade of dt
# over dt = 1e-2, 1e-3, 1e-4.  A missing O(1) term would flatten it to 0,
# which the monotone checks above do not catch.  Smooth F converges like
# dt^(1/2); a local-time identity like dt^(1/4), the error of the left-point
# sgn sum (Jacod 1998).  At seed 7 the slopes are 0.50-0.52 and 0.24-0.33;
# seeds 3 and 101, unseen while the bands were set, gave 0.50-0.52 and
# 0.18-0.35.
RATE_BANDS = {
    **dict.fromkeys([("smooth_quadratic", "ltc_diffusion"),
                     ("smooth_fit_sqrt_surface", "smooth_fit")], (0.4, 0.6)),
    **dict.fromkeys([("tanaka_bm", "tanaka"), ("tanaka_bm", "ltc_diffusion"),
                     ("peskir_diffusion", "ltc_diffusion"), ("peskir_diffusion", "general"),
                     ("glued_quadratic_jump", "jump_ltc"),
                     ("glued_quadratic_jump", "surfaces_strong")], (0.15, 0.4)),
}


@pytest.mark.parametrize("name, variant", list(RATE_BANDS))
def test_convergence_rate(name, variant):
    dts = [1e-2, 1e-3, 1e-4]
    cfg = ScenarioConfig(scenario=name, variant=variant, n_paths=400, seed=7,
                         workers=WORKERS)
    meds = [r["median_abs_residual"] for r in convergence_study(cfg, dts)["rows"]]
    slope = np.polyfit(np.log10(dts), np.log10(meds), 1)[0]
    lo, hi = RATE_BANDS[name, variant]
    ok = lo <= slope <= hi
    _line(f"rate {name}/{variant}", ok, f"slope {slope:.3f} per decade, band [{lo}, {hi}]")
    assert ok, f"medians {meds}"


# Mean-zero martingale terms.  Each summand of a left-point Ito sum is an
# adapted integrand times sigma dB_k, or times a jump of Y, and dB_k (a
# symmetric jump of Y, independent of the state) is independent of
# everything before step k.  Under the Euler scheme such a term therefore has
# mean exactly zero at every dt, and its ensemble mean over its standard error
# is a z-score with no discretisation bias.  A look-ahead bug (an integrand
# read at the step end, or at X rather than its left limit at a jump) gives
# the term a nonzero mean that neither the medians nor the rates can see at a
# fixed dt: with a right-point integrand, smooth_quadratic's Brownian term has
# mean 2 sigma^2 T = 2 against a standard error of about 0.014.  |z| < 4.5
# bounds all seven cases at once.  Every scenario draws its Brownian
# increments from the same child seeds, so the z-scores of one seed are
# correlated.
MEAN_ZERO_TERMS = [
    ("tanaka_bm", "tanaka", "sgn_stochastic_integral"),
    ("smooth_quadratic", "ltc_diffusion", "sigma_fx_brownian"),
    ("peskir_diffusion", "ltc_diffusion", "sigma_fx_brownian"),
    ("glued_quadratic_jump", "jump_ltc", "sigma_fx_brownian"),
    ("smooth_fit_sqrt_surface", "smooth_fit", "sigma_fx_brownian"),
    ("peskir_diffusion", "general", "fx_dM"),
    ("smooth_fit_sqrt_surface", "smooth_fit", "lambda_fx_dY"),
]
MEAN_ZERO_SEED = 17
MEAN_ZERO_BOUND = 4.5


@functools.lru_cache(maxsize=None)
def _mean_zero_stats(name, variant):
    cfg = ScenarioConfig(scenario=name, variant=variant, dt=1e-2, n_paths=10000,
                         seed=MEAN_ZERO_SEED, workers=WORKERS)
    return run_scenario(cfg).term_stats


@pytest.mark.parametrize("name, variant, term", MEAN_ZERO_TERMS,
                         ids=["/".join(c) for c in MEAN_ZERO_TERMS])
def test_martingale_term_has_mean_zero(name, variant, term):
    stats = _mean_zero_stats(name, variant)[term]
    z = stats["mean"] / stats["se"]
    ok = abs(z) < MEAN_ZERO_BOUND
    _line(f"mean zero {name}/{variant}/{term}", ok,
          f"z {z:+.2f} (mean {stats['mean']:.3e}, se {stats['se']:.3e}), bound {MEAN_ZERO_BOUND}")
    assert ok
