"""Output checks run on every benchmark call.

Each check returns a `Check`: whether the outputs are correct, what was
wrong, a sha256 digest of each output (so byte identity across commits
can be read off any run), the bytes written and the workload's accuracy
figure. Only the standard library is used, so the checks do not share
code with the program they check.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

# Largest objective error of `moreau_envelope`'s final search round on the
# `abs` surface is about 2.5e-6 (two final grid spacings of 1.25e-6 at the
# kink); the tolerance allows four times that.
ENVELOPE_TOL = 1e-5
ENVELOPE_ABOVE_B_TOL = 1e-9


@dataclass
class Check:
    ok: bool = True
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    output_bytes: int = 0
    accuracy: dict = field(default_factory=dict)

    def fail(self, message):
        self.ok = False
        if len(self.problems) < 5:
            self.problems.append(message)


def _read(path, check):
    with open(path, "rb") as fh:
        data = fh.read()
    check.digests[os.path.basename(path)] = hashlib.sha256(data).hexdigest()
    check.output_bytes += len(data)
    return data.decode()


def _finite_floats(cells, check, where):
    try:
        values = [float(c) for c in cells]
    except ValueError:
        check.fail(f"{where}: unparsable number")
        return None
    if not all(math.isfinite(v) for v in values):
        check.fail(f"{where}: non-finite value")
        return None
    return values


def check_verify(out_dir, n_paths, stdout=""):
    """verify.csv: one row per path, finite values, rhs the left-to-right
    sum of the term columns and residual = lhs - rhs, both bit for bit."""
    check = Check(output_bytes=len(stdout.encode()))
    try:
        lines = _read(os.path.join(out_dir, "verify.csv"), check).splitlines()
        summary = json.loads(_read(os.path.join(out_dir, "summary.json"), check))
    except (OSError, ValueError) as exc:
        check.fail(f"missing or unreadable output: {exc}")
        return check
    header = lines[0].split(",")
    rows = lines[1:]
    n_terms = len(header) - 4
    if (header[:2] != ["path_id", "lhs"] or header[-2:] != ["rhs", "residual"]
            or n_terms < 1 or not all(h.startswith("term_") for h in header[2:-2])):
        check.fail(f"unexpected header: {lines[0]}")
        return check
    if len(rows) != n_paths:
        check.fail(f"{len(rows)} rows, expected {n_paths}")
    for i, row in enumerate(rows):
        cells = row.split(",")
        if len(cells) != len(header):
            check.fail(f"row {i}: {len(cells)} cells")
            continue
        if cells[0] != str(i):
            check.fail(f"row {i}: path_id {cells[0]!r}")
        values = _finite_floats(cells[1:], check, f"row {i}")
        if values is None:
            continue
        lhs, terms, rhs, residual = values[0], values[1:-2], values[-2], values[-1]
        total = 0.0
        for term in terms:
            total += term
        if total != rhs:
            check.fail(f"row {i}: rhs is not the sum of the terms")
        if lhs - rhs != residual:
            check.fail(f"row {i}: residual is not lhs - rhs")
    try:
        check.accuracy["abs_residual_median"] = float(
            summary["residual_stats"]["abs_median"])
    except (KeyError, TypeError, ValueError):
        check.fail("summary.json has no residual_stats.abs_median")
    return check


ESTIMATORS = ("occupation", "mollifier", "tanaka")


def check_localtime(stdout):
    """The printed estimator means are finite and positive."""
    check = Check(output_bytes=len(stdout.encode()))
    check.digests["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    try:
        stats = json.loads(stdout)
        means = [float(stats[name]["mean"]) for name in ESTIMATORS]
    except (ValueError, KeyError, TypeError) as exc:
        check.fail(f"unreadable estimator output: {exc}")
        return check
    if not all(math.isfinite(m) and m > 0 for m in means):
        check.fail(f"estimator means not finite and positive: {means}")
        return check
    check.accuracy["estimator_spread"] = max(
        abs(a - b) / min(a, b)
        for k, a in enumerate(means) for b in means[k + 1:])
    return check


def huber(a, m):
    """Moreau envelope of |a| with penalty (m/2)|.|^2."""
    a = abs(a)
    return 0.5 * m * a * a if a <= 1.0 / m else a - 0.5 / m


def check_envelope(out_dir, m_values, grid_n, stdout=""):
    """envelope.csv: every (m, t, a) query once, each value at most b and
    within ENVELOPE_TOL of the exact Huber envelope."""
    check = Check(output_bytes=len(stdout.encode()))
    try:
        lines = _read(os.path.join(out_dir, "envelope.csv"), check).splitlines()
    except OSError as exc:
        check.fail(f"missing output: {exc}")
        return check
    if lines[0] != "m,t,a,envelope,b":
        check.fail(f"unexpected header: {lines[0]}")
        return check
    rows = lines[1:]
    expected = len(m_values) * grid_n * grid_n
    if len(rows) != expected:
        check.fail(f"{len(rows)} rows, expected {expected}")
    max_err = 0.0
    for i, row in enumerate(rows):
        values = _finite_floats(row.split(","), check, f"row {i}")
        if values is None or len(values) != 5:
            check.fail(f"row {i}: malformed")
            continue
        m, _, a, env, b = values
        if env > b + ENVELOPE_ABOVE_B_TOL:
            check.fail(f"row {i}: envelope {env!r} above b {b!r}")
        err = abs(env - huber(a, m))
        if err > ENVELOPE_TOL:
            check.fail(f"row {i}: envelope off Huber by {err:.3g}")
        max_err = max(max_err, err)
    if rows and sorted({float(r.split(",")[0]) for r in rows}) != sorted(m_values):
        check.fail("penalty parameters differ from the requested ones")
    check.accuracy["envelope_max_err"] = max_err
    return check
