"""The benchmark's workloads: each one is a single `ltsurf` CLI command.

A workload turns the benchmark seed into the command's arguments. The
path workloads pass the seed on as `--seed`; `envelope` has no seed flag,
so the seed draws its penalty parameters instead.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # verify | localtime | envelope
    size: int  # paths, or the envelope's grid_n
    scenario: str = ""
    dt: float = 0.0
    extra: tuple = ()
    # workers of the extra untraced calls a traced run makes to measure the
    # process pool; 0 for none. Timed runs always use one worker.
    pool_workers: int = 0

    def m_values(self, seed):
        """Envelope penalties, one per decade: 10**(k + u_k), u_k ~ U(0, 1)."""
        u = np.random.default_rng(seed).random(4)
        return [float(10.0 ** (k + u[k])) for k in range(4)]

    def argv(self, seed, out_dir, workers=1):
        if self.command == "envelope":
            m = ",".join(repr(v) for v in self.m_values(seed))
            return ["envelope", "--surface", "abs", "--m", m,
                    "--grid-n", str(self.size), "--out", out_dir]
        argv = [self.command, "--scenario", self.scenario, "--dt", repr(self.dt),
                "--paths", str(self.size), "--seed", str(seed),
                "--workers", str(workers)]
        argv += list(self.extra)
        if self.command == "verify":
            argv += ["--out", out_dir]
        return argv

    @property
    def ops(self):
        """Operations per call: paths, or envelope queries."""
        if self.command == "envelope":
            return 4 * self.size * self.size
        return self.size


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# TRACED holds every workload a traced run traces; WORKLOADS, the ones the
# benchmark also times. `estimators` is traced only: see README.md.
TRACED = {
    w.name: w for w in [
        Workload(
            name="tanaka_fine", command="verify", scenario="tanaka_bm",
            dt=1e-4, size=400),
        Workload(
            name="jump_coarse", command="verify",
            scenario="glued_quadratic_jump", dt=1e-2, size=1000),
        Workload(
            name="estimators", command="localtime",
            scenario="peskir_diffusion", dt=1e-3, size=1000,
            extra=("--qv", "realized"), pool_workers=2),
        Workload(
            name="envelope", command="envelope", size=20),
    ]
}
WORKLOADS = {name: w for name, w in TRACED.items() if name != "estimators"}
