"""Benchmark workloads: inputs made from the workload seed, the CLI
operations run on them, and the check each operation's output must pass.

A workload is a cycle of rounds, ``rounds[r]`` being the operations of
round r; the first ``timed`` rounds are the ones repeated for timing. A
round is one pass over the workload's inputs and is fully determined by
(seed, r), so the operations, their outputs and every traced count repeat
exactly for a fixed seed. Classes are counted per input within a round: a
class is a pair (vol within 1e-6, cs equal mod pi^2), read from the
``--json`` report.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from diagrams import braid_closure_pd, torus_2n_pd

# Volumes a round of solve-goldens must find, per diagram.
FIG8_VOL = 2.0298832128193072
WHITEHEAD_VOL = 3.6638623767088760
VOL_TOL = 1e-6
RESIDUAL_MAX = 1e-9


def count_classes(points, mod_pi2_equal):
    """Number of distinct classes among complex(cs, vol) points: vol within
    1e-6 and cs equal mod pi^2, so cs = 0 and cs = pi^2 are one class."""
    reps = []
    for z in points:
        if not any(mod_pi2_equal(z, r, VOL_TOL) for r in reps):
            reps.append(z)
    return len(reps)


@dataclass
class Op:
    key: str                 # the input; classes are counted per key
    argv: list
    check: object            # report -> (error message or None, points)


def _c(z):
    z = complex(z)
    return f"{z.real!r}{z.imag:+}i"


def _filling(slopes):
    parts = []
    for sl in slopes:
        if sl is None:
            parts.append("inf")
        else:
            parts.append(str(sl[0]) if sl[1] == 1 else f"{sl[0]}/{sl[1]}")
    return ",".join(parts)


def _rep_doc(matrices):
    return {"generators": {
        g: [[z.real, z.imag] for z in np.asarray(m, dtype=complex).ravel()]
        for g, m in matrices.items()}}


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class FromRep:
    """from-rep on the three goldens: each round runs every golden once
    with its pinned coloring and ``colorings`` times with random generic
    colorings whose --rng-seed values come from (seed, round)."""

    name = "from-rep"
    cycle = 8
    timed = 8
    colorings = 8

    def __init__(self, seed, workdir, lv):
        self.seed = seed
        self.lv = lv
        self.report = os.path.join(workdir, "report.json")
        self.goldens = []
        for i, ex in enumerate(lv._examples.all_golden()):
            pd = os.path.join(workdir, f"golden{i}.pd")
            rep = os.path.join(workdir, f"golden{i}.rep.json")
            _write(pd, ex.pd + "\n")
            _write(rep, json.dumps(_rep_doc(ex.seed_matrices)))
            base = ["from-rep", pd, rep, f"--filling={_filling(ex.slopes)}",
                    "--json", self.report]
            pinned = base + [
                "--seedV", ",".join(_c(z) for z in ex.seedV),
                "--W", ",".join(_c(z) for z in ex.auxW),
                "--seed-region", str(ex.seed_region + 1)]
            self.goldens.append((ex, base, pinned))
        self.rounds = [self._round_ops(r) for r in range(self.cycle)]
        self.warmup = [Op(ex.name, pinned, self._check(ex, True))
                       for ex, _base, pinned in self.goldens]

    def _check(self, ex, pinned):
        mod_pi2_equal = self.lv.numerics.mod_pi2_equal

        def check(report):
            sol = report["solution"]
            w0 = complex(*sol["W0"])
            if pinned:
                dev = abs(w0 - ex.regression_W0)
                ok = dev <= 1e-9
                why = f"|W0 - regression_W0| = {dev:.3g} > 1e-9"
            else:
                ok = mod_pi2_equal(w0, ex.regression_W0, 1e-4)
                why = f"W0 {w0} differs from {ex.regression_W0} mod pi^2"
            return (None if ok else f"{ex.name}: {why}",
                    [complex(sol["cs"], sol["vol"])])
        return check

    def _round_ops(self, r):
        rng = np.random.default_rng([self.seed, r])
        ops = []
        for ex, base, pinned in self.goldens:
            ops.append(Op(ex.name, pinned, self._check(ex, True)))
            for s in rng.integers(0, 2 ** 31 - 1, size=self.colorings):
                ops.append(Op(ex.name, base + ["--rng-seed", str(int(s))],
                              self._check(ex, False)))
        return ops


class Solve:
    """solve at parabolic meridians (m = 1 on every component), one
    operation per diagram per round; round r uses an --rng-seed drawn from
    (seed, r)."""

    def __init__(self, name, seed, workdir, lv, diagrams, seeds, cycle,
                 timed, required=None):
        self.name = name
        self.cycle = cycle
        self.timed = timed
        self.report = os.path.join(workdir, "report.json")
        required = required or {}
        rng_seeds = np.random.default_rng(seed).integers(0, 2 ** 31 - 1,
                                                         size=cycle)
        self.rounds = [[] for _ in range(cycle)]
        self.warmup = []
        for i, (key, pd) in enumerate(diagrams):
            n_comp = lv.diagram.load_diagram(pd).n_components
            path = os.path.join(workdir, f"diagram{i}.pd")
            _write(path, pd + "\n")
            m = ",".join(["1+0i"] * n_comp)
            for r, rng_seed in enumerate(rng_seeds):
                self.rounds[r].append(self._op(key, path, m, seeds, rng_seed,
                                               required.get(key, ())))
            self.warmup.append(self._op(key, path, m, 1, 0, ()))

    def _check(self, key, required):
        def check(report):
            points = []
            for k, sol in enumerate(report["solutions"]):
                vol, cs = sol["vol"], sol["cs"]
                if not (math.isfinite(vol) and math.isfinite(cs)):
                    return f"{key}: solution {k + 1} is not finite", points
                if not sol["residual_max"] <= RESIDUAL_MAX:
                    return (f"{key}: solution {k + 1} has residual "
                            f"{sol['residual_max']:.3g}"), points
                points.append(complex(cs, vol))
            for vol in required:
                if not any(abs(abs(z.imag) - vol) <= VOL_TOL
                           for z in points):
                    return f"{key}: no class with vol +-{vol}", points
            return None, points
        return check

    def _op(self, key, path, m, seeds, rng_seed, required):
        argv = ["solve", path, "--m", m, "--seeds", str(seeds),
                "--rng-seed", str(int(rng_seed)), "--json", self.report]
        return Op(key, argv, self._check(key, required))


def solve_goldens(seed, workdir, lv):
    ex = lv._examples
    return Solve("solve-goldens", seed, workdir, lv,
                 [("figure-eight", ex.FIG8_PD),
                  ("Whitehead", ex.WHITEHEAD_PD),
                  ("trefoil", ex.TREFOIL_PD)],
                 seeds=64, cycle=10, timed=3,
                 required={"figure-eight": (FIG8_VOL,),
                           "Whitehead": (WHITEHEAD_VOL,)})


FAMILY = (
    [(f"(s1 s2^-1)^{k}", braid_closure_pd(3, [1, -2] * k))
     for k in (3, 4, 5, 6, 8)]
    + [("(s1 s2^-1 s3)^3", braid_closure_pd(4, [1, -2, 3] * 3)),
       ("T(2,9)", torus_2n_pd(9)),
       ("T(2,25)", torus_2n_pd(25))])


def solve_family(seed, workdir, lv):
    return Solve("solve-family", seed, workdir, lv, FAMILY, seeds=32,
                 cycle=8, timed=2)


def generator_self_check(workdir, lv):
    """(s1 s2^-1)^2 is the figure-eight knot: it must load with 4 crossings
    and 6 regions, and solving it must find vol +-2.029883. Returns an
    error message or None, and the solve operation to run and check."""
    pd = braid_closure_pd(3, [1, -2, 1, -2])
    d = lv.diagram.load_diagram(pd)
    if (d.n_crossings, d.n_regions) != (4, 6):
        return (f"braid closure (s1 s2^-1)^2 loads with {d.n_crossings} "
                f"crossings and {d.n_regions} regions, not 4 and 6"), None
    check = Solve("self-check", 0, workdir, lv, [("(s1 s2^-1)^2", pd)],
                  seeds=16, cycle=1, timed=1,
                  required={"(s1 s2^-1)^2": (FIG8_VOL,)})
    return None, check.rounds[0][0]


WORKLOADS = {"from-rep": FromRep, "solve-goldens": solve_goldens,
             "solve-family": solve_family}
