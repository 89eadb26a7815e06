"""The four benchmark workloads: inputs from a seed, operations, checks.

A workload is built from the wcwork modules and a seed; building it is the
set-up the benchmark times.  ``operations()`` lists the fixed batch run in
every round, each an ``Op`` whose function receives the outputs of the
earlier operations of the round.  ``references()`` computes, once and apart
from wcwork (see ``reference.py``), what the outputs are checked against, and
``check(outputs, refs)`` returns the problems found, keyed by operation
label.  ``check`` is a pure function of its arguments, so ``selftest.py``
can hand it perturbed outputs.

Known faults: an operation with ``known_fault`` set exercises a fault in
wcwork that is not mended yet.  When its check fails it is counted as
failed; any other operation whose check fails makes the run incorrect.
"""

import io
import itertools
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import reference as ref

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Op:
    label: str
    fn: object  # fn(outputs so far) -> output
    known_fault: str = None
    cli: bool = False  # output is a CliRun whose stdout counts as CLI output


@dataclass(frozen=True)
class CliRun:
    code: int
    out: str
    err: str


def run_cli(wc, path):
    """One in-process CLI invocation with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = wc.cli.main(["--config", path])
    return CliRun(code, out.getvalue(), err.getvalue())


class Workload:
    """Holds the config files that a workload's CLI operations read.

    ``config`` only renders a file; ``write_files`` writes them all.  The
    benchmark times building a workload as set-up but writes the files
    apart: that is the benchmark's own disk I/O, which no change to wcwork
    can alter, and on a shared disk its time varies twofold for the same
    bytes.
    """

    def __init__(self, wc, workdir):
        self.wc = wc
        self.workdir = workdir
        self.files = {}

    def config(self, name, doc):
        path = os.path.join(self.workdir, name + ".json")
        self.files[path] = json.dumps(doc)
        return path

    def write_files(self):
        for path, text in self.files.items():
            with open(path, "w") as fh:
                fh.write(text)


class Problems(dict):
    """Problems found by a check, as label -> list of messages."""

    def require(self, label, ok, message):
        if not ok:
            self.setdefault(label, []).append(message)


def _close(a, b, tol):
    return abs(a - b) <= tol


def _perm_mixture(rng, d, perms):
    """Doubly stochastic matrix: a random convex mix of the permutations."""
    m = np.zeros((d, d))
    for weight, perm in zip(rng.dirichlet(np.ones(len(perms))), perms):
        m += weight * np.eye(d)[list(perm)]
    return m


# ---------------------------------------------------------------------------
# equality-many
# ---------------------------------------------------------------------------


class EqualityMany(Workload):
    """Hundreds of small discrete protocols through the CLI, four modes each.

    Shapes cycle through 2-4 levels and 1-6 steps (the protocols of the
    fluctuation-relation and equality acceptance criteria).  The structure
    of each protocol (which steps are level changes, which permutations mix
    into a jump, which levels are retained) comes from the fixed
    ``STRUCTURE_SEED``, and only the values (energies, weights, occupations)
    from the run's seed, so the number of paths and atoms, and with it the
    work per round, does not depend on the seed.
    Flat-landscape, thermalization-only protocols with a partial-support
    start and the retained set equal to the support are mixed in.
    """

    name = "equality-many"
    RANDOM_COPIES = 10  # of each of the 18 (levels, steps) shapes
    FLAT_COPIES = 4  # of each of the 9 flat (levels, steps) shapes
    TAIL_EPS = (0.1, 0.3)
    STRUCTURE_SEED = 2024

    def __init__(self, wc, seed, workdir):
        super().__init__(wc, workdir)
        form = np.random.default_rng(self.STRUCTURE_SEED)
        rng = np.random.default_rng([seed, 1])
        self.cases = []
        shapes = [(d, n) for d in (2, 3, 4) for n in range(1, 7)]
        for copy in range(self.RANDOM_COPIES):
            for d, n in shapes:
                self.cases.append(self._random_case(form, rng, d, n, copy))
        for copy in range(self.FLAT_COPIES):
            for d, n in [(d, n) for d in (2, 3, 4) for n in (1, 2, 3)]:
                self.cases.append(self._flat_case(form, rng, d, n, copy))
        for k, case in enumerate(self.cases):
            base = {"levels": case["levels"], "steps": case["steps"]}
            case["paths"] = {
                "equality": self.config(f"c{k}-equality", dict(
                    base, mode="equality", rho0=case["rho0"],
                    in_levels=case["in_levels"])),
                "tail": self.config(f"c{k}-tail", dict(
                    base, mode="equality", rho0=case["rho0"],
                    in_levels=case["in_levels"], eps=case["eps"])),
                "crooks": self.config(f"c{k}-crooks", dict(
                    base, mode="crooks",
                    rho0=ref.gibbs(case["levels"])[0].tolist())),
                "enumerate": self.config(f"c{k}-enumerate", dict(
                    base, mode="enumerate", rho0=case["rho0"])),
            }

    def _random_case(self, form, rng, d, n_steps, copy):
        levels = rng.normal(size=d)
        current = levels
        steps = []
        for _ in range(n_steps):
            if form.random() < 0.5:
                current = rng.normal(size=d)
                perms = [form.permutation(d).tolist() for _ in range(5)]
                steps.append({"type": "change", "levels": current.tolist(),
                              "jump": _perm_mixture(rng, d, perms).tolist()})
            else:
                hop = ref.partial_swap_hop(current, float(rng.random()))
                steps.append({"type": "thermalize", "hop": hop.tolist()})
        n_in = int(form.integers(1, d + 1))
        return {
            "levels": levels.tolist(), "steps": steps,
            "rho0": rng.dirichlet(np.ones(d)).tolist(),
            "in_levels": sorted(form.permutation(d)[:n_in].tolist()),
            "eps": self.TAIL_EPS[copy % 2], "flat": False,
        }

    def _flat_case(self, form, rng, d, n_steps, copy):
        steps = []
        for k in range(n_steps):
            if (k + copy) % 2:
                steps.append({"type": "thermalize", "full": True})
            else:
                hop = ref.partial_swap_hop(np.zeros(d), float(rng.random()))
                steps.append({"type": "thermalize", "hop": hop.tolist()})
        k = int(form.integers(1, d + 1))
        support = sorted(form.permutation(d)[:k].tolist())
        rho0 = np.zeros(d)
        rho0[support] = rng.dirichlet(np.ones(k))
        return {
            "levels": [0.0] * d, "steps": steps, "rho0": rho0.tolist(),
            "in_levels": support, "eps": self.TAIL_EPS[copy % 2], "flat": True,
        }

    def operations(self):
        wc = self.wc
        ops = []
        for k, case in enumerate(self.cases):
            for mode, path in case["paths"].items():
                ops.append(Op(f"{k}.{mode}", lambda _, p=path: run_cli(wc, p),
                              cli=True))
        return ops

    def references(self):
        refs = []
        for case in self.cases:
            rho0 = case["rho0"]
            z0 = ref.gibbs(case["levels"])[1]
            zf = ref.gibbs(ref.final_levels(case))[1]
            refs.append({
                "w0_in": ref.brute_force_max_work(case, rho0, case["in_levels"]),
                "mild": ref.mild_assumption(case, rho0, case["in_levels"]),
                "mean": ref.forward_mean_work(case, rho0),
                "log_z_ratio": math.log(zf / z0),
                "flat_optimum": (math.log(len(rho0))
                                 - math.log(sum(p > 0 for p in rho0))
                                 if case["flat"] else None),
            })
        return refs

    def check(self, outputs, refs):
        bad = Problems()
        for k, (case, r) in enumerate(zip(self.cases, refs)):
            runs = {mode: outputs[f"{k}.{mode}"] for mode in case["paths"]}
            for mode, run in runs.items():
                bad.require(f"{k}.{mode}", run.code == 0,
                            f"exit {run.code}: {run.err.strip()}")
            if any(run.code != 0 for run in runs.values()):
                continue
            self._check_equality(bad, k, case, r, json.loads(runs["equality"].out),
                                 json.loads(runs["tail"].out))
            crooks = json.loads(runs["crooks"].out)
            label = f"{k}.crooks"
            bad.require(label, crooks["max_crooks_residual"] < 1e-10,
                        f"Crooks residual {crooks['max_crooks_residual']:.3g}")
            bad.require(label, crooks["jarzynski_residual"] < 1e-10,
                        f"Jarzynski residual {crooks['jarzynski_residual']:.3g}")
            bad.require(label, _close(crooks["log_z_ratio"], r["log_z_ratio"], 1e-12),
                        "log Zf/Z0 differs from the Gibbs sums")
            header, rows = ref.parse_csv(runs["enumerate"].out)
            label = f"{k}.enumerate"
            p_sum = sum(p for _, p in rows)
            mean = sum(w * p for w, p in rows)
            bad.require(label, header == "w,p" and abs(p_sum - 1.0) < 1e-12,
                        f"probabilities sum to {p_sum!r}")
            bad.require(label, _close(mean, r["mean"], 1e-10),
                        f"mean work {mean!r}, forward propagation {r['mean']!r}")
        return bad

    @staticmethod
    def _check_equality(bad, k, case, r, eq, tail):
        label = f"{k}.equality"
        bad.require(label, eq["mild_assumption_ok"] == r["mild"],
                    f"mild assumption reported {eq['mild_assumption_ok']}")
        bad.require(label, _close(eq["w0_in"], r["w0_in"], 1e-9),
                    f"w0_in {eq['w0_in']!r}, path walk {r['w0_in']!r}")
        if r["mild"]:
            bad.require(label, eq["residual"] < 1e-9,
                        f"equality residual {eq['residual']:.3g}")
            bad.require(f"{k}.tail", tail["residual"] < 1e-9,
                        f"tail-equality residual {tail['residual']:.3g}")
        if r["flat_optimum"] is not None:
            bad.require(label, _close(eq["optimum"], r["flat_optimum"], 1e-12),
                        f"optimum {eq['optimum']!r}, log d - log|supp| "
                        f"{r['flat_optimum']!r}")
        bad.require(f"{k}.tail", tail["eps"] == case["eps"],
                    f"tolerance {tail['eps']!r}")


# ---------------------------------------------------------------------------
# equality-deep
# ---------------------------------------------------------------------------


class EqualityDeep(Workload):
    """A few long protocols through the library: millions of paths each.

    The step patterns are fixed ("C" a level change with a dense jump, "T" a
    partial thermalization), so the path and atom counts are too:
    d^(steps+1) paths, and d^2 (d^2 - d + 1)^(changes - 1) distinct work
    values when a thermalization separates every two changes.  One level is
    outside the retained set and carries 0.5-2 % of the occupation.
    """

    name = "equality-deep"
    PROTOCOLS = (
        # (levels, pattern): 3^13 paths and 3,087 atoms; 4^10 paths, 208 atoms
        (3, "CTTCTTCTTCTT"),
        (4, "CTTTCTTTT"),
    )
    TAIL_EPS = 0.1

    def __init__(self, wc, seed, workdir):
        super().__init__(wc, workdir)
        rng = np.random.default_rng([seed, 2])
        self.cases = []
        for d, pattern in self.PROTOCOLS:
            cfg = self._config(rng, d, pattern)
            p_out = float(rng.uniform(0.005, 0.02))
            rho0 = np.concatenate([[p_out],
                                   rng.dirichlet(np.ones(d - 1)) * (1 - p_out)])
            in_levels = list(range(1, d))
            m = wc.model
            steps = []
            for step in cfg["steps"]:
                if step["type"] == "change":
                    steps.append(m.HamiltonianChange(
                        target=m.EnergyLandscape(np.array(step["levels"])),
                        jump=np.array(step["jump"])))
                else:
                    steps.append(m.Thermalization(hop=np.array(step["hop"])))
            self.cases.append({
                "cfg": cfg, "rho0": rho0, "in_levels": in_levels,
                "protocol": m.Protocol(
                    initial=m.EnergyLandscape(np.array(cfg["levels"])),
                    beta=1.0, steps=tuple(steps)),
                "state": m.DiagonalState(rho0),
                "partition": m.LevelPartition(in_set=frozenset(in_levels), d=d),
            })

    @staticmethod
    def _config(rng, d, pattern):
        levels = rng.normal(size=d)
        current = levels
        steps = []
        all_perms = list(itertools.permutations(range(d)))
        for kind in pattern:
            if kind == "C":
                current = rng.normal(size=d)
                steps.append({"type": "change", "levels": current.tolist(),
                              "jump": _perm_mixture(rng, d, all_perms).tolist()})
            else:
                hop = ref.partial_swap_hop(current, float(rng.uniform(0.2, 0.8)))
                steps.append({"type": "thermalize", "hop": hop.tolist()})
        return {"levels": levels.tolist(), "steps": steps}

    def operations(self):
        wc = self.wc
        ops = []
        for k, case in enumerate(self.cases):
            prot, rho0, part = case["protocol"], case["state"], case["partition"]

            def forward(_, prot=prot):
                gamma0, z0 = wc.model.make_thermal_state(prot.initial, prot.beta)
                return wc.engine.work_distribution(prot, gamma0), z0

            def reverse(_, prot=prot):
                gamma_f, z_f = wc.model.make_thermal_state(prot.final_landscape,
                                                           prot.beta)
                rev = wc.model.reverse_protocol(prot)
                return wc.engine.work_distribution(rev, gamma_f), z_f

            ops += [
                Op(f"{k}.forward", forward),
                Op(f"{k}.reverse", reverse),
                Op(f"{k}.crooks", lambda out, k=k: wc.engine.crooks_residual(
                    out[f"{k}.forward"][0], out[f"{k}.reverse"][0],
                    out[f"{k}.forward"][1], out[f"{k}.reverse"][1], 1.0)),
                Op(f"{k}.jarzynski", lambda out, k=k: wc.engine.jarzynski_sum(
                    out[f"{k}.forward"][0], 1.0)),
                Op(f"{k}.equality", lambda _, a=(rho0, prot, part):
                   wc.singleshot.main_equality_report(*a)),
                Op(f"{k}.tail", lambda _, a=(rho0, prot, part):
                   wc.singleshot.work_tail_equality_report(*a, self.TAIL_EPS)),
                Op(f"{k}.out_of_set", lambda out, k=k, a=(rho0, prot, part):
                   wc.singleshot.out_of_set_probability(*a, out[f"{k}.tail"].w0_in)),
            ]
        return ops

    def references(self):
        refs = []
        for case in self.cases:
            cfg = case["cfg"]
            gamma0, z0 = ref.gibbs(cfg["levels"])
            gamma_f, z_f = ref.gibbs(ref.final_levels(cfg))
            refs.append({
                "forward": ref.work_atoms(cfg, gamma0),
                "reverse": ref.work_atoms(ref.reversed_config(cfg), gamma_f),
                "mean": ref.forward_mean_work(cfg, gamma0),
                "z_ratio": z_f / z0,
                "w0_in": ref.max_plus_max_work(cfg, case["rho0"], case["in_levels"]),
                "mild": ref.mild_assumption(cfg, case["rho0"], case["in_levels"]),
            })
        return refs

    def check(self, outputs, refs):
        bad = Problems()
        for k, r in enumerate(refs):
            for side in ("forward", "reverse"):
                dist = outputs[f"{k}.{side}"][0]
                problem = ref.compare_atoms(dist.atoms, r[side])
                bad.require(f"{k}.{side}", problem is None, str(problem))
            dist = outputs[f"{k}.forward"][0]
            mean = float(sum(w * p for w, p in dist.atoms))
            bad.require(f"{k}.forward", _close(mean, r["mean"], 1e-10),
                        f"mean work {mean!r}, forward propagation {r['mean']!r}")
            crooks = outputs[f"{k}.crooks"]
            bad.require(f"{k}.crooks", crooks < 1e-10, f"Crooks residual {crooks:.3g}")
            jz = outputs[f"{k}.jarzynski"]
            bad.require(f"{k}.jarzynski", _close(jz, r["z_ratio"], 1e-10),
                        f"Jarzynski sum {jz!r}, Zf/Z0 {r['z_ratio']!r}")
            eq = outputs[f"{k}.equality"]
            bad.require(f"{k}.equality", eq.mild_assumption_ok == r["mild"],
                        f"mild assumption reported {eq.mild_assumption_ok}")
            bad.require(f"{k}.equality", _close(eq.w0_in, r["w0_in"], 1e-9),
                        f"w0_in {eq.w0_in!r}, max-plus walk {r['w0_in']!r}")
            tail = outputs[f"{k}.tail"]
            if r["mild"]:
                bad.require(f"{k}.equality", eq.residual < 1e-9,
                            f"equality residual {eq.residual:.3g}")
                bad.require(f"{k}.tail", tail.residual < 1e-9,
                            f"tail-equality residual {tail.residual:.3g}")
            p_fail = outputs[f"{k}.out_of_set"]
            bad.require(f"{k}.out_of_set", 0.0 <= p_fail <= tail.tail_bound + 1e-12,
                        f"out-of-set probability {p_fail!r} above the tail "
                        f"bound {tail.tail_bound!r}")
        return bad


# ---------------------------------------------------------------------------
# ebox-crossval
# ---------------------------------------------------------------------------


class EboxCrossval(Workload):
    """The four electron-box solvers against each other on the up-down ramp,
    in the shape of the electron-box cross-validation criterion, plus the
    exponential-average identity, the partial-swap continuum limit and the
    Monte Carlo Crooks test.  The seed picks the Monte Carlo streams."""

    name = "ebox-crossval"
    N_TRAJ = 40_000
    N_STEPS = 400
    ODE_STEPS = 400
    MASTER_STEPS = 1600
    XI_GRID = (-0.5, 0.5, 1.0)
    CHAIN_STEPS = (250, 500, 1000, 2000)
    CROOKS_TRAJ = 20_000
    # bound on max |residual| / sigma over the Crooks bins; see the README
    CROOKS_SIGMAS = 5.0
    # Monte Carlo against a deterministic solver, in standard errors
    MC_SIGMAS = 5.0

    def __init__(self, wc, seed, workdir):
        super().__init__(wc, workdir)
        e = wc.ebox
        rng = np.random.default_rng([seed, 3])
        self.mc_seed, self.crooks_seed = (int(s) for s in rng.integers(0, 2**31, 2))
        self.params = e.EboxParams(gamma0=0.1, eps_c=1.0, beta=1.0)
        self.fast = e.EboxParams(gamma0=1.0, eps_c=1.0, beta=1.0)
        self.ramp = e.szilard_ramp(5.0, 1.0)
        self.knots = ([0.0, 0.5, 1.0], [0.0, 5.0, 0.0])
        self.rho0 = np.array([0.5, 0.5])
        # offset by half the per-step energy quantum, so the lattice of Monte
        # Carlo work values does not sit on bin edges
        self.w_grid = np.linspace(-5.0, 5.0, 201) + 0.0125
        self.linear = e.linear_ramp(0.0, 2.0, 1.5)
        self.plateau = e.constant_ramp(2.0, 5.0)
        self.crooks_ramp = e.linear_ramp(0.0, 2.0, 1.0)

    def operations(self):
        wc, p, ramp, rho0 = self.wc, self.params, self.ramp, self.rho0
        ops = [
            Op("mc", lambda _: wc.ebox.monte_carlo_work(
                ramp, rho0, self.N_TRAJ, self.N_STEPS, self.mc_seed, p)),
            Op("series", lambda _: wc.ebox.analytic_work_distribution(
                ramp, 3, self.w_grid, rho0, p)),
            Op("master", lambda _: wc.ebox.integrate_master(
                ramp, rho0, self.MASTER_STEPS, p)),
            Op("mean_work", lambda _: wc.ebox.mean_work(
                ramp, rho0, self.ODE_STEPS, p)),
        ]
        for xi in self.XI_GRID:
            ops.append(Op(f"charfn.{xi:g}", lambda _, xi=xi:
                          wc.ebox.characteristic_function(
                              xi, ramp, rho0, self.ODE_STEPS, p)))
        ops += [
            Op("jarzynski.linear", lambda _: wc.ebox.characteristic_function(
                -1.0, self.linear, np.array([0.5, 0.5]), self.ODE_STEPS, p)),
            Op("jarzynski.updown", lambda _: wc.ebox.characteristic_function(
                -1.0, ramp, rho0, self.ODE_STEPS, p),
               known_fault="Ramp.slope takes the right-hand slope at the "
                           "breakpoint for the RK4 stage that ends there"),
        ]
        for n in self.CHAIN_STEPS:
            ops.append(Op(f"chain.{n}", lambda _, n=n: wc.ebox.partial_swap_chain(
                self.plateau, np.array([1.0, 0.0]), n, self.fast)))
        ops.append(Op("crooks", lambda _: wc.ebox.ebox_crooks_check(
            self.crooks_ramp, self.CROOKS_TRAJ, self.crooks_seed, self.fast,
            n_steps=200, n_bins=20, min_count=50)))
        return ops

    def references(self):
        return {
            "z_linear": ref.two_level_z(2.0) / ref.two_level_z(0.0),
            "z_updown": 1.0,
            "crooks_log_z": math.log(ref.two_level_z(2.0) / ref.two_level_z(0.0)),
        }

    def check(self, outputs, refs):
        bad = Problems()
        mc, series = outputs["mc"], outputs["series"]
        n = mc.samples.size
        bad.require("mc", n == self.N_TRAJ, f"{n} samples")
        # total variation between the Monte Carlo histogram and the series
        p_mc = np.histogram(mc.samples, bins=self.w_grid)[0] / n
        p_series = np.array(series.bin_masses, dtype=float)
        for w, mass in series.atoms:
            k = np.searchsorted(self.w_grid, w, side="right") - 1
            p_series[np.clip(k, 0, p_series.size - 1)] += mass
        tv = 0.5 * (np.abs(p_mc - p_series).sum() + (1.0 - p_mc.sum())
                    + series.remainder)
        bad.require("series", series.remainder < 0.05,
                    f"series remainder {series.remainder:.3g}")
        bad.require("mc", tv < 0.02, f"TV(MC, series) = {tv:.4f}")
        # final occupation and mean work against the deterministic solvers
        grid, occ = outputs["master"]
        p1 = float(occ[-1, 1])
        occ_se = math.sqrt(p1 * (1.0 - p1) / n)
        p1_mc = float(np.mean(mc.final_levels))
        bad.require("master", abs(p1_mc - p1) <= self.MC_SIGMAS * occ_se,
                    f"final occupation {p1!r}, Monte Carlo {p1_mc!r} "
                    f"({abs(p1_mc - p1) / occ_se:.1f} sigma)")
        me_mean = ref.ramp_mean_work(*self.knots, grid, occ[:, 1])
        mean_se = float(mc.samples.std()) / math.sqrt(n)
        mc_mean = float(mc.samples.mean())
        for label, value in (("master", me_mean),
                             ("mean_work", outputs["mean_work"][0])):
            bad.require(label, abs(mc_mean - value) <= self.MC_SIGMAS * mean_se,
                        f"mean work {value!r}, Monte Carlo {mc_mean!r} "
                        f"({abs(mc_mean - value) / mean_se:.1f} sigma)")
        # characteristic function against the Monte Carlo average, and Jensen
        for xi in self.XI_GRID:
            z = outputs[f"charfn.{xi:g}"]
            e = np.exp(xi * mc.samples)
            z_se = float(e.std()) / math.sqrt(n)
            bad.require(f"charfn.{xi:g}", abs(z - e.mean()) <= self.MC_SIGMAS * z_se,
                        f"Z({xi:g}) = {z!r}, Monte Carlo {e.mean()!r}")
            bad.require(f"charfn.{xi:g}", z >= math.exp(xi * me_mean),
                        f"Z({xi:g}) = {z!r} below exp(xi <W>)")
        for label, key in (("jarzynski.linear", "z_linear"),
                           ("jarzynski.updown", "z_updown")):
            z = outputs[label]
            bad.require(label, _close(z, refs[key], 1e-9 * refs[key]),
                        f"Z(-beta) = {z!r}, Zf/Z0 = {refs[key]!r}")
        # partial-swap chain: first-order convergence to the closed form
        errs = []
        for steps in self.CHAIN_STEPS:
            grid, occ = outputs[f"chain.{steps}"]
            exact = ref.constant_relaxation(2.0, grid, 1.0, 1.0, 1.0)
            errs.append(float(np.max(np.abs(occ[:, 0] - exact))))
        for steps, a, b in zip(self.CHAIN_STEPS[1:], errs, errs[1:]):
            bad.require(f"chain.{steps}", b > 0 and 1.8 < a / b < 2.2,
                        f"error ratio {a / b if b else math.inf:.3f} "
                        "on halving the step")
        crooks = outputs["crooks"]
        bad.require("crooks", crooks.max_sigma_ratio < self.CROOKS_SIGMAS,
                    f"Crooks residuals up to {crooks.max_sigma_ratio:.2f} sigma")
        bad.require("crooks", _close(crooks.log_z_ratio, refs["crooks_log_z"], 1e-12),
                    f"log Zf/Z0 = {crooks.log_z_ratio!r}")
        return bad


# ---------------------------------------------------------------------------
# ebox-sweep
# ---------------------------------------------------------------------------


class EboxSweep(Workload):
    """The speed sweep of the extraction ramp (splitting lowered from
    eps_max to 0 from the ground level), in the shape of the guaranteed
    extraction criterion but smaller: few long trajectories per duration,
    both tolerances read from one sample set, and a master-equation mean
    per duration.  The seed picks the Monte Carlo streams."""

    name = "ebox-sweep"
    DURATIONS = (24.0, 48.0, 144.0)
    EPS = (0.01, 0.5)
    EPS_MAX = 8.0
    N_TRAJ = 6000
    N_STEPS = 7200  # for the longest duration; shorter ones scale down
    MASTER_STEPS = 1000
    # a sweep config without a 'ramp' key; two short durations, so that once
    # it runs its time is a small share of the round
    CLI_SWEEP = {"mode": "ebox-sweep", "gamma0": 1.0, "eps_c": 1.0,
                 "durations": [6.0, 12.0], "eps": 0.5, "eps_max": 8.0,
                 "n_traj": 200, "n_steps": 400}

    def __init__(self, wc, seed, workdir):
        super().__init__(wc, workdir)
        e = wc.ebox
        rng = np.random.default_rng([seed, 4])
        self.seeds = [int(s) for s in rng.integers(0, 2**31, len(self.DURATIONS) + 1)]
        self.params = e.EboxParams(gamma0=1.0, eps_c=1.0, beta=1.0)
        self.ramps = [e.linear_ramp(self.EPS_MAX, 0.0, tau) for tau in self.DURATIONS]
        self.cli_path = self.config("sweep-no-ramp",
                                      dict(self.CLI_SWEEP, seed=self.seeds[-1]))

    def steps(self, tau):
        return max(200, int(math.ceil(self.N_STEPS * tau / max(self.DURATIONS))))

    def operations(self):
        wc, p = self.wc, self.params
        ops = []
        for i, tau in enumerate(self.DURATIONS):
            ops.append(Op(f"sweep.{tau:g}", lambda _, i=i, tau=tau:
                          wc.ebox.szilard_sweep(
                              [tau], self.EPS, self.EPS_MAX, self.N_TRAJ,
                              self.steps(tau), self.seeds[i], p)))
        for ramp, tau in zip(self.ramps, self.DURATIONS):
            ops.append(Op(f"master.{tau:g}", lambda _, ramp=ramp:
                          wc.ebox.integrate_master(
                              ramp, np.array([1.0, 0.0]), self.MASTER_STEPS, p)))
        ops.append(Op("cli.no-ramp", lambda _: run_cli(wc, self.cli_path), cli=True,
                      known_fault="the CLI builds a ramp for every ebox mode, "
                                  "and ebox-sweep never uses it"))
        return ops

    def references(self):
        return {"ceiling": LN2 - math.log1p(math.exp(-self.EPS_MAX))}

    def check(self, outputs, refs):
        bad = Problems()
        legs = {eps: [] for eps in self.EPS}
        for tau in self.DURATIONS:
            label = f"sweep.{tau:g}"
            rows = outputs[label]
            ok = [(r[0], r[1]) for r in rows] == [(1.0 / tau, eps) for eps in self.EPS]
            bad.require(label, ok, "rows out of order")
            if not ok:
                return bad
            for r in rows:
                legs[r[1]].append((r[2], r[3]))
            lo, hi = rows[0][2], rows[-1][2]
            bad.require(label, lo <= hi,
                        f"eps=0.01 quantile {lo!r} above the median {hi!r}")
        for eps, leg in legs.items():
            for tau, (a, ea), (b, eb) in zip(self.DURATIONS[1:], leg, leg[1:]):
                bad.require(f"sweep.{tau:g}", b - a > ea + eb,
                            f"eps={eps:g}: {b!r} does not rise beyond the error "
                            f"bars from {a!r}")
            for tau, (v, e) in zip(self.DURATIONS, leg):
                bad.require(f"sweep.{tau:g}", v + 3.0 * e < LN2,
                            f"eps={eps:g}: {v!r} +- {e!r} not below ln 2 by 3 sigma")
        for tau, (median, err) in zip(self.DURATIONS, legs[0.5]):
            grid, occ = outputs[f"master.{tau:g}"]
            mean = float(np.trapezoid(occ[:, 1], grid)) * self.EPS_MAX / tau
            bad.require(f"master.{tau:g}", mean <= refs["ceiling"],
                        f"mean extracted work {mean!r} above the ceiling")
            bad.require(f"sweep.{tau:g}", median <= mean + 3.0 * err,
                        f"median {median!r} above the master-equation mean {mean!r}")
        run = outputs["cli.no-ramp"]
        bad.require("cli.no-ramp", run.code == 0, f"exit {run.code}: {run.err.strip()}")
        if run.code == 0:
            header, rows = ref.parse_csv(run.out)
            want = [1.0 / t for t in self.CLI_SWEEP["durations"]]
            bad.require("cli.no-ramp", header == "speed,eps,w_eps,stderr"
                        and [r[0] for r in rows] == want
                        and all(0.0 <= r[2] <= self.EPS_MAX for r in rows),
                        "sweep rows malformed")
        return bad


WORKLOADS = {w.name: w for w in (EqualityMany, EqualityDeep, EboxCrossval, EboxSweep)}
