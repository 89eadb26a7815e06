"""End-to-end tests of the command-line front end."""

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wcwork import cli, engine
from wcwork.cli import load_config, main


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)

def lift_config():
    return {
        "mode": "enumerate",
        "levels": [0.0, 0.0],
        "rho0": [0.9, 0.1],
        "steps": [
            {"type": "change", "levels": [0.0, 1.0],
             "jump": [[1.0, 0.0], [0.0, 1.0]]},
            {"type": "thermalize", "full": True},
        ],
    }


def degenerate_equality_config():
    return {
        "mode": "equality",
        "levels": [0.0, 0.0],
        "rho0": [0.9, 0.1],
        "in_levels": [0],
        "steps": [{"type": "thermalize", "full": True}],
    }


class TestConfigLoading:
    def test_unknown_key_rejected_by_name(self, tmp_path, capsys):
        path = write_config(tmp_path, {"mode": "enumerate", "bogus_key": 1})
        assert main(["--config", path]) == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_bad_mode_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, {"mode": "frobnicate"})
        assert main(["--config", path]) == 2
        assert "mode" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.json")]) == 2
        assert "invalid-input" in capsys.readouterr().err

    def test_format_flag_and_key_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, degenerate_equality_config())
        with pytest.raises(SystemExit) as exc:
            main(["--config", path, "--format", "json"])
        assert exc.value.code == 2
        doc = dict(degenerate_equality_config(), format="json")
        assert main(["--config", write_config(tmp_path, doc)]) == 2
        assert "unknown config keys: format" in capsys.readouterr().err

    def test_converted_values_and_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, degenerate_equality_config()))
        assert sorted(cfg) == ["beta", "eps", "extracted", "in_levels", "levels",
                               "mode", "rho0", "steps"]
        assert cfg["mode"] == "equality" and cfg["extracted"] is False
        assert cfg["beta"] == 1.0 and cfg["eps"] == 0.0 and cfg["in_levels"] == [0]
        assert cfg["levels"].dtype == float and cfg["levels"].tolist() == [0.0, 0.0]
        assert cfg["rho0"].tolist() == [0.9, 0.1]
        assert cfg["steps"] == [{"type": "thermalize/full", "full": True}]

        doc = {"mode": "ebox-mc", "beta": 2,
               "gamma0": 1, "eps_c": 1.0, "n_traj": 1e5, "n_steps": 400,
               "ramp": {"shape": "points", "times": [0, 1], "values": [0, 2]}}
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg["beta"] == 2.0 and type(cfg["beta"]) is float
        assert cfg["n_traj"] == 100000 and type(cfg["n_traj"]) is int
        assert cfg["seed"] == 20177 and cfg["n_bins"] == 60 and cfg["rho0"] == "gibbs"
        assert cfg["ramp"]["shape"] == "points"
        assert cfg["ramp"]["values"].tolist() == [0.0, 2.0]

    def test_threads_flag_rejected(self, tmp_path):
        path = write_config(tmp_path, lift_config())
        with pytest.raises(SystemExit) as exc:
            main(["--config", path, "--threads", "1"])
        assert exc.value.code == 2


class TestEnumerate:
    def test_lift_protocol_csv(self, tmp_path, capsys):
        path = write_config(tmp_path, lift_config())
        assert main(["--config", path]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "w,p"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert rows == [(0.0, 0.9), (1.0, 0.1)]

    def test_extracted_negates_work(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(lift_config(), extracted=True))
        assert main(["--config", path]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert {w for w, _ in rows} == {0.0, -1.0}

    def test_extracted_zero_work_prints_positive_zero(self, tmp_path, capsys):
        doc = dict(degenerate_equality_config(), mode="enumerate", extracted=True)
        del doc["in_levels"]
        path = write_config(tmp_path, doc)
        assert main(["--config", path]) == 0
        assert capsys.readouterr().out == "w,p\n0,1\n"

    def test_out_file(self, tmp_path):
        target = tmp_path / "dist.csv"
        path = write_config(tmp_path, lift_config())
        assert main(["--config", path, "--out", str(target)]) == 0
        assert target.read_text().startswith("w,p\n")

    def test_resource_limit_exit_code(self, tmp_path, capsys, monkeypatch):
        # level changes to unrelated energies between thermalizations: works
        # never recur, and live entries pass the lowered cap
        monkeypatch.setattr(engine, "LIVE_ENTRY_CAP", 1000)
        rng = np.random.default_rng(11)
        jump = np.full((3, 3), 1.0 / 3).tolist()
        steps = []
        for _ in range(3):
            steps.append({"type": "change", "levels": rng.normal(size=3).tolist(),
                          "jump": jump})
            steps.append({"type": "thermalize", "full": True})
        doc = {"mode": "enumerate", "levels": [0.0, 0.0, 0.0],
               "rho0": [0.4, 0.3, 0.3], "steps": steps}
        path = write_config(tmp_path, doc)
        assert main(["--config", path]) == 3
        assert "resource-limit" in capsys.readouterr().err

    def test_many_paths_with_recurring_works(self, tmp_path, capsys):
        # 4^14 paths, once past the path-count cap: all works are 0
        doc = {
            "mode": "enumerate",
            "levels": [0.0, 0.0, 0.0, 0.0],
            "rho0": [0.25, 0.25, 0.25, 0.25],
            "steps": [{"type": "thermalize", "full": True}] * 13,
        }
        path = write_config(tmp_path, doc)
        assert main(["--config", path]) == 0
        assert capsys.readouterr().out == "w,p\n0,1\n"

    @pytest.mark.parametrize("levels", [[-800.0, -799.0], [800.0, 805.0]])
    def test_detailed_balance_checked_at_extreme_energies(
            self, levels, tmp_path, capsys):
        # Boltzmann factors overflow at -800 kT and underflow at +800 kT;
        # the check compares log ratios, so neither decides the outcome
        def run(step):
            doc = {"mode": "enumerate", "levels": levels, "rho0": [0.5, 0.5],
                   "steps": [step]}
            return main(["--config", write_config(tmp_path, doc)])

        assert run({"type": "thermalize", "full": True}) == 0
        header, atom, end = capsys.readouterr().out.split("\n")
        assert (header, atom.split(",")[0], end) == ("w,p", "0", "")
        for hop in ([[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.5], [0.1, 0.5]]):
            assert run({"type": "thermalize", "hop": hop}) == 2
            assert "violates detailed balance" in capsys.readouterr().err


class TestEquality:
    def test_near_coincident_works_pair(self, tmp_path, capsys):
        doc = near_coincident_config("equality", [0.5, 0.5], in_levels=[0, 1])
        assert main(["--config", write_config(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["d_infinity"] == pytest.approx(0.56621916951697, abs=1e-12)
        assert out["residual"] < 1e-12

    def test_degenerate_two_level_report(self, tmp_path, capsys):
        path = write_config(tmp_path, degenerate_equality_config())
        assert main(["--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["w0_in"] == pytest.approx(0.0, abs=1e-12)
        assert doc["d_infinity"] == pytest.approx(math.log(1.8), abs=1e-12)
        assert doc["optimum"] == pytest.approx(math.log(1.8), abs=1e-12)
        assert doc["residual"] <= 1e-12
        assert doc["mild_assumption_ok"] is True

    def test_eps_out_of_range(self, tmp_path, capsys):
        doc = degenerate_equality_config()
        doc["eps"] = 1.5
        path = write_config(tmp_path, doc)
        assert main(["--config", path]) == 2

    def test_retained_levels_without_occupation_exit_2(self, tmp_path, capsys):
        doc = dict(degenerate_equality_config(), rho0=[0.0, 0.9999999999999],
                   steps=lift_config()["steps"][:1])
        assert main(["--config", write_config(tmp_path, doc)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: invalid-input: no trajectories start in the restricted set\n"

    def test_tail_mode_reports_eps(self, tmp_path, capsys):
        doc = degenerate_equality_config()
        doc["eps"] = 0.05
        path = write_config(tmp_path, doc)
        assert main(["--config", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["eps"] == 0.05
        assert out["residual"] <= 1e-12

    def test_eps_next_below_one_cuts_at_forward_mass(self, tmp_path, capsys):
        # the first paired run carries reverse mass only; within 1e-15 of 1
        # its tail counted as at most eps, and the cut kept no forward mass
        doc = {"mode": "equality", "levels": [0, 0], "rho0": [1, 0],
               "in_levels": [0], "eps": 0.9999999999999999,
               "steps": [{"type": "change", "levels": [0, 1],
                          "jump": [[0.5, 0.5], [0.5, 0.5]]}]}
        assert main(["--config", write_config(tmp_path, doc)]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert err == ""
        assert all(math.isfinite(v) for v in report.values() if not isinstance(v, bool))
        assert report["w0_in"] == 0.0 and report["residual"] <= 1e-12


def near_coincident_config(mode, rho0, **extra):
    """Levels [0, 2] changed to [0, 1e-9] under a fully mixing jump: the
    works -2, -2 + 1e-9, 0 and 1e-9 lie one bin tolerance apart, and a
    reverse side binned on its own at that tolerance groups them unlike the
    forward side."""
    return {"mode": mode, "levels": [0.0, 2.0], "rho0": rho0,
            "steps": [{"type": "change", "levels": [0.0, 1e-9],
                       "jump": [[0.5, 0.5], [0.5, 0.5]]}], **extra}


class TestCrooks:
    def test_near_coincident_works_pair(self, tmp_path, capsys):
        gibbs = [0.8807970779778823, 0.11920292202211755]
        path = write_config(tmp_path, near_coincident_config("crooks", gibbs))
        assert main(["--config", path]) == 0
        assert json.loads(capsys.readouterr().out)["max_crooks_residual"] < 1e-12

    def test_thermal_protocol_residuals_vanish(self, tmp_path, capsys):
        z0 = 2.0
        doc = {
            "mode": "crooks",
            "levels": [0.0, 0.0],
            "rho0": [0.5, 0.5],
            "steps": [
                {"type": "change", "levels": [0.0, 1.0],
                 "jump": [[1.0, 0.0], [0.0, 1.0]]},
                {"type": "thermalize", "full": True},
            ],
        }
        path = write_config(tmp_path, doc)
        assert main(["--config", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["max_crooks_residual"] <= 1e-12
        assert out["jarzynski_residual"] <= 1e-12
        zf = 1.0 + math.exp(-1.0)
        assert out["log_z_ratio"] == pytest.approx(math.log(zf / z0))


class TestEboxModes:
    def ebox_base(self):
        return {
            "gamma0": 1.0,
            "eps_c": 1.0,
            "ramp": {"shape": "linear", "eps0": 0.0, "epsf": 2.0, "tau": 1.0},
        }

    def test_decoupled_bath_emits_single_atom(self, tmp_path, capsys):
        doc = self.ebox_base()
        doc.update({"mode": "ebox-mc", "gamma0": 0.0, "rho0": [1.0, 0.0],
                    "n_traj": 100, "n_steps": 10})
        path = write_config(tmp_path, doc)
        assert main(["--config", path]) == 0
        assert capsys.readouterr().out == "w,p\n0,1\n"

    def test_mc_histogram_reproducible(self, tmp_path, capsys):
        doc = self.ebox_base()
        doc.update({"mode": "ebox-mc", "n_traj": 2000, "n_steps": 50,
                    "seed": 5, "n_bins": 10})
        path = write_config(tmp_path, doc)
        assert main(["--config", path]) == 0
        first = capsys.readouterr().out
        assert main(["--config", path]) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("w_lo,w_hi,density\n")
        # another seed, other samples
        assert main(["--config", write_config(tmp_path, dict(doc, seed=6))]) == 0
        assert capsys.readouterr().out != first

    def test_series_atoms_are_zero_width_rows(self, tmp_path, capsys):
        doc = self.ebox_base()
        doc.update({"mode": "ebox-series", "rho0": [1.0, 0.0], "j_max": 3,
                    "w_grid": [round(-2 + 0.05 * i, 3) for i in range(81)]})
        path = write_config(tmp_path, doc)
        assert main(["--config", path]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        zero_width = [r for r in rows if r[0] == r[1]]
        assert len(zero_width) >= 1  # the no-jump atom at w = 0
        total = sum(p for lo, hi, p in zero_width) + sum(
            (hi - lo) * p for lo, hi, p in rows if hi > lo
        )
        assert total == pytest.approx(1.0, abs=0.05)

    def test_charfn_grid(self, tmp_path, capsys):
        doc = self.ebox_base()
        doc.update({"mode": "ebox-charfn", "rho0": "gibbs",
                    "xi_values": [0.0, -1.0], "n_steps": 800})
        path = write_config(tmp_path, doc)
        assert main(["--config", path]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "xi,z"
        rows = dict(tuple(map(float, ln.split(","))) for ln in lines[1:])
        assert rows[0.0] == pytest.approx(1.0, abs=1e-10)
        z_ratio = (1 + math.exp(-2.0)) / 2.0
        assert rows[-1.0] == pytest.approx(z_ratio, rel=1e-7)

    def test_charfn_step_too_coarse_exit_2(self, tmp_path, capsys):
        # four RK4 steps of 6 time units leave phi negative at tau: the run
        # printed z = -1602895896000.9551 at xi = 0.7
        doc = {"mode": "ebox-charfn", "gamma0": 1, "eps_c": 1,
               "ramp": {"shape": "linear", "eps0": 8, "epsf": 0, "tau": 24},
               "rho0": [1, 0], "xi_values": [0, 0.7], "n_steps": 4}
        assert main(["--config", write_config(tmp_path, doc)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: invalid-input: phi at tau is negative")
        assert err.endswith("reduce the step size\n")

    def test_sweep_header_and_speeds(self, tmp_path, capsys):
        doc = {
            "mode": "ebox-sweep",
            "gamma0": 1.0,
            "eps_c": 1.0,
            "durations": [2.0, 4.0],
            "eps": 0.1,
            "eps_max": 4.0,
            "n_traj": 500,
            "n_steps": 400,
            "seed": 3,
        }
        path = write_config(tmp_path, doc)
        assert main(["--config", path]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "speed,eps,w_eps,stderr"
        speeds = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert speeds == [0.5, 0.25]

    def test_sweep_several_tolerances(self, tmp_path, capsys):
        doc = {
            "mode": "ebox-sweep",
            "gamma0": 1.0,
            "eps_c": 1.0,
            "durations": [2.0, 4.0],
            "eps": [0.1, 0.5],
            "eps_max": 4.0,
            "n_traj": 500,
            "n_steps": 400,
            "seed": 3,
        }
        path = write_config(tmp_path, doc)
        assert main(["--config", path]) == 0
        rows = [ln.split(",")[:2] for ln in
                capsys.readouterr().out.strip().split("\n")[1:]]
        assert [(float(s), float(e)) for s, e in rows] == [
            (0.5, 0.1), (0.5, 0.5), (0.25, 0.1), (0.25, 0.5)
        ]

    def test_sweep_needs_no_ramp(self, tmp_path, capsys):
        doc = {
            "mode": "ebox-sweep",
            "gamma0": 1.0,
            "eps_c": 1.0,
            "durations": [2.0, 4.0],
            "eps": 0.5,
            "eps_max": 4.0,
            "n_traj": 200,
            "n_steps": 200,
            "seed": 3,
        }
        path = write_config(tmp_path, doc)
        assert main(["--config", path]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "speed,eps,w_eps,stderr"
        assert [float(ln.split(",")[0]) for ln in lines[1:]] == [0.5, 0.25]

    @pytest.mark.parametrize("mode", ["ebox-mc", "ebox-series"])
    def test_huge_beta_runs_without_warnings(self, mode, tmp_path, capsys):
        # beta * eps up to 2e300: the rates' small-x series would overflow
        doc = dict(VALID[mode], beta=1e300)
        assert main(["--config", write_config(tmp_path, doc)]) == 0
        assert capsys.readouterr().err == ""

    def test_bad_ramp_shape(self, tmp_path, capsys):
        doc = self.ebox_base()
        doc.update({"mode": "ebox-mc", "n_traj": 10, "n_steps": 10})
        doc["ramp"] = {"shape": "spiral", "tau": 1.0}
        path = write_config(tmp_path, doc)
        assert main(["--config", path]) == 2


# -- the config contract: every malformed input exits 2 and names its key ---

LINEAR = {"shape": "linear", "eps0": 0.0, "epsf": 2.0, "tau": 1.0}
VALID = {
    "enumerate": lift_config(),
    "equality": degenerate_equality_config(),
    "crooks": dict(lift_config(), mode="crooks"),
    "ebox-mc": {"mode": "ebox-mc", "gamma0": 1.0, "eps_c": 1.0, "ramp": LINEAR,
                "n_traj": 100, "n_steps": 10},
    "ebox-series": {"mode": "ebox-series", "gamma0": 1.0, "eps_c": 1.0,
                    "ramp": LINEAR, "rho0": [1.0, 0.0], "w_grid": [-1, 0, 1, 2, 3]},
    "ebox-charfn": {"mode": "ebox-charfn", "gamma0": 1.0, "eps_c": 1.0,
                    "ramp": LINEAR, "xi_values": [0.0], "n_steps": 50},
    "ebox-sweep": {"mode": "ebox-sweep", "gamma0": 1.0, "eps_c": 1.0,
                   "durations": [2.0], "eps": 0.5, "eps_max": 4.0, "n_traj": 100,
                   "n_steps": 200},
}


def variant(mode, **changes):
    return dict(VALID[mode], **changes)


MAX_SEED = 2**63 - 1

# (config, text the error must contain: the offending key path)
REPRODUCED = {
    "ramp without epsf": (variant("ebox-mc", ramp={"shape": "linear", "eps0": 0.0,
                                                   "tau": 1.0}), "ramp.epsf"),
    "points ramp without values": (variant("ebox-mc", ramp={
        "shape": "points", "times": [0, 1]}), "ramp.values"),
    "ramp.tau string": (variant("ebox-mc", ramp=dict(LINEAR, tau="x")), "ramp.tau"),
    "n_traj string": (variant("ebox-mc", n_traj="ten"), "n_traj"),
    "n_traj fractional": (variant("ebox-mc", n_traj=10.7), "n_traj"),
    "n_traj bool": (variant("ebox-mc", n_traj=True), "n_traj"),
    "n_bins zero": (variant("ebox-mc", n_bins=0), "n_bins"),
    "n_bins string": (variant("ebox-mc", n_bins="x"), "n_bins"),
    "xi_values scalar": (variant("ebox-charfn", xi_values=2.0), "xi_values"),
    "xi_values string entry": (variant("ebox-charfn", xi_values=["a"]),
                               "xi_values[0]"),
    "change without jump": (variant("enumerate", steps=[
        {"type": "change", "levels": [0.0, 1.0]}]), "steps[0].jump"),
    "thermalize without hop or full": (variant("enumerate", steps=[
        {"type": "thermalize"}]), "steps[0].hop"),
    "steps scalar": (variant("enumerate", steps=5), "steps"),
    "full not true": (variant("enumerate", steps=[{"type": "thermalize", "full": 1}]),
                      "steps[0].full"),
    "levels string": (variant("enumerate", levels="ab"), "levels"),
    "in_levels string": (variant("equality", in_levels="a"), "in_levels"),
    "in_levels scalar": (variant("equality", in_levels=0), "in_levels"),
    "bin_tolerance string": (variant("enumerate", bin_tolerance="x"), "bin_tolerance"),
    "eps string": (variant("equality", eps="x"), "eps"),
    "beta string": (variant("equality", beta="x"), "beta"),
    "extracted not a boolean": (variant("enumerate", extracted=1), "extracted"),
    "gamma0 string": (variant("ebox-mc", gamma0="x"), "gamma0"),
    "gamma0 null": (variant("ebox-mc", gamma0=None), "gamma0"),
    "j_max string": (variant("ebox-series", j_max="x"), "j_max"),
    "seed string": (variant("ebox-mc", seed="x"), "seed"),
    "seed past 2^63": (variant("ebox-mc", seed=MAX_SEED + 1), "seed"),
    "durations scalar": (variant("ebox-sweep", durations=2.0), "durations"),
    "sweep eps string entry": (variant("ebox-sweep", eps=["a"]), "eps[0]"),
    "ebox rho0 unknown word": (variant("ebox-mc", rho0="thermal"), "rho0"),
    "ragged jump": (variant("enumerate", steps=[
        {"type": "change", "levels": [0, 1], "jump": [[1, 0], [0]]}]),
        "steps[0].jump"),
    "integer beyond double range": (variant("enumerate", levels=[10**400, 0]),
                                    "levels[0]"),
    "n_traj in enumerate": (variant("enumerate", n_traj=5),
                            "unknown config keys: n_traj"),
    "ramp in ebox-sweep": (variant("ebox-sweep", ramp=LINEAR),
                           "unknown config keys: ramp"),
    "seed in crooks": (variant("crooks", seed=1), "unknown config keys: seed"),
    "energy_units": (variant("equality", energy_units="kT"),
                     "unknown config keys: energy_units"),
    **{f"extracted in {mode}": (variant(mode, extracted=True),
                                "unknown config keys: extracted")
       for mode in ("crooks", "ebox-charfn", "ebox-sweep")},
    **{f"out in {mode}": (variant(mode, out="x.csv"), "unknown config keys: out")
       for mode in VALID},
    "unknown nested key": (variant("ebox-mc", ramp=dict(LINEAR, slope=1.0)),
                           "unknown config keys: ramp.slope"),
}


def discrete_configs(n=40):
    """``n`` discrete configs drawn from a fixed seed: 2-4 levels, 1-6 steps,
    every discrete mode, integer energies now and then so that works recur
    and merge, and starts that leave a level empty."""
    rng = np.random.default_rng(8)

    def energies(d):
        if rng.random() < 0.3:
            return rng.integers(-2, 3, size=d).astype(float)
        return rng.normal(size=d)

    docs = []
    for k in range(n):
        d, n_steps = int(rng.integers(2, 5)), int(rng.integers(1, 7))
        levels = current = energies(d)
        steps = []
        for _ in range(n_steps):
            u = rng.random()
            if u < 0.5:
                current = energies(d)
                jump = sum(w * np.eye(d)[rng.permutation(d)]
                           for w in rng.dirichlet(np.ones(3)))
                steps.append({"type": "change", "levels": current.tolist(),
                              "jump": jump.tolist()})
            elif u < 0.65:
                steps.append({"type": "thermalize", "full": True})
            else:
                gibbs = np.exp(-(current - current.min()))
                p = rng.random()
                hop = (1 - p) * np.eye(d) + p * np.outer(gibbs / gibbs.sum(), np.ones(d))
                steps.append({"type": "thermalize", "hop": hop.tolist()})
        rho0 = rng.dirichlet(np.ones(d))
        if rng.random() < 0.3:
            rho0[rng.integers(d)] = 0.0
            rho0 /= rho0.sum()
        doc = {"mode": ("enumerate", "equality", "equality", "crooks")[k % 4],
               "levels": levels.tolist(), "rho0": rho0.tolist(), "steps": steps}
        if doc["mode"] == "equality":
            chosen = rng.permutation(d)[:rng.integers(1, d + 1)]
            doc["in_levels"] = sorted({int(np.argmax(rho0)), *chosen.tolist()})
            if k % 4 == 2:
                doc["eps"] = float(rng.choice([0.05, 0.2]))
        if doc["mode"] == "crooks":
            gibbs = np.exp(-(levels - levels.min()))
            doc["rho0"] = (gibbs / gibbs.sum()).tolist()
        docs.append(doc)
    return docs


# the modes whose config takes "extracted": true, which negates reported work
EXTRACTED = {mode for mode, keys in cli._SCHEMA.items() if "extracted" in keys}


def extracted(doc):
    """``doc`` reporting extracted work, or ``doc`` itself in a mode that
    reports no work."""
    return dict(doc, extracted=True) if doc["mode"] in EXTRACTED else doc


class TestDiscreteOutputUnchanged:
    # sha256 of every run's exit code, stdout and stderr, of each config and
    # of its extracted(config); taken when the exact recursion became one
    # (work x level) table (1.14.0), whose equality, crooks and enumerate
    # values moved by at most 8.9e-16
    DIGEST = "fcde989ed627f7e7db470e09f17a2346a1903ffcfc93d745985c0173331b1c68"

    def test_discrete_output_unchanged(self, tmp_path, capsys):
        digest, codes = hashlib.sha256(), []
        for doc in discrete_configs():
            for d in (doc, extracted(doc)):
                codes.append(main(["--config", write_config(tmp_path, d)]))
                out, err = capsys.readouterr()
                digest.update(f"{codes[-1]}\0{out}\0{err}\0".encode())
        assert codes.count(0) >= 70
        assert digest.hexdigest() == self.DIGEST


class TestRejectedInputs:
    def test_valid_bases_run(self, tmp_path, capsys):
        for doc in VALID.values():
            assert main(["--config", write_config(tmp_path, doc)]) == 0

    @pytest.mark.parametrize("name", sorted(REPRODUCED))
    def test_reproduced_case(self, name, tmp_path, capsys):
        doc, key_path = REPRODUCED[name]
        assert main(["--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input:")
        assert key_path in err

    def test_unwritable_out(self, tmp_path, capsys):
        path = write_config(tmp_path, lift_config())
        target = tmp_path / "missing-dir" / "dist.csv"
        assert main(["--config", path, "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input: cannot write --out")


FULL = {"type": "thermalize", "full": True}


def change_to(*levels):
    return {"type": "change", "levels": list(levels), "jump": [[1.0, 0.0], [0.0, 1.0]]}


def two_level(mode, levels, *steps, **keys):
    return {"mode": mode, "levels": list(levels), "rho0": [0.5, 0.5],
            "steps": list(steps), **keys}


# a reported value that is not finite is a documented numeric failure (exit 4)
NUMERIC = {
    # the reverse partner's mass e^-800 * 0.5 underflows
    "equality with an underflowing partner": (
        two_level("equality", [0.0, 800.0], FULL, change_to(0.0, 0.0), in_levels=[0]),
        "d_infinity = inf is not finite"),
    # e^800 in the Jarzynski sum overflows
    "crooks with an overflowing Jarzynski sum": (
        two_level("crooks", [0.0, 800.0], change_to(0.0, 0.0)),
        "jarzynski_residual = inf is not finite"),
    # so do the Jarzynski sum and Zf/Z0 = e^800, whose log is finite
    "crooks with Zf/Z0 beyond the double range": (
        two_level("crooks", [0.0, 0.0], change_to(-800.0, -800.0)),
        "jarzynski_residual = nan is not finite"),
    # the product of two jump rates overflows, and its weight is inf * 0
    "ebox-series with an overflowing jump rate": (
        {"mode": "ebox-series", "gamma0": 1, "eps_c": 1e-200,
         "ramp": {"shape": "linear", "eps0": 1, "epsf": 0, "tau": 1},
         "rho0": [0.5, 0.5], "w_grid": [-2, -1, 0, 1, 2], "j_max": 2},
        "a 2-jump series weight is not finite"),
    "ebox-series with an overflowing jump rate at 800 kT": (
        {"mode": "ebox-series", "gamma0": 1000, "eps_c": 1e-300,
         "ramp": {"shape": "linear", "eps0": 800, "epsf": 0, "tau": 1},
         "rho0": [0.5, 0.5], "w_grid": [-2, -1, 0, 1, 2], "j_max": 2},
        "a 2-jump series weight is not finite"),
}


class TestNumericFailures:
    @pytest.mark.parametrize("name", sorted(NUMERIC))
    def test_reproduced_case(self, name, tmp_path, capsys):
        doc, message = NUMERIC[name]
        for d in (doc, extracted(doc)):
            assert main(["--config", write_config(tmp_path, d)]) == 4
            out, err = capsys.readouterr()
            assert out == "" and f"error: numeric: {message}\n" in err


# (config, the config it is a common energy shift of, the shift of its
# works): Z itself leaves the double range, log Z does not
SHIFTED = {
    "equality at +1000 kT": (
        two_level("equality", [1000.0, 1001.0], FULL, in_levels=[0]),
        two_level("equality", [0.0, 1.0], FULL, in_levels=[0]), 0.0),
    "equality to +1000 kT": (
        two_level("equality", [0.0, 1.0], change_to(1000.0, 1001.0), in_levels=[0]),
        two_level("equality", [0.0, 1.0], change_to(0.0, 1.0), in_levels=[0]), 1000.0),
    "equality to -1000 kT": (
        two_level("equality", [0.0, 1.0], change_to(-1000.0, -999.0), in_levels=[0]),
        two_level("equality", [0.0, 1.0], change_to(0.0, 1.0), in_levels=[0]), -1000.0),
    "crooks at -800 kT": (two_level("crooks", [-800.0, 0.0], FULL),
                          two_level("crooks", [0.0, 800.0], FULL), 0.0),
    "crooks at +1000 kT": (two_level("crooks", [1000.0, 1001.0], FULL),
                           two_level("crooks", [0.0, 1.0], FULL), 0.0),
}


class TestShiftedConfigs:
    @pytest.mark.parametrize("name", sorted(SHIFTED))
    def test_reports_as_its_unshifted_config(self, name, tmp_path, capsys):
        doc, unshifted, shift = SHIFTED[name]
        for sign, form in ((1.0, dict), (-1.0, extracted)):
            reports = []
            for d in (doc, unshifted):
                assert main(["--config", write_config(tmp_path, form(d))]) == 0
                reports.append(json.loads(capsys.readouterr().out))
            got, want = reports
            # w0_in moves with the works, the optimum log Zf - log Z~ against them
            moved = {"w0_in": sign * shift, "optimum": -shift}
            assert got == pytest.approx(
                {k: v + moved[k] if k in moved else v for k, v in want.items()},
                abs=1e-9)


@st.composite
def shift_cases(draw):
    """A discrete protocol, the configs of its three reports (the equality
    at eps = 0 and at eps > 0, and crooks from the Gibbs state), and a common
    energy shift s.  Energies are multiples of 1/8 kT in [-1, 1] and mixing
    weights multiples of 1/8, so that no mass is subnormal, and two works, or
    a tail mass and eps, are equal or far apart on the scale of the shift's
    rounding."""
    d = draw(st.integers(2, 4))
    energies = st.lists(st.integers(-8, 8).map(lambda k: k / 8), min_size=d, max_size=d)
    eighths = st.integers(0, 8).map(lambda k: k / 8)
    levels = current = draw(energies)
    steps = []
    for kind in draw(st.lists(st.sampled_from(["change", "full", "hop"]),
                              min_size=1, max_size=5)):
        if kind == "change":
            current = draw(energies)
            a, perm = draw(eighths), draw(st.permutations(range(d)))
            jump = (1 - a) * np.eye(d) + a * np.eye(d)[list(perm)]
            steps.append({"type": "change", "levels": current, "jump": jump.tolist()})
        elif kind == "full":
            steps.append({"type": "thermalize", "full": True})
        else:
            gibbs = np.exp(-np.array(current))
            a = draw(eighths)
            hop = (1 - a) * np.eye(d) + a * np.outer(gibbs / gibbs.sum(), np.ones(d))
            steps.append({"type": "thermalize", "hop": hop.tolist()})
    weights = np.array(draw(st.lists(st.integers(0, 8), min_size=d, max_size=d)
                            .filter(any)), dtype=float)
    rho0 = (weights / weights.sum()).tolist()
    in_levels = sorted({int(np.argmax(weights)),
                        *draw(st.lists(st.integers(0, d - 1), max_size=d))})
    gibbs = np.exp(-np.array(levels))
    base = {"levels": levels, "steps": steps}
    docs = [dict(base, mode="equality", rho0=rho0, in_levels=in_levels),
            dict(base, mode="equality", rho0=rho0, in_levels=in_levels,
                 eps=draw(st.sampled_from([0.0517, 0.2113]))),
            dict(base, mode="crooks", rho0=(gibbs / gibbs.sum()).tolist())]
    return docs, draw(st.floats(-1e4, 1e4))


def shifted(doc, s):
    doc = json.loads(json.dumps(doc))
    doc["levels"] = [e + s for e in doc["levels"]]
    for step in doc["steps"]:
        if step["type"] == "change":
            step["levels"] = [e + s for e in step["levels"]]
    return doc


class TestCommonEnergyShift:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=shift_cases())
    def test_reports_unchanged(self, case, tmp_path, capsys):
        # the equality depends on energy differences only: a common shift
        # moves no reported value, though Z itself leaves the double range
        docs, s = case
        for doc in docs:
            reports = []
            for d in (doc, shifted(doc, s)):
                assert main(["--config", write_config(tmp_path, d)]) == 0, \
                    capsys.readouterr().err
                reports.append(json.loads(capsys.readouterr().out))
            assert reports[1] == pytest.approx(reports[0], abs=1e-9), doc["mode"]


class TestSharedParser:
    """The parser is built once, at import, and serves every call alike."""

    def test_repeated_calls_match_the_first(self, tmp_path, capsys, monkeypatch):
        def no_new_parser(*args, **kwargs):
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli.argparse, "ArgumentParser", no_new_parser)
        docs = [lift_config(), extracted(lift_config()), variant("ebox-mc", seed=3),
                VALID["ebox-mc"], extracted(variant("ebox-mc", seed=4)),
                dict(degenerate_equality_config(), seed=3),
                extracted(degenerate_equality_config())]
        argvs = [["--config", write_config(tmp_path, doc, name=f"{k}.json")]
                 for k, doc in enumerate(docs)]
        first = {}
        for _ in range(3):
            for argv in argvs:
                result = (main(argv), *capsys.readouterr())
                assert first.setdefault(tuple(argv), result) == result
        assert [first[tuple(a)][0] for a in argvs] == [0, 0, 0, 0, 0, 2, 0]
        assert first[tuple(argvs[2])] != first[tuple(argvs[3])]

    def test_help_and_rejected_arguments(self, tmp_path, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith("usage: wcwork")
            path = write_config(tmp_path, lift_config())
            for argv in (["--config", path, "--threads", "1"], ["--extracted"],
                         ["--config", path, "--extracted"],
                         ["--config", path, "--seed", "3"]):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2
                assert "usage: wcwork" in capsys.readouterr().err


# -- one mutation of a drawn valid config always exits 2 --------------------

# the keys each mode reads, and those it requires (README §Config keys, which
# a test below holds equal to the schema)
READ = {mode: {"mode", *keys} for mode, keys in cli._SCHEMA.items()}
REQUIRED = {mode: [k for k, (_, default) in keys.items() if default is cli._REQUIRED]
            for mode, keys in cli._SCHEMA.items()}
ALL_KEYS = set().union(*READ.values()) | {"out", "format", "threads", "energy_units"}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def is_number(v):
    return type(v) in (int, float)


def is_numbers(v):
    return isinstance(v, list) and all(is_number(x) for x in v)


def is_count(v):
    return type(v) is int or type(v) is float and v.is_integer()


# JSON values of a type each kind of key rejects
REJECTED = {
    "real": JSON.filter(lambda v: not is_number(v)) | NON_FINITE,
    "count": JSON.filter(lambda v: not is_count(v)),
    "vector": JSON.filter(lambda v: not is_numbers(v)),
    "matrix": JSON.filter(lambda v: not (isinstance(v, list) and all(
        is_numbers(r) for r in v) and len({len(r) for r in v}) <= 1)),
    "indices": JSON.filter(lambda v: not (isinstance(v, list) and all(
        is_count(x) and x >= 0 for x in v))),
    "steps": JSON.filter(lambda v: not isinstance(v, list)
                         or any(not isinstance(x, dict) for x in v)),
    "object": JSON.filter(lambda v: not isinstance(v, dict)),
    "bool": JSON.filter(lambda v: not isinstance(v, bool)),
    "mode": JSON.filter(lambda v: v not in tuple(READ)),
    "gibbs or vector": JSON.filter(lambda v: v != "gibbs" and not is_numbers(v)),
    "real or vector": JSON.filter(lambda v: not is_number(v) and not is_numbers(v))
    | NON_FINITE,
    "true": JSON.filter(lambda v: v is not True),
}
KIND = {
    "mode": "mode", "extracted": "bool", "beta": "real", "levels": "vector",
    "rho0": "vector", "steps": "steps", "bin_tolerance": "real",
    "in_levels": "indices", "eps": "real", "gamma0": "real", "eps_c": "real",
    "ramp": "object", "n_traj": "count", "n_steps": "count", "seed": "count",
    "n_bins": "count", "j_max": "count", "w_grid": "vector", "xi_values": "vector",
    "durations": "vector", "eps_max": "real", "jump": "matrix", "hop": "matrix",
    "full": "true", "eps0": "real", "epsf": "real", "tau": "real",
    "times": "vector", "values": "vector",
}


def kind(mode, key):
    if mode.startswith("ebox") and key == "rho0":
        return "gibbs or vector"
    if mode == "ebox-sweep" and key == "eps":
        return "real or vector"
    return KIND[key]


reals = st.floats(-3, 3)
positive = st.floats(0.1, 2)


@st.composite
def valid_configs(draw, mode):
    doc = {"mode": mode, **draw(st.sampled_from([{}, {"beta": 1.0}, {"beta": 0.5},
                                                 {"beta": 1}]))}
    if mode in EXTRACTED and draw(st.booleans()):
        doc["extracted"] = draw(st.booleans())
    if mode in ("enumerate", "equality", "crooks"):
        d = draw(st.integers(2, 3))
        energies = st.lists(reals, min_size=d, max_size=d)
        eye = np.eye(d).tolist()
        step = st.one_of(
            energies.map(lambda e: {"type": "change", "levels": e, "jump": eye}),
            st.just({"type": "thermalize", "full": True}),
            st.just({"type": "thermalize", "hop": eye}))
        doc.update(levels=draw(energies), rho0=[1.0 / d] * d,
                   steps=draw(st.lists(step, min_size=1, max_size=3)))
        if mode == "equality":
            doc["in_levels"] = draw(st.lists(st.integers(0, d - 1), min_size=1,
                                             max_size=d, unique=True))
            if draw(st.booleans()):
                doc["eps"] = draw(st.floats(0, 0.5))
        if mode == "enumerate" and draw(st.booleans()):
            doc["bin_tolerance"] = draw(st.floats(1e-12, 1e-6))
        return doc
    doc.update(gamma0=draw(positive), eps_c=draw(positive))
    if mode == "ebox-sweep":
        doc.update(durations=draw(st.lists(positive, min_size=1, max_size=3)),
                   eps=draw(st.floats(0.01, 0.5) | st.lists(st.floats(0.01, 0.5),
                                                            min_size=1, max_size=2)),
                   eps_max=draw(positive), n_traj=draw(st.integers(1, 20)),
                   n_steps=draw(st.integers(1, 300)))
        if draw(st.booleans()):
            doc["seed"] = draw(st.integers(0, MAX_SEED))
        return doc
    doc["ramp"] = draw(st.one_of(
        st.builds(lambda a, b, t: {"shape": "linear", "eps0": a, "epsf": b, "tau": t},
                  reals, reals, positive),
        st.builds(lambda e, t: {"shape": "updown", "eps_max": e, "tau": t},
                  positive, positive),
        st.builds(lambda t, v: {"shape": "points", "times": [0.0, t], "values": v},
                  positive, st.lists(reals, min_size=2, max_size=2))))
    if draw(st.booleans()):
        doc["rho0"] = draw(st.sampled_from(["gibbs", [1.0, 0.0], [0.5, 0.5]]))
    if mode == "ebox-mc":
        doc.update(n_traj=draw(st.integers(1, 50)), n_steps=draw(st.integers(1, 20)))
        if draw(st.booleans()):
            doc.update(seed=draw(st.integers(0, MAX_SEED)),
                       n_bins=draw(st.integers(1, 10)))
    elif mode == "ebox-series":
        doc["w_grid"] = sorted(draw(st.lists(reals, min_size=2, max_size=5,
                                             unique=True)))
        if draw(st.booleans()):
            doc["j_max"] = draw(st.integers(0, 3))
    else:
        doc["xi_values"] = draw(st.lists(reals, max_size=3))
        if draw(st.booleans()):
            doc["n_steps"] = float(draw(st.integers(1, 100)))
    return doc


@st.composite
def mutations(draw, mode, doc):
    """``doc`` with one mutation: a required key dropped, an unread key added,
    a value of a rejected type, or a broken ``steps[i]``/``ramp`` object."""
    doc = json.loads(json.dumps(doc))
    nested = "steps" if "steps" in doc else "ramp" if "ramp" in doc else None
    how = draw(st.sampled_from(["drop", "add", "retype"] + [nested] * bool(nested)))
    if how == "drop":
        del doc[draw(st.sampled_from(["mode", *REQUIRED[mode]]))]
    elif how == "add":
        key = draw(st.sampled_from(sorted(ALL_KEYS - READ[mode])) | st.text(max_size=8))
        doc[key] = draw(JSON)
        assume(key not in READ[mode])
    elif how == "retype":
        key = draw(st.sampled_from(sorted(doc)))
        doc[key] = draw(REJECTED[kind(mode, key)])
    else:
        if nested == "steps":
            obj = draw(st.sampled_from(doc["steps"]))
            tag, names = "type", ("change", "thermalize")
        else:
            obj, tag, names = doc["ramp"], "shape", ("linear", "updown", "points")
        part = draw(st.sampled_from(["drop", "add", "tag", "retype"]))
        if part == "drop":
            del obj[draw(st.sampled_from(sorted(obj)))]
        elif part == "add":
            obj[draw(st.text(max_size=8).filter(lambda k: k not in obj))] = draw(JSON)
        elif part == "tag":
            obj[tag] = draw(JSON.filter(lambda v: v not in names))
        else:
            key = draw(st.sampled_from(sorted(set(obj) - {tag})))
            obj[key] = draw(REJECTED[KIND[key]])
    return doc


class TestConfigContract:
    def test_readme_table_mirrors_the_schema(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \| [^|]+ \| ([^|]+) \|$",
                          readme, re.M)
        assert ("mode", "all", "required") in rows
        documented = {}
        for key, modes, default in rows:
            modes = cli._SCHEMA if modes.strip() == "all" else modes.strip().split(", ")
            for mode in modes:
                documented[mode, key] = default.strip("`")
        schema = {(mode, key): default for mode, keys in cli._SCHEMA.items()
                  for key, (_, default) in keys.items()}
        assert set(documented) - {(mode, "mode") for mode in cli._SCHEMA} == set(schema)
        for pair, default in schema.items():
            if default is cli._REQUIRED:
                assert documented[pair] == "required", pair
            else:
                assert json.loads(documented[pair]) == default, pair

    def test_readme_configs_run(self, tmp_path, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```json\n(.*?)^```$", readme, re.M | re.S)
        assert len(blocks) >= 2
        for block in blocks:
            path = tmp_path / "readme.json"
            path.write_text(block)
            assert main(["--config", str(path)]) == 0, capsys.readouterr().err

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_mutation_exits_2(self, data, tmp_path, capsys):
        mode = data.draw(st.sampled_from(sorted(REQUIRED)))
        doc = data.draw(valid_configs(mode))
        load_config(write_config(tmp_path, doc))  # the drawn config is valid
        bad = data.draw(mutations(mode, doc))
        path = write_config(tmp_path, bad)
        capsys.readouterr()
        try:
            code = main(["--config", path])
        except Exception as exc:  # noqa: BLE001 - the property is that none escape
            pytest.fail(f"{type(exc).__name__} escaped main on {bad}: {exc}")
        err = capsys.readouterr().err
        assert code == 2, (bad, err)
        assert err.startswith("error: invalid-input:"), err
