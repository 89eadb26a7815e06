"""End-to-end tests of the command-line front end."""

import json
import math

import numpy as np
import pytest

from wcwork import engine
from wcwork.cli import load_config, main


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)

def lift_config(out=None):
    doc = {
        "mode": "enumerate",
        "energy_units": "kT",
        "levels": [0.0, 0.0],
        "rho0": [0.9, 0.1],
        "steps": [
            {"type": "change", "levels": [0.0, 1.0],
             "jump": [[1.0, 0.0], [0.0, 1.0]]},
            {"type": "thermalize", "full": True},
        ],
    }
    if out:
        doc["out"] = out
    return doc


def degenerate_equality_config():
    return {
        "mode": "equality",
        "energy_units": "kT",
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

    def test_missing_beta_in_absolute_units(self, tmp_path, capsys):
        doc = degenerate_equality_config()
        doc["energy_units"] = "absolute"
        path = write_config(tmp_path, doc)
        assert main(["--config", path]) == 2
        assert "beta" in capsys.readouterr().err

    def test_nonunit_beta_with_kt_units_rejected(self, tmp_path, capsys):
        doc = degenerate_equality_config()
        doc["beta"] = 2.0
        path = write_config(tmp_path, doc)
        assert main(["--config", path]) == 2

    def test_round_trip_document(self, tmp_path):
        doc = degenerate_equality_config()
        cfg = load_config(write_config(tmp_path, doc), {})
        assert cfg.to_document() == doc


class TestEnumerate:
    def test_lift_protocol_csv(self, tmp_path, capsys):
        path = write_config(tmp_path, lift_config())
        assert main(["--config", path]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "w,p"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert rows == [(0.0, 0.9), (1.0, 0.1)]

    def test_extracted_negates_work(self, tmp_path, capsys):
        path = write_config(tmp_path, lift_config())
        assert main(["--config", path, "--extracted"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert {w for w, _ in rows} == {0.0, -1.0}

    def test_out_file(self, tmp_path):
        target = tmp_path / "dist.csv"
        path = write_config(tmp_path, lift_config(out=str(target)))
        assert main(["--config", path]) == 0
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
            "energy_units": "kT",
            "levels": [0.0, 0.0, 0.0, 0.0],
            "rho0": [0.25, 0.25, 0.25, 0.25],
            "steps": [{"type": "thermalize", "full": True}] * 13,
        }
        path = write_config(tmp_path, doc)
        assert main(["--config", path]) == 0
        assert capsys.readouterr().out == "w,p\n0,1\n"


class TestEquality:
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

    def test_tail_mode_reports_eps(self, tmp_path, capsys):
        doc = degenerate_equality_config()
        doc["eps"] = 0.05
        path = write_config(tmp_path, doc)
        assert main(["--config", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["eps"] == 0.05
        assert out["residual"] <= 1e-12


class TestCrooks:
    def test_thermal_protocol_residuals_vanish(self, tmp_path, capsys):
        z0 = 2.0
        doc = {
            "mode": "crooks",
            "energy_units": "kT",
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
            "energy_units": "kT",
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
        # --seed overrides the config seed
        assert main(["--config", path, "--seed", "6"]) == 0
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

    def test_sweep_header_and_speeds(self, tmp_path, capsys):
        doc = {
            "mode": "ebox-sweep",
            "energy_units": "kT",
            "gamma0": 1.0,
            "eps_c": 1.0,
            "ramp": {"shape": "updown", "eps_max": 4.0, "tau": 4.0},
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
            "ramp": {"shape": "updown", "eps_max": 4.0, "tau": 4.0},
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

    def test_bad_ramp_shape(self, tmp_path, capsys):
        doc = self.ebox_base()
        doc.update({"mode": "ebox-mc", "n_traj": 10, "n_steps": 10})
        doc["ramp"] = {"shape": "spiral", "tau": 1.0}
        path = write_config(tmp_path, doc)
        assert main(["--config", path]) == 2

    def test_threads_flag_does_not_change_output(self, tmp_path, capsys):
        doc = self.ebox_base()
        doc.update({"mode": "ebox-mc", "n_traj": 1000, "n_steps": 50, "seed": 2})
        path = write_config(tmp_path, doc)
        assert main(["--config", path, "--threads", "1"]) == 0
        one = capsys.readouterr().out
        assert main(["--config", path, "--threads", "4"]) == 0
        assert capsys.readouterr().out == one
