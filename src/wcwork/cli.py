"""Command-line front end.

One run = one JSON config file + flag overrides.  The config is a flat JSON
object whose ``mode`` key selects the computation:

  enumerate     exact work distribution of a discrete protocol (CSV: w,p)
  equality      worst-case-work equality report (flat JSON)
  crooks        fluctuation-relation residuals of a discrete protocol (JSON)
  ebox-mc       Monte Carlo electron-box work samples, binned (CSV)
  ebox-series   jump-expansion work distribution (CSV: w_lo,w_hi,density)
  ebox-charfn   exp-tilted work averages on a grid of tilts (CSV: xi,z)
  ebox-sweep    guaranteed extracted work vs protocol speed (CSV)

Exit codes: 0 success, 2 invalid input/config, 3 resource limit exceeded,
4 numerical failure.  Floats are printed with repr-faithful %.17g so outputs
are byte-reproducible for a given config and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import ebox, engine, model, singleshot
from .errors import InvalidInputError, NumericError, ResourceLimitError

_MODES = (
    "enumerate",
    "equality",
    "crooks",
    "ebox-mc",
    "ebox-series",
    "ebox-charfn",
    "ebox-sweep",
)

_KNOWN_KEYS = {
    "mode", "beta", "energy_units", "levels", "rho0", "steps", "in_levels",
    "eps", "bin_tolerance", "gamma0", "eps_c", "ramp", "n_traj", "n_steps",
    "seed", "j_max", "w_grid", "durations", "eps_max", "xi_values", "n_bins",
    "out",
}


@dataclasses.dataclass
class RunConfig:
    """Validated run settings; ``raw`` keeps the original document for echo."""

    mode: str
    raw: dict

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def require(self, key):
        if key not in self.raw:
            raise InvalidInputError(f"config key '{key}' is required for mode "
                                    f"'{self.mode}'")
        return self.raw[key]

    def to_document(self) -> dict:
        return dict(self.raw)


def load_config(path: str, overrides: dict) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInputError("config must be a JSON object")
    unknown = sorted(set(doc) - _KNOWN_KEYS)
    if unknown:
        raise InvalidInputError(f"unknown config keys: {', '.join(unknown)}")
    doc.update({k: v for k, v in overrides.items() if v is not None})
    mode = doc.get("mode")
    if mode not in _MODES:
        raise InvalidInputError(
            f"config key 'mode' must be one of {', '.join(_MODES)}"
        )
    return RunConfig(mode=mode, raw=doc)


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _beta(cfg: RunConfig) -> float:
    units = cfg.get("energy_units", "kT")
    if units not in ("kT", "absolute"):
        raise InvalidInputError("energy_units must be 'kT' or 'absolute'")
    if units == "kT":
        if "beta" in cfg.raw and cfg.raw["beta"] != 1.0:
            raise InvalidInputError("beta must be 1 when energy_units is kT")
        return 1.0
    return float(cfg.require("beta"))


def _build_protocol(cfg: RunConfig):
    beta = _beta(cfg)
    landscape = model.EnergyLandscape(np.asarray(cfg.require("levels"), float))
    rho0 = model.DiagonalState(np.asarray(cfg.require("rho0"), float))
    steps = []
    current = landscape
    for k, raw in enumerate(cfg.require("steps")):
        if not isinstance(raw, dict) or "type" not in raw:
            raise InvalidInputError(f"steps[{k}] must be an object with 'type'")
        kind = raw["type"]
        if kind == "change":
            current = model.EnergyLandscape(np.asarray(raw["levels"], float))
            steps.append(model.HamiltonianChange(
                target=current, jump=np.asarray(raw["jump"], float)))
        elif kind == "thermalize":
            if raw.get("full", False):
                hop = model.partial_swap_hop_matrix(current, beta, 1.0)
            else:
                hop = np.asarray(raw["hop"], float)
            steps.append(model.Thermalization(hop=hop))
        else:
            raise InvalidInputError(
                f"steps[{k}].type must be 'change' or 'thermalize'")
    protocol = model.Protocol(initial=landscape, beta=beta, steps=tuple(steps))
    return protocol, rho0


def _ebox_params(cfg: RunConfig) -> ebox.EboxParams:
    return ebox.EboxParams(
        gamma0=float(cfg.require("gamma0")),
        eps_c=float(cfg.require("eps_c")),
        beta=_beta(cfg),
    )


def _ramp(cfg: RunConfig) -> ebox.Ramp:
    spec = cfg.require("ramp")
    if not isinstance(spec, dict) or "shape" not in spec:
        raise InvalidInputError("config key 'ramp' must be an object with 'shape'")
    shape = spec["shape"]
    if shape == "linear":
        return ebox.linear_ramp(float(spec["eps0"]), float(spec["epsf"]),
                                float(spec["tau"]))
    if shape == "updown":
        return ebox.szilard_ramp(float(spec["eps_max"]), float(spec["tau"]))
    if shape == "points":
        return ebox.Ramp(np.asarray(spec["times"], float),
                         np.asarray(spec["values"], float))
    raise InvalidInputError("ramp shape must be 'linear', 'updown', or 'points'")


def _ebox_rho0(cfg: RunConfig, ramp, beta) -> np.ndarray:
    raw = cfg.get("rho0", "gibbs")
    if raw == "gibbs":
        return np.array(ebox.gibbs_occupations(float(ramp(0.0)), beta))
    return np.asarray(raw, dtype=float)


def _csv_lines(header, rows):
    out = [header]
    out.extend(",".join(_fmt(x) for x in row) for row in rows)
    return "\n".join(out) + "\n"


def _run(cfg: RunConfig, seed: int, extracted: bool) -> str:
    def signed(w):
        # 0.0 - w, unlike -w, maps a zero work to +0.0
        return 0.0 - w if extracted else w

    if cfg.mode == "enumerate":
        protocol, rho0 = _build_protocol(cfg)
        dist = engine.work_distribution(
            protocol, rho0, bin_tolerance=float(cfg.get("bin_tolerance", 1e-9)))
        return _csv_lines("w,p", [(signed(w), p) for w, p in dist.atoms.tolist()])

    if cfg.mode == "equality":
        protocol, rho0 = _build_protocol(cfg)
        partition = model.LevelPartition(
            in_set=frozenset(int(i) for i in cfg.require("in_levels")),
            d=protocol.d)
        eps = float(cfg.get("eps", 0.0))
        if eps == 0.0:
            rep = singleshot.main_equality_report(rho0, protocol, partition)
        else:
            rep = singleshot.work_tail_equality_report(
                rho0, protocol, partition, eps)
        doc = {
            "w0_in": signed(rep.w0_in),
            "d_infinity": rep.d_infinity_term,
            "optimum": rep.optimum_term,
            "log1meps": rep.log1meps_term,
            "residual": rep.residual,
            "eps": rep.eps,
            "mild_assumption_ok": rep.mild_assumption_ok,
            "tail_bound": rep.tail_bound,
        }
        return json.dumps(doc, indent=2, default=float) + "\n"

    if cfg.mode == "crooks":
        protocol, rho0 = _build_protocol(cfg)
        beta = protocol.beta
        _, z0 = model.make_thermal_state(protocol.initial, beta)
        gamma_f, zf = model.make_thermal_state(protocol.final_landscape, beta)
        fwd = engine.work_distribution(protocol, rho0)
        rev = engine.work_distribution(model.reverse_protocol(protocol), gamma_f)
        jz = engine.jarzynski_sum(fwd, beta)
        doc = {
            "max_crooks_residual": engine.crooks_residual(fwd, rev, z0, zf, beta),
            "jarzynski_residual": abs(jz - zf / z0),
            "log_z_ratio": math.log(zf / z0),
        }
        return json.dumps(doc, indent=2) + "\n"

    params = _ebox_params(cfg)
    if cfg.mode == "ebox-sweep":
        rows = ebox.szilard_sweep(
            [float(t) for t in cfg.require("durations")],
            cfg.require("eps"),
            float(cfg.require("eps_max")),
            int(cfg.require("n_traj")),
            int(cfg.require("n_steps")),
            seed,
            params,
        )
        return _csv_lines("speed,eps,w_eps,stderr", rows)

    ramp = _ramp(cfg)
    rho0 = _ebox_rho0(cfg, ramp, params.beta)

    if cfg.mode == "ebox-mc":
        dist = ebox.monte_carlo_work(
            ramp, rho0, int(cfg.require("n_traj")), int(cfg.require("n_steps")),
            seed, params)
        if dist.samples.min() == dist.samples.max():
            # degenerate sample set (e.g. decoupled bath): emit the atom
            return _csv_lines("w,p", [(signed(dist.samples[0]), 1.0)])
        n_bins = int(cfg.get("n_bins", 60))
        counts, edges = np.histogram(signed(dist.samples), bins=n_bins)
        widths = np.diff(edges)
        rows = [(edges[i], edges[i + 1], counts[i] / (dist.n * widths[i]))
                for i in range(n_bins)]
        return _csv_lines("w_lo,w_hi,density", rows)

    if cfg.mode == "ebox-series":
        w_grid = np.asarray(cfg.require("w_grid"), float)
        dist = ebox.analytic_work_distribution(
            ramp, int(cfg.get("j_max", 3)), w_grid, rho0, params)
        # Atoms are emitted as zero-width rows whose 'density' column holds
        # the point mass itself.
        rows = [(signed(w), signed(w), p) for w, p in dist.atoms]
        widths = np.diff(dist.bin_edges)
        for i, m in enumerate(dist.bin_masses):
            lo, hi = dist.bin_edges[i], dist.bin_edges[i + 1]
            if extracted:
                lo, hi = signed(hi), signed(lo)
            rows.append((lo, hi, m / widths[i]))
        return _csv_lines("w_lo,w_hi,density", rows)

    if cfg.mode == "ebox-charfn":
        xi_values = list(cfg.require("xi_values"))
        z = ebox.characteristic_function(
            xi_values, ramp, rho0, int(cfg.get("n_steps", 2000)), params)
        return _csv_lines("xi,z", zip(xi_values, z))

    raise InvalidInputError(f"unhandled mode {cfg.mode}")  # pragma: no cover


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wcwork",
        description="Work statistics of driven systems coupled to a heat bath.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--seed", type=int,
                        help=f"RNG seed (default {ebox.DEFAULT_SEED})")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for interface compatibility; results "
                             "never depend on it")
    parser.add_argument("--extracted", action="store_true",
                        help="report extracted work (-w) instead of work cost")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, {"out": args.out})
        if args.threads < 1:
            raise InvalidInputError("--threads must be >= 1")
        seed = args.seed
        if seed is None:
            seed = int(cfg.get("seed", ebox.DEFAULT_SEED))
        text = _run(cfg, seed, args.extracted)
    except InvalidInputError as exc:
        print(f"error: invalid-input: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: resource-limit: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 4

    out_path = cfg.get("out")
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
