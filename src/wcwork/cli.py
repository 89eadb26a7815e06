"""Command-line front end.

One run = one JSON config file, its only input (``--out`` only redirects the
output): a JSON object whose ``mode`` key selects the computation, and
``_SCHEMA`` lists every other key the mode reads:

  enumerate     exact work distribution of a discrete protocol (CSV: w,p)
  equality      worst-case-work equality report (flat JSON)
  crooks        fluctuation-relation residuals of a discrete protocol (JSON)
  ebox-mc       Monte Carlo electron-box work samples, binned (CSV)
  ebox-series   jump-expansion work distribution (CSV: w_lo,w_hi,density)
  ebox-charfn   exp-tilted work averages on a grid of tilts (CSV: xi,z)
  ebox-sweep    guaranteed extracted work vs protocol speed (CSV)

Exit codes: 0 success, 2 invalid input/config or an unwritable ``--out``,
3 resource limit exceeded, 4 numerical failure.  Floats print as repr-faithful
%.17g, so output is byte-reproducible for a given config.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import ebox, engine, model, singleshot
from .errors import InvalidInputError, NumericError, ResourceLimitError

_REQUIRED = object()
_FLOAT_MAX = sys.float_info.max


def _bad(path, what):
    return InvalidInputError(f"{path or 'config'} must be {what}")


# Checks: check(value, path) validates a JSON value and gives its converted
# form, or raises InvalidInputError naming the key path.

def _real(value, path):
    if type(value) not in (int, float) or not abs(value) <= _FLOAT_MAX:
        raise _bad(path, "a finite number")
    return float(value)


def _count(minimum, maximum=None):
    """An integer (a JSON integer or an integral float such as 1e5)."""
    what = f"an integer >= {minimum}" + (f" and <= {maximum}" if maximum else "")

    def count(value, path):
        if type(value) is float and value.is_integer():
            value = int(value)
        if (type(value) is not int or value < minimum
                or maximum is not None and value > maximum):
            raise _bad(path, what)
        return value
    return count


def _list(check):
    def checked_list(value, path):
        if not isinstance(value, list):
            raise _bad(path, "a list")
        return [check(x, f"{path}[{i}]") for i, x in enumerate(value)]
    return checked_list


def _vector(value, path):
    return np.array(_reals(value, path), dtype=float)


_reals, _vectors = _list(_real), _list(_vector)


def _matrix(value, path):
    rows = _vectors(value, path)
    if len({row.size for row in rows}) > 1:
        raise _bad(path, "a list of equal-length rows")
    return np.array(rows).reshape(len(rows), rows[0].size if rows else 0)


def _choice(*options):
    types = {type(o) for o in options}

    def choice(value, path):
        if type(value) not in types or value not in options:
            raise _bad(path, "one of " + ", ".join(map(json.dumps, options)))
        return value
    return choice


def _vector_or(check):
    """A list of finite numbers, or else a value that passes ``check``."""
    def vector_or(value, path):
        return (_vector if isinstance(value, list) else check)(value, path)
    return vector_or


def _fields(obj, schema, prefix):
    unknown = sorted(set(obj) - set(schema))
    if unknown:
        raise InvalidInputError("unknown config keys: " + ", ".join(
            prefix + k for k in unknown))
    out = {}
    for key, (check, default) in schema.items():
        if key in obj:
            out[key] = check(obj[key], prefix + key)
        elif default is _REQUIRED:
            raise InvalidInputError(f"{prefix}{key} is required")
        else:
            out[key] = default
    return out


def _tagged(tag, variants, pick=None):
    """An object whose variant, its ``tag`` value or ``pick(obj)``, selects
    the schema of its other keys; converts to those fields plus ``tag`` set
    to the variant's name.  A name's part before '/' is the tag value."""
    names = ", ".join(dict.fromkeys(v.partition("/")[0] for v in variants))

    def tagged(value, path):
        if not isinstance(value, dict):
            raise _bad(path, "an object")
        prefix = f"{path}." if path else ""
        name = pick(value) if pick else value.get(tag)
        if not isinstance(name, str) or name not in variants:
            raise _bad(prefix + tag, f"one of {names}")
        out = _fields({k: v for k, v in value.items() if k != tag},
                      variants[name], prefix)
        out[tag] = name
        return out
    return tagged


def _step_kind(step):
    kind = step.get("type")
    if kind == "thermalize":
        return "thermalize/full" if "full" in step else "thermalize/hop"
    return kind


_STEP = _tagged("type", {
    "change": {"levels": (_vector, _REQUIRED), "jump": (_matrix, _REQUIRED)},
    "thermalize/hop": {"hop": (_matrix, _REQUIRED)},
    "thermalize/full": {"full": (_choice(True), _REQUIRED)},
}, pick=_step_kind)

_RAMP = _tagged("shape", {
    "linear": {k: (_real, _REQUIRED) for k in ("eps0", "epsf", "tau")},
    "updown": {"eps_max": (_real, _REQUIRED), "tau": (_real, _REQUIRED)},
    "points": {"times": (_vector, _REQUIRED), "values": (_vector, _REQUIRED)},
})

# Philox keys are 64-bit; ebox-sweep adds the duration index to the seed
_SEED = _count(0, 2**63 - 1)

_BETA = {"beta": (_real, 1.0)}  # 1: energies in kT
_EXTRACTED = {"extracted": (_choice(True, False), False)}  # report -w
_DISCRETE = {**_BETA, "levels": (_vector, _REQUIRED),
             "rho0": (_vector, _REQUIRED), "steps": (_list(_STEP), _REQUIRED)}
_EBOX = {**_BETA, "gamma0": (_real, _REQUIRED), "eps_c": (_real, _REQUIRED)}
_RAMPED = {**_EBOX, "ramp": (_RAMP, _REQUIRED),
           "rho0": (_vector_or(_choice("gibbs")), "gibbs")}
_SAMPLED = {"n_traj": (_count(1), _REQUIRED), "n_steps": (_count(1), _REQUIRED),
            "seed": (_SEED, ebox.DEFAULT_SEED)}

_SCHEMA = {
    "enumerate": {**_DISCRETE, **_EXTRACTED,
                  "bin_tolerance": (_real, engine.DEFAULT_BIN_TOLERANCE)},
    "equality": {**_DISCRETE, **_EXTRACTED, "in_levels": (_list(_count(0)), _REQUIRED),
                 "eps": (_real, 0.0)},
    "crooks": _DISCRETE,
    "ebox-mc": {**_RAMPED, **_SAMPLED, **_EXTRACTED, "n_bins": (_count(1), 60)},
    "ebox-series": {**_RAMPED, **_EXTRACTED, "j_max": (_count(0), 3),
                    "w_grid": (_vector, _REQUIRED)},
    "ebox-charfn": {**_RAMPED, "xi_values": (_vector, _REQUIRED),
                    "n_steps": (_count(1), 2000)},
    "ebox-sweep": {**_EBOX, **_SAMPLED, "durations": (_vector, _REQUIRED),
                   "eps": (_vector_or(_real), _REQUIRED),
                   "eps_max": (_real, _REQUIRED)},
}

_CONFIG = _tagged("mode", _SCHEMA)


def load_config(path: str) -> dict:
    """The config at ``path`` as a dict of converted values: every key its mode
    reads, defaults filled in."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read config: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise InvalidInputError(f"config is not valid JSON: {exc}") from exc
    return _CONFIG(doc, "")


def _build_protocol(cfg):
    beta = cfg["beta"]
    landscape = model.EnergyLandscape(cfg["levels"])
    rho0 = model.DiagonalState(cfg["rho0"])
    steps, current = [], landscape
    for step in cfg["steps"]:
        if step["type"] == "change":
            current = model.EnergyLandscape(step["levels"])
            steps.append(model.HamiltonianChange(target=current, jump=step["jump"]))
        elif step["type"] == "thermalize/full":
            steps.append(model.Thermalization(
                hop=model.partial_swap_hop_matrix(current, beta, 1.0)))
        else:
            steps.append(model.Thermalization(hop=step["hop"]))
    return model.Protocol(initial=landscape, beta=beta, steps=tuple(steps)), rho0


def _ramp(spec) -> ebox.Ramp:
    if spec["shape"] == "linear":
        return ebox.linear_ramp(spec["eps0"], spec["epsf"], spec["tau"])
    if spec["shape"] == "updown":
        return ebox.szilard_ramp(spec["eps_max"], spec["tau"])
    return ebox.Ramp(spec["times"], spec["values"])


def _csv_lines(header, rows):
    lines = [header] + [",".join("%.17g" % x for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(doc):  # a value that is not finite is a NumericError, not JSON
    for key, value in doc.items():
        if not math.isfinite(value):
            raise NumericError(f"{key} = {value} is not finite")
    return json.dumps(doc, indent=2, default=float) + "\n"


def _run(cfg: dict) -> str:
    extracted = cfg.get("extracted", False)

    def signed(w):
        # 0.0 - w, unlike -w, maps a zero work to +0.0
        return 0.0 - w if extracted else w

    mode = cfg["mode"]
    if mode == "enumerate":
        protocol, rho0 = _build_protocol(cfg)
        dist = engine.work_distribution(protocol, rho0, cfg["bin_tolerance"])
        return _csv_lines("w,p", [(signed(w), p) for w, p in dist.atoms.tolist()])

    if mode == "equality":
        protocol, rho0 = _build_protocol(cfg)
        partition = model.LevelPartition(in_set=cfg["in_levels"], d=protocol.d)
        if cfg["eps"] == 0.0:
            rep = singleshot.main_equality_report(rho0, protocol, partition)
        else:
            rep = singleshot.work_tail_equality_report(
                rho0, protocol, partition, cfg["eps"])
        doc = {"w0_in": signed(rep.w0_in), "d_infinity": rep.d_infinity_term,
               "optimum": rep.optimum_term, "log1meps": rep.log1meps_term,
               "residual": rep.residual, "eps": rep.eps,
               "mild_assumption_ok": rep.mild_assumption_ok,
               "tail_bound": rep.tail_bound}
        return _json(doc)

    if mode == "crooks":
        protocol, rho0 = _build_protocol(cfg)
        beta = protocol.beta
        _, log_z0 = model.make_thermal_state(protocol.initial, beta)
        gamma_f, log_zf = model.make_thermal_state(protocol.final_landscape, beta)
        fwd = engine.work_distribution(protocol, rho0, 0.0)
        rev = engine.work_distribution(model.reverse_protocol(protocol), gamma_f, 0.0)
        crooks = engine.crooks_residual(fwd, rev, log_z0, log_zf, beta)
        try:
            z_ratio = math.exp(log_zf - log_z0)
        except OverflowError:  # Zf/Z0 past the double range: _json reports it
            z_ratio = math.inf
        doc = {"max_crooks_residual": crooks,
               "jarzynski_residual": abs(engine.jarzynski_sum(fwd, beta) - z_ratio),
               "log_z_ratio": log_zf - log_z0}
        return _json(doc)

    params = ebox.EboxParams(cfg["gamma0"], cfg["eps_c"], cfg["beta"])
    if mode == "ebox-sweep":
        return _csv_lines("speed,eps,w_eps,stderr", ebox.szilard_sweep(
            cfg["durations"], cfg["eps"], cfg["eps_max"], cfg["n_traj"],
            cfg["n_steps"], cfg["seed"], params))

    ramp = _ramp(cfg["ramp"])
    rho0 = cfg["rho0"]
    if isinstance(rho0, str):  # "gibbs": the Gibbs state at the ramp's start
        rho0 = np.array(ebox.gibbs_occupations(ramp(0.0), params.beta))

    if mode == "ebox-mc":
        dist = ebox.monte_carlo_work(
            ramp, rho0, cfg["n_traj"], cfg["n_steps"], cfg["seed"], params)
        if dist.samples.min() == dist.samples.max():
            # degenerate sample set (e.g. decoupled bath): emit the atom
            return _csv_lines("w,p", [(signed(dist.samples[0]), 1.0)])
        counts, edges = np.histogram(signed(dist.samples), bins=cfg["n_bins"])
        density = counts / (dist.samples.size * np.diff(edges))
        return _csv_lines("w_lo,w_hi,density", zip(edges[:-1], edges[1:], density))

    if mode == "ebox-series":
        dist = ebox.analytic_work_distribution(
            ramp, cfg["j_max"], cfg["w_grid"], rho0, params)
        # Atoms are emitted as zero-width rows whose 'density' column holds
        # the point mass itself.
        rows = [(signed(w), signed(w), p) for w, p in dist.atoms]
        lo, hi = dist.bin_edges[:-1], dist.bin_edges[1:]
        if extracted:
            lo, hi = signed(hi), signed(lo)
        rows += zip(lo, hi, dist.bin_masses / np.diff(dist.bin_edges))
        return _csv_lines("w_lo,w_hi,density", rows)

    # ebox-charfn
    z = ebox.characteristic_function(
        cfg["xi_values"], ramp, rho0, cfg["n_steps"], params)
    return _csv_lines("xi,z", zip(cfg["xi_values"], z))


_PARSER = argparse.ArgumentParser(prog="wcwork", description=(
    "Work statistics of driven systems coupled to a heat bath."))
_PARSER.add_argument("--config", required=True, help="path to a JSON config")
_PARSER.add_argument("--out", help="output file (default: stdout)")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        text = _run(load_config(args.config))
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise InvalidInputError(f"cannot write --out: {exc}") from exc
        else:
            sys.stdout.write(text)
    except InvalidInputError as exc:
        print(f"error: invalid-input: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: resource-limit: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
