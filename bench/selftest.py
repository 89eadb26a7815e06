"""Show that every correctness check of the benchmark can fail.

    python3 bench/selftest.py

For each workload, one round is run on seed 1 and its outputs are checked:
only the known-fault operations may be flagged.  Then each perturbation
below changes outputs the way a fault would (a residual of 1e-6, a dropped
atom, sweep rows out of order, ...) and the check must flag the operation
named with it.  Exits 1 if an unperturbed output is flagged or a perturbed
one passes.
"""

import argparse
import dataclasses
import importlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import CliRun  # noqa: E402

swap = dataclasses.replace


def edit_json(cli_run, **changes):
    doc = json.loads(cli_run.out)
    doc.update(changes)
    return CliRun(cli_run.code, json.dumps(doc), cli_run.err)


def many_cases(wl, out, refs):
    """(description, label that must be flagged, {label: perturbed output})."""
    k = next(i for i, (c, r) in enumerate(zip(wl.cases, refs))
             if r["mild"] and not c["flat"])
    f = next(i for i, c in enumerate(wl.cases) if c["flat"])
    eq = out[f"{k}.equality"]
    w0 = json.loads(eq.out)["w0_in"]
    lines = out[f"{k}.enumerate"].out.strip().splitlines()
    w, p = lines[1].split(",")
    moved = lines[:1] + [f"{float(w) + 1e-6!r},{p}"] + lines[2:]
    return [
        ("equality residual 1e-6", f"{k}.equality",
         {f"{k}.equality": edit_json(eq, residual=1e-6)}),
        ("w0_in off by 1e-6", f"{k}.equality",
         {f"{k}.equality": edit_json(eq, w0_in=w0 + 1e-6)}),
        ("mild-assumption flag flipped", f"{k}.equality",
         {f"{k}.equality": edit_json(eq, mild_assumption_ok=False)}),
        ("flat-landscape optimum off by 1e-9", f"{f}.equality",
         {f"{f}.equality": edit_json(out[f"{f}.equality"],
                                     optimum=refs[f]["flat_optimum"] + 1e-9)}),
        ("tail-equality residual 1e-6", f"{k}.tail",
         {f"{k}.tail": edit_json(out[f"{k}.tail"], residual=1e-6)}),
        ("Crooks residual 1e-6", f"{k}.crooks",
         {f"{k}.crooks": edit_json(out[f"{k}.crooks"], max_crooks_residual=1e-6)}),
        ("Jarzynski residual 1e-6", f"{k}.crooks",
         {f"{k}.crooks": edit_json(out[f"{k}.crooks"], jarzynski_residual=1e-6)}),
        ("enumerated atom dropped", f"{k}.enumerate",
         {f"{k}.enumerate": CliRun(0, "\n".join(lines[:1] + lines[2:]) + "\n", "")}),
        ("enumerated atom moved by 1e-6", f"{k}.enumerate",
         {f"{k}.enumerate": CliRun(0, "\n".join(moved) + "\n", "")}),
        ("exit code 2", f"{k}.crooks", {f"{k}.crooks": CliRun(2, "", "error")}),
    ]


def deep_cases(wl, out, refs):
    fwd, z0 = out["0.forward"]
    rev, zf = out["1.reverse"]
    atoms = list(fwd.atoms)
    moved = atoms[:5] + [(atoms[5][0] + 1e-6, atoms[5][1])] + atoms[6:]
    eq, tail = out["0.equality"], out["0.tail"]
    return [
        ("forward atom dropped", "0.forward",
         {"0.forward": (swap(fwd, atoms=tuple(atoms[1:])), z0)}),
        ("forward atom moved by 1e-6", "0.forward",
         {"0.forward": (swap(fwd, atoms=tuple(moved)), z0)}),
        ("reverse atom dropped", "1.reverse",
         {"1.reverse": (swap(rev, atoms=rev.atoms[:-1]), zf)}),
        ("Crooks residual 1e-6", "0.crooks", {"0.crooks": 1e-6}),
        ("Jarzynski sum off by 1e-9", "0.jarzynski",
         {"0.jarzynski": out["0.jarzynski"] + 1e-9}),
        ("equality residual 1e-6", "0.equality",
         {"0.equality": swap(eq, residual=1e-6)}),
        ("w0_in off by 1e-6", "1.equality",
         {"1.equality": swap(out["1.equality"], w0_in=out["1.equality"].w0_in + 1e-6)}),
        ("mild-assumption flag flipped", "0.equality",
         {"0.equality": swap(eq, mild_assumption_ok=False)}),
        ("tail-equality residual 1e-6", "0.tail",
         {"0.tail": swap(tail, residual=1e-6)}),
        ("out-of-set probability above the tail bound", "0.out_of_set",
         {"0.out_of_set": tail.tail_bound + 1e-6}),
    ]


def crossval_cases(wl, out, refs):
    mc = out["mc"]
    grid, occ = out["master"]
    shifted = occ.copy()
    shifted[-1] += (-0.02, 0.02)
    chain_t, chain_occ = out["chain.1000"]
    crooks = out["crooks"]
    return [
        ("Monte Carlo works shifted by 0.05", "mc",
         {"mc": swap(mc, samples=mc.samples + 0.05)}),
        ("Monte Carlo sample dropped", "mc", {"mc": swap(mc, samples=mc.samples[1:])}),
        ("series remainder 0.06", "series",
         {"series": swap(out["series"], remainder=0.06)}),
        ("final occupation off by 0.02", "master", {"master": (grid, shifted)}),
        ("mean work off by 0.05", "mean_work",
         {"mean_work": (out["mean_work"][0] + 0.05, None)}),
        ("Z(0.5) off by 5 %", "charfn.0.5", {"charfn.0.5": out["charfn.0.5"] * 1.05}),
        ("Z(-beta) off by 1e-6", "jarzynski.linear",
         {"jarzynski.linear": out["jarzynski.linear"] * (1 + 1e-6)}),
        ("partial-swap chain error not halving", "chain.1000",
         {"chain.1000": (chain_t, chain_occ + 1e-3)}),
        ("Crooks residuals ten times larger", "crooks",
         {"crooks": swap(crooks, residuals=crooks.residuals * 10 + 1e-3)}),
    ]


def sweep_cases(wl, out, refs):
    t0, t1, t2 = (f"sweep.{t:g}" for t in wl.DURATIONS)
    m2 = f"master.{wl.DURATIONS[2]:g}"
    grid, occ = out[m2]
    full, low = occ.copy(), occ.copy()
    full[:, 1] = 1.0
    low[:, 1] *= 0.5
    q01, q50 = out[t2]
    return [
        ("sweep rows out of order", t0, {t0: out[t0][::-1]}),
        ("eps=0.5 leg flat", t2, {t2: [q01, q50[:2] + (out[t1][1][2], q50[3])]}),
        ("eps=0.01 leg falling", t2,
         {t2: [q01[:2] + (out[t1][0][2] - 0.01, q01[3]), q50]}),
        ("median at ln 2", t2, {t2: [q01, q50[:2] + (math.log(2.0), q50[3])]}),
        ("eps=0.01 quantile above the median", t1,
         {t1: [out[t1][0][:2] + (0.66, 1e-9), out[t1][1]]}),
        ("master-equation mean above the ceiling", m2, {m2: (grid, full)}),
        ("median above the master-equation mean", t2, {m2: (grid, low)}),
        ("a mended CLI sweep with rows out of order", "cli.no-ramp",
         {"cli.no-ramp": CliRun(0, "speed,eps,w_eps,stderr\n"
                                   "0.083333333333333329,0.5,0.3,0.01\n"
                                   "0.16666666666666666,0.5,0.2,0.01\n", "")}),
    ]


CASES = {
    "equality-many": many_cases,
    "equality-deep": deep_cases,
    "ebox-crossval": crossval_cases,
    "ebox-sweep": sweep_cases,
}


def main():
    modules = {name: importlib.import_module(f"wcwork.{name}") for name in run.MODULES}
    wc = argparse.Namespace(**modules)
    ok = True
    for name, cls in workloads.WORKLOADS.items():
        (BENCH / ".work").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BENCH / ".work") as workdir:
            wl = cls(wc, 1, workdir)
            wl.write_files()
            ops = wl.operations()
            outputs, _, _ = run.run_round(ops)
        refs = wl.references()
        known = {op.label for op in ops if op.known_fault}
        base = run.evaluate(wl, ops, outputs, refs)
        stray = sorted(str(label) for label in base if label not in known)
        print(f"{name}: unperturbed round flags {sorted(map(str, base))}")
        if stray:
            ok = False
            print(f"  FAIL: flagged outside the known faults: {stray}")
        for desc, label, changes in CASES[name](wl, outputs, refs):
            found = run.evaluate(wl, ops, dict(outputs, **changes), refs)
            rejected = label in found and found[label] != base.get(label)
            ok &= rejected
            print(f"  {'rejected' if rejected else 'NOT REJECTED'}: {desc} "
                  f"({label}: {found.get(label, ['passed'])[-1]})")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
