"""Benchmark of wcwork: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload equality-many --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from the repository root.  One workload runs in this process: wcwork is
imported from ``src/``, the workload's inputs are generated from the seed,
one untimed warm-up round of its fixed batch of operations is run, and then
whole timed rounds for about ``--seconds``.  Every round's outputs, the
warm-up's too, are checked (see ``workloads.py``).  With ``--trace 0`` the
end-to-end metrics are printed; with ``--trace 1`` untraced and traced
rounds alternate and the per-layer metrics are printed.  ``--workload all``
runs every workload, each in its own process, and prints a summary.  The
last line of standard output is one JSON object: correct, attempted,
failed and metrics.

The BLAS thread count is pinned to ``BLAS_THREADS`` before numpy loads, so a
run measures one core's work whatever the machine.
"""

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("equality-many", "equality-deep", "ebox-crossval", "ebox-sweep")
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_TIMED_ROUNDS = 2
MODULES = ("cli", "model", "engine", "singleshot", "ebox")
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); "
                + "; ".join(f"import wcwork.{name}" for name in MODULES)
                + "; print(time.perf_counter() - t0)")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("cli.load_config.s", "s"), ("cli.output_bytes", "bytes"),
    ("model.Protocol.calls", "count"), ("model.Protocol.s", "s"),
    ("model.reverse_protocol.s", "s"), ("model.make_thermal_state.s", "s"),
    ("engine.work_distribution.calls", "count"), ("engine.work_distribution.s", "s"),
    ("engine.work_distribution.atoms", "count"), ("engine.bin_works.s", "s"),
    ("engine.crooks_residual.s", "s"), ("engine.jarzynski_sum.s", "s"),
    ("engine.epsilon_guaranteed_work.s", "s"),
    ("singleshot.build_tilde_scenario.self_s", "s"),
    ("singleshot.main_equality_report.s", "s"),
    ("singleshot.work_tail_equality_report.s", "s"),
    ("singleshot.d_infinity.s", "s"), ("singleshot.out_of_set_probability.s", "s"),
    ("ebox.monte_carlo_work.s", "s"), ("ebox.monte_carlo_work.traj_steps", "count"),
    ("ebox.monte_carlo_work.traj_steps_per_s", "1/s"), ("ebox.szilard_sweep.s", "s"),
    ("ebox.extracted_work_quantile.s", "s"), ("ebox.ebox_crooks_check.s", "s"),
    ("ebox.characteristic_function.calls", "count"),
    ("ebox.characteristic_function.s", "s"), ("ebox.mean_work.s", "s"),
    ("ebox.integrate_master.s", "s"), ("ebox.integrate_master.rk4_steps", "count"),
    ("ebox.tunneling_rate.calls", "count"), ("ebox.partial_swap_chain.s", "s"),
    ("ebox.analytic_work_distribution.s", "s"),
    ("trace.overhead_s", "s"), ("src.lines", "count"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fingerprint(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas} blas_threads={BLAS_THREADS}")


def run_round(ops, tracer=None):
    """One pass over the fixed batch: outputs, per-op latencies, wall time."""
    outputs, latencies = {}, []
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        for op in ops:
            t_op = time.perf_counter()
            try:
                outputs[op.label] = op.fn(outputs)
            except Exception as exc:  # an operation's failure is a result
                outputs[op.label] = exc
            latencies.append(time.perf_counter() - t_op)
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    return outputs, latencies, wall


def evaluate(workload, ops, outputs, refs):
    """Problems of one round as label -> messages; ``None`` labels the
    check itself when it could not run."""
    raised = {label: [f"raised {out!r}"] for label, out in outputs.items()
              if isinstance(out, Exception)}
    if raised:
        return raised
    try:
        return dict(workload.check(outputs, refs))
    except Exception as exc:  # a malformed output can break a check
        return {None: [f"check raised {exc!r}"]}


def layer_metrics(tracer, outputs, ops):
    values = {}
    for name, _ in PER_LAYER:
        if name == "cli.output_bytes":
            values[name] = sum(len(getattr(outputs[op.label], "out", "").encode())
                               for op in ops if op.cli)
        elif name == "ebox.monte_carlo_work.traj_steps_per_s":
            s = tracer.value("ebox.monte_carlo_work", "s")
            steps = tracer.value("ebox.monte_carlo_work", "traj_steps")
            values[name] = steps / s if s else 0.0
        elif name not in ("trace.overhead_s", "src.lines"):
            key, quantity = name.rsplit(".", 1)
            values[name] = tracer.value(key, quantity)
    return values


def source_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "wcwork").glob("*.py")))


def import_seconds():
    """Median time to import wcwork in a fresh interpreter.  One import per
    process cannot be repeated in it, and a single cold import varies by a
    fifth from run to run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"importing wcwork failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return statistics.median(times)


def op_median_ms(rounds):
    """Median over the batch's operations of each one's median latency.

    Latencies pooled over rounds would put the median in the gap between
    two operations of different size, where it reads the extremes of both."""
    per_op = zip(*(r[1] for r in rounds))
    return 1000.0 * statistics.median(statistics.median(lat) for lat in per_op)


def run_workload(args):
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    try:
        wcwork = importlib.import_module("wcwork")
        modules = {name: importlib.import_module(f"wcwork.{name}") for name in MODULES}
    except ImportError as exc:
        print(f"error: cannot import wcwork from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if Path(wcwork.__file__).resolve().parent != ROOT / "src" / "wcwork":
        print(f"error: wcwork came from {wcwork.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import numpy as np
    from tracer import Tracer
    import workloads

    wc = argparse.Namespace(**modules)
    cls = workloads.WORKLOADS[args.workload]
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        gen_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = cls(wc, args.seed, str(workdir))
            gen_s.append(time.perf_counter() - t0)
        workload.write_files()
        import_s = import_seconds()
        refs = workload.references()
        ops = workload.operations()
        known = {op.label: op.known_fault for op in ops}

        print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} ops/round={len(ops)}")
        print(f"# machine {fingerprint(np)}")
        rounds = []  # timed rounds: (traced, latencies, wall, layer values)
        attempted = failed = 0
        wrong = []

        def account(outputs):
            nonlocal attempted, failed
            for label, messages in evaluate(workload, ops, outputs, refs).items():
                if known.get(label):
                    failed += 1
                else:
                    wrong.extend(f"{label}: {m}" for m in messages)
            attempted += len(ops)

        # warm-up: first-call costs (allocator growth, lazy caches) stay out
        outputs, _, warm_wall = run_round(ops)
        account(outputs)
        t_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            probe = Tracer(dict(modules, wcwork=wcwork)) if traced else None
            outputs, latencies, wall = run_round(ops, probe)
            layers = layer_metrics(probe, outputs, ops) if traced else None
            rounds.append((traced, latencies, wall, layers))
            account(outputs)
            # stop before a round that would end past the window
            elapsed = time.perf_counter() - t_start
            if len(rounds) >= MIN_TIMED_ROUNDS and elapsed + wall > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left while another run uses it
            workdir.parent.rmdir()

    for message in wrong[:20]:
        print(f"wrong: {message}", file=sys.stderr)
    plain = [r for r in rounds if not r[0]]
    if args.trace:
        traced_rounds = [r for r in rounds if r[0]]
        # counts repeat exactly from round to round; times are medians
        metrics = {name: (statistics.median(r[3][name] for r in traced_rounds)
                          if unit in ("s", "1/s") else traced_rounds[0][3][name])
                   for name, unit in PER_LAYER if name in traced_rounds[0][3]}
        metrics["trace.overhead_s"] = (statistics.median(r[2] for r in traced_rounds)
                                       - statistics.median(r[2] for r in plain))
        metrics["src.lines"] = source_lines()
        units = dict(PER_LAYER)
    else:
        metrics = {
            "setup_s": import_s + statistics.median(gen_s),
            "wall_s": statistics.median(r[2] for r in plain),
            "op_p50_ms": op_median_ms(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(f"# rounds={len(rounds)} attempted={attempted} failed={failed} "
          f"correct={not wrong} warm_up_s={warm_wall:.3f} round_walls_s="
          + ",".join(f"{r[2]:.3f}{'t' if r[0] else ''}" for r in rounds))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        r = results[name]
        print(f"== {name}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}")
        for metric, m in r["metrics"].items():
            print(f"   {metric} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
