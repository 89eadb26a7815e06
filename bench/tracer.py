"""Per-layer timings of wcwork, taken from outside the package.

A ``Tracer`` replaces the public functions named in ``TIMED`` and
``COUNTED`` by wrappers in every wcwork module namespace that holds them, so
a call is seen wherever the caller looks the function up: ``singleshot``
imports ``work_distribution`` by name, the ``ebox`` integrator closures call
``tunneling_rate`` as a module global, and the CLI goes through module
attributes.  ``Protocol`` construction is timed through its
``__post_init__``, which holds the detailed-balance check, so the class
itself stays in place for ``isinstance``.

Each timed call adds its inclusive time to ``<module>.<function>.s`` and to
its caller's child time; ``self_s`` is inclusive time minus the time of the
timed calls nested in it.  Counts of work done are taken from the arguments
and results.  ``uninstall`` puts every original back.
"""

import time

TIMED = {
    "cli": ("main", "load_config"),
    "model": ("reverse_protocol", "make_thermal_state"),
    "engine": ("work_distribution", "bin_works", "crooks_residual",
               "jarzynski_sum", "epsilon_guaranteed_work"),
    "singleshot": ("build_tilde_scenario", "main_equality_report",
                   "work_tail_equality_report", "d_infinity",
                   "out_of_set_probability"),
    "ebox": ("monte_carlo_work", "szilard_sweep", "extracted_work_quantile",
             "ebox_crooks_check", "characteristic_function", "mean_work",
             "integrate_master", "partial_swap_chain",
             "analytic_work_distribution"),
}

# called twice per RK4 stage, tens of thousands of times a round: counted, not timed
COUNTED = {"ebox": ("tunneling_rate",)}


def _work_count(key, args, kwargs, result):
    """Work done by one call, for the functions that report it."""
    if key == "engine.work_distribution":
        return "atoms", len(result.atoms)
    if key == "ebox.monte_carlo_work":
        n_traj = kwargs.get("n_traj", args[2] if len(args) > 2 else None)
        n_steps = kwargs.get("n_steps", args[3] if len(args) > 3 else None)
        return "traj_steps", int(n_traj) * int(n_steps)
    if key == "ebox.integrate_master":
        return "rk4_steps", int(result[0].size) - 1
    return None


class Tracer:
    def __init__(self, modules):
        """``modules`` maps a short name (``cli``, ``model``, ...) to the
        wcwork module; the package itself is searched for re-exports too."""
        self.modules = modules
        self.stats = {}
        self._stack = []
        self._patches = []

    def _entry(self, key):
        return self.stats.setdefault(key, {"calls": 0, "s": 0.0, "child_s": 0.0})

    def _timed(self, key, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            entry = tracer._entry(key)
            entry["calls"] += 1
            tracer._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child = tracer._stack.pop()
                entry["s"] += elapsed
                entry["child_s"] += child
                if tracer._stack:
                    tracer._stack[-1] += elapsed
            work = _work_count(key, args, kwargs, result)
            if work is not None:
                entry[work[0]] = entry.get(work[0], 0) + work[1]
            return result

        return wrapper

    def _counted(self, key, fn):
        entry = self._entry(key)

        def wrapper(*args, **kwargs):
            entry["calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, original, wrapper):
        for mod in self.modules.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def install(self):
        for short, names in TIMED.items():
            for name in names:
                fn = getattr(self.modules[short], name)
                self._replace(fn, self._timed(f"{short}.{name}", fn))
        for short, names in COUNTED.items():
            for name in names:
                fn = getattr(self.modules[short], name)
                self._replace(fn, self._counted(f"{short}.{name}", fn))
        protocol = self.modules["model"].Protocol
        post_init = protocol.__post_init__
        self._patches.append((protocol, "__post_init__", post_init))
        protocol.__post_init__ = self._timed("model.Protocol", post_init)

    def uninstall(self):
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()

    def value(self, key, quantity):
        """``quantity`` of ``key``: calls, s, self_s or a work count; 0 when
        the function was not called."""
        entry = self.stats.get(key)
        if entry is None:
            return 0
        if quantity == "self_s":
            return entry["s"] - entry["child_s"]
        return entry.get(quantity, 0)
