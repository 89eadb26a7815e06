"""The public surface: ``wcwork.__all__`` changes only on purpose, and every
function the benchmark's tracer wraps still exists where it looks."""

import importlib
from pathlib import Path

import wcwork

PUBLIC = [
    # errors
    "ConvergenceError", "InvalidInputError", "NumericError",
    "ResourceLimitError", "StepSizeError", "SupportMismatchError",
    # model
    "DiagonalState", "EnergyLandscape", "HamiltonianChange", "LevelPartition",
    "Protocol", "Thermalization", "make_thermal_state",
    "partial_swap_hop_matrix", "reverse_protocol", "sudden_quench_jump_matrix",
    # engine
    "WorkDistribution", "bin_works", "crooks_residual",
    "epsilon_guaranteed_work", "jarzynski_sum", "variation_distance",
    "work_distribution", "worst_case_work",
    # singleshot
    "EqualityReport", "TildeScenario", "build_tilde_scenario", "d_infinity",
    "d_zero", "main_equality_report", "markov_d_infinity_bound", "max_entropy",
    "out_of_set_probability", "smooth_d_zero", "work_tail_equality_report",
    # ebox
    "CrooksCheck", "EboxParams", "Ramp", "SeriesWorkDistribution",
    "WorkSamples", "analytic_work_distribution", "characteristic_function",
    "constant_ramp", "constant_relaxation_p0", "cost_work_quantile",
    "ebox_crooks_check", "extracted_work_quantile", "gibbs_occupations",
    "integrate_master", "linear_ramp", "markov_bound_check", "mean_work",
    "monte_carlo_work", "partial_swap_chain", "swap_probability",
    "szilard_ramp", "szilard_sweep", "tunneling_rate",
    # the submodules
    "ebox", "engine", "errors", "model", "singleshot",
]

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_all_is_pinned():
    assert len(PUBLIC) == len(set(PUBLIC)) == 63
    assert sorted(wcwork.__all__) == sorted(PUBLIC)


def test_traced_names_resolve():
    # run the tracer's source for its tables only: nothing is installed,
    # and nothing is written under bench/
    tracer = {}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer)
    for table in (tracer["TIMED"], tracer["COUNTED"]):
        for short, names in table.items():
            module = importlib.import_module(f"wcwork.{short}")
            for name in names:
                assert callable(getattr(module, name, None)), f"{short}.{name}"
    assert callable(wcwork.model.Protocol.__post_init__)
