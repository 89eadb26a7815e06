"""Reference computations the benchmark checks wcwork against.

Nothing here imports wcwork: each function works from the raw inputs the
benchmark generated (level lists, step matrices, ramp knots) with plain
numpy, so a fault in wcwork cannot hide in its own reference.
"""

import math

import numpy as np


def gibbs(levels, beta=1.0):
    """Gibbs occupations and partition function of a list of energies."""
    e = np.asarray(levels, dtype=float)
    w = np.exp(-beta * (e - e.min()))
    return w / w.sum(), float(np.exp(-beta * e).sum())


def partial_swap_hop(levels, p_swap, beta=1.0):
    """(1 - p) I + p (Gibbs column in every column): detailed balance holds."""
    g, _ = gibbs(levels, beta)
    d = len(g)
    return (1.0 - p_swap) * np.eye(d) + p_swap * np.tile(g[:, None], (1, d))


def step_matrices(cfg, beta=1.0):
    """(matrix, work matrix) per step of a discrete config.

    ``work[j, i]`` is the work of hopping from level ``i`` to level ``j``:
    the energy after minus the energy before for a level change, zero for a
    thermalization.  A ``full`` thermalization is the complete swap to the
    Gibbs state of the landscape in force.
    """
    out = []
    e = np.asarray(cfg["levels"], dtype=float)
    for step in cfg["steps"]:
        if step["type"] == "change":
            e_new = np.asarray(step["levels"], dtype=float)
            out.append((np.asarray(step["jump"], dtype=float),
                        e_new[:, None] - e[None, :]))
            e = e_new
        elif step.get("full", False):
            out.append((partial_swap_hop(e, 1.0, beta), np.zeros((e.size, e.size))))
        else:
            out.append((np.asarray(step["hop"], dtype=float),
                        np.zeros((e.size, e.size))))
    return out


def final_levels(cfg):
    e = cfg["levels"]
    for step in cfg["steps"]:
        if step["type"] == "change":
            e = step["levels"]
    return e


def reversed_config(cfg):
    """The reversed protocol: steps backwards, jumps transposed, each
    thermalization kept (its landscape in force is unchanged)."""
    lands = [cfg["levels"]]
    for step in cfg["steps"]:
        lands.append(step["levels"] if step["type"] == "change" else lands[-1])
    steps = []
    for k in range(len(cfg["steps"]) - 1, -1, -1):
        step = cfg["steps"][k]
        if step["type"] == "change":
            steps.append({"type": "change", "levels": lands[k],
                          "jump": np.asarray(step["jump"]).T.tolist()})
        else:
            steps.append(step)
    return {"levels": lands[-1], "steps": steps}


def _merge(level, work, prob, tol):
    """Merge entries of one level whose works lie within ``tol``; a merged
    work is the probability-weighted mean."""
    order = np.lexsort((work, level))
    level, work, prob = level[order], work[order], prob[order]
    cut = np.flatnonzero((np.diff(level) != 0) | (np.diff(work) > tol)) + 1
    starts = np.concatenate([[0], cut])
    mass = np.add.reduceat(prob, starts)
    return level[starts], np.add.reduceat(work * prob, starts) / mass, mass


def work_atoms(cfg, rho0, beta=1.0, tol=1e-9):
    """Exact work distribution as sorted (work, probability) atoms, by a
    forward recursion over (current level, accumulated work) pairs that
    merges equal works after every step instead of expanding every path."""
    rho0 = np.asarray(rho0, dtype=float)
    level = np.flatnonzero(rho0 > 0)
    work = np.zeros(level.size)
    prob = rho0[level]
    for m, w in step_matrices(cfg, beta):
        d = m.shape[0]
        src = np.repeat(level, d)
        dst = np.tile(np.arange(d), level.size)
        p = np.repeat(prob, d) * m[dst, src]
        keep = p > 0
        level, work, prob = _merge(dst[keep], (np.repeat(work, d) + w[dst, src])[keep],
                                   p[keep], tol)
    _, work, prob = _merge(np.zeros(work.size, dtype=int), work, prob, tol)
    return list(zip(work.tolist(), prob.tolist()))


def compare_atoms(atoms, expected, w_tol=1e-9, p_tol=1e-12):
    """None when two atom lists agree, else what differs."""
    if len(atoms) != len(expected):
        return f"{len(atoms)} atoms, expected {len(expected)}"
    got = np.asarray(atoms, dtype=float)
    want = np.asarray(expected, dtype=float)
    dw = float(np.max(np.abs(got[:, 0] - want[:, 0])))
    dp = float(np.max(np.abs(got[:, 1] - want[:, 1])))
    if dw > w_tol or dp > p_tol:
        return f"atoms differ by up to {dw:.3g} in work and {dp:.3g} in probability"
    return None


def forward_mean_work(cfg, rho0, beta=1.0):
    """Mean work by propagating the occupation vector through the steps."""
    p = np.asarray(rho0, dtype=float)
    mean = 0.0
    for m, w in step_matrices(cfg, beta):
        mean += float(np.sum(m * w * p[None, :]))
        p = m @ p
    return mean


def brute_force_max_work(cfg, rho0, start_levels, beta=1.0):
    """Largest work over the positive-probability paths that start in
    ``start_levels``, by walking every such path depth first."""
    steps = step_matrices(cfg, beta)
    best = -math.inf

    def walk(k, level, work):
        nonlocal best
        if k == len(steps):
            best = max(best, work)
            return
        m, w = steps[k]
        for j in range(m.shape[0]):
            if m[j, level] > 0.0:
                walk(k + 1, j, work + float(w[j, level]))

    for i in start_levels:
        if rho0[i] > 0.0:
            walk(0, int(i), 0.0)
    return best


def max_plus_max_work(cfg, rho0, start_levels, beta=1.0):
    """Same quantity as ``brute_force_max_work`` by a max-plus recursion over
    levels, for protocols with too many paths to walk one by one."""
    d = len(cfg["levels"])
    best = np.full(d, -np.inf)
    for i in start_levels:
        if rho0[i] > 0.0:
            best[i] = 0.0
    for m, w in step_matrices(cfg, beta):
        cand = best[None, :] + w
        best = np.where(m > 0.0, cand, -np.inf).max(axis=1)
    return float(best.max())


def mild_assumption(cfg, rho0, in_levels, beta=1.0, tol=1e-9):
    """Whether the worst-case work over all paths of the associated thermal
    scenario equals that over the paths starting in the retained set.

    The scenario lifts each out-of-set level with occupation p > 0 to the
    energy whose Gibbs weight against Z~ = sum_in exp(-beta E) / (1 - p_out)
    is p, then lowers it back by an identity jump before the protocol runs.
    Levels with zero occupation start no path, so their lift does not
    matter.
    """
    e0 = np.asarray(cfg["levels"], dtype=float)
    out = [i for i in range(e0.size) if i not in in_levels]
    p_out = sum(rho0[i] for i in out)
    z_tilde = float(np.exp(-beta * e0[list(in_levels)]).sum()) / (1.0 - p_out)
    lifted = e0.copy()
    for i in out:
        if rho0[i] > 0:
            lifted[i] = -math.log(rho0[i] * z_tilde) / beta
    lowering = {"type": "change", "levels": e0.tolist(),
                "jump": np.eye(e0.size).tolist()}
    tilde = {"levels": lifted.tolist(), "steps": [lowering] + cfg["steps"]}
    # every retained level carries Gibbs weight in the scenario
    starts = sorted(set(in_levels) | {i for i in out if rho0[i] > 0})
    ones = np.ones(e0.size)
    return abs(max_plus_max_work(tilde, ones, starts, beta)
               - max_plus_max_work(tilde, ones, in_levels, beta)) <= tol


def parse_csv(text):
    """Header and float rows of a CSV the CLI printed."""
    lines = text.strip().splitlines()
    return lines[0], [[float(x) for x in line.split(",")] for line in lines[1:]]


def relaxation_rate(eps, gamma0, eps_c, beta=1.0):
    """Gamma(+eps) + Gamma(-eps) = (gamma0 / eps_c) eps coth(beta eps / 2)."""
    x = beta * eps / 2.0
    return (2.0 * gamma0 / (beta * eps_c)) * (x / math.tanh(x))


def constant_relaxation(eps, t, p0_start, gamma0, eps_c, beta=1.0):
    """Ground occupation under a constant splitting: exponential relaxation
    to the Gibbs value 1 / (1 + exp(-beta eps))."""
    p_th = 1.0 / (1.0 + math.exp(-beta * eps))
    decay = np.exp(-relaxation_rate(eps, gamma0, eps_c, beta) * np.asarray(t))
    return p0_start * decay + p_th * (1.0 - decay)


def two_level_z(eps, beta=1.0):
    """Partition function of the levels (0, eps)."""
    return 1.0 + math.exp(-beta * eps)


def ramp_mean_work(knot_times, knot_values, grid, p1):
    """<W> = int d eps/dt p1(t) dt by the trapezoid rule on ``grid``, which
    must contain the ramp knots so that every interval has one slope."""
    grid = np.asarray(grid, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    total = 0.0
    for (a, b), (va, vb) in zip(zip(knot_times, knot_times[1:]),
                                zip(knot_values, knot_values[1:])):
        sel = (grid >= a - 1e-12) & (grid <= b + 1e-12)
        total += (vb - va) / (b - a) * float(np.trapezoid(p1[sel], grid[sel]))
    return total
