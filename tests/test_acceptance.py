"""Acceptance gate: ten numbered criteria, one scoreboard line each.

Each test registers its verdict through conftest.record_criterion, so a
plain pytest run ends with a criterion-by-criterion PASS/FAIL table.
"""

import time

import numpy as np

import searelay as sr
from conftest import qsup_of_rows, record_criterion
from searelay.solver1d import CASE_I, CASE_II

PRESETS = ("red", "green", "blue")


def tails(d: np.ndarray) -> np.ndarray:
    return np.concatenate((np.cumsum(d[::-1])[::-1][1:], [0.0]))


def test_criterion_01_capacity_ceiling(blue_rate):
    ceiling = blue_rate.r0 / 500.0
    t0 = time.perf_counter()
    qs = [sr.solve(blue_rate, n, 500.0).q_sup for n in range(1, 31)]
    elapsed = time.perf_counter() - t0
    in_band = 1.12e7 <= ceiling <= 1.14e7
    bounded = all(q < ceiling for q in qs)
    increasing = all(b > a for a, b in zip(qs, qs[1:]))
    ok = in_band and bounded and increasing and elapsed < 1.0
    record_criterion(
        1, "capacity ceiling bounds every solve", ok,
        f"R(0)/L={ceiling:.4g}, max q_sup={max(qs):.4g}, "
        f"monotone={increasing}, {elapsed:.2f}s")


def test_criterion_02_grid_search_equivalence(blue_rate):
    length = 500.0
    t0 = time.perf_counter()

    # N=2: one free coordinate
    m2 = 20_001
    d1 = np.linspace(0.0, length, m2)
    rows2 = np.column_stack([d1, length - d1])
    qs2 = qsup_of_rows(blue_rate, rows2, length)
    best2 = rows2[int(np.argmax(qs2))]
    cell2 = length / (m2 - 1)
    res2 = sr.solve(blue_rate, 2, length)
    rel2 = abs(res2.q_sup - qs2.max()) / res2.q_sup
    dmax2 = float(np.max(np.abs(res2.placement.distances - best2)))

    # N=3: two free coordinates on the simplex
    m3 = 2001
    g = np.linspace(0.0, length, m3)
    a, b = np.meshgrid(g, g, indexing="ij")
    keep = a + b <= length + 1e-9
    rows3 = np.column_stack([a[keep], b[keep], length - a[keep] - b[keep]])
    qs3 = qsup_of_rows(blue_rate, rows3, length)
    best3 = rows3[int(np.argmax(qs3))]
    cell3 = length / (m3 - 1)
    res3 = sr.solve(blue_rate, 3, length)
    rel3 = abs(res3.q_sup - qs3.max()) / res3.q_sup
    dmax3 = float(np.max(np.abs(res3.placement.distances - best3)))

    elapsed = time.perf_counter() - t0
    ok = (rel2 < 5e-3 and dmax2 <= cell2 and rel3 < 5e-3 and dmax3 <= cell3
          and elapsed < 30.0)
    record_criterion(
        2, "exhaustive grid search agrees with the solver", ok,
        f"N=2: dq={rel2:.2e}, dd={dmax2:.3g}<= {cell2:.3g}; "
        f"N=3: dq={rel3:.2e}, dd={dmax3:.3g}<= {cell3:.3g}; {elapsed:.1f}s")


def test_criterion_03_chain_structure(blue_rate, blue_10_500):
    d = blue_10_500.placement.distances
    margin = float(np.diff(d).min())
    strictly_up = blue_10_500.branch == CASE_II and margin > 1e-12 * 500.0

    # at the returned load, the exact coverage solution has every
    # constraint tight: surplus(d_i) equals the tail beyond hop i
    sub = sr.solve_subproblem(blue_rate, blue_10_500.q_sup, 10)
    t = tails(sub.distances)
    resid = np.array([
        abs(sr.surplus(blue_rate, blue_10_500.q_sup, float(x)) - ti)
        for x, ti in zip(sub.distances, t)])
    tight = bool(np.all(resid <= 1e-6 * np.maximum(t, 1.0)))

    q0 = blue_10_500.q0
    hi = sr.solve_subproblem(blue_rate, q0 * 1.001, 4)
    lo = sr.solve_subproblem(blue_rate, q0 * 0.999, 4)
    switch = hi.branch == CASE_I and lo.branch == CASE_II

    ok = strictly_up and tight and switch
    record_criterion(
        3, "graded spacings with tight constraints", ok,
        f"min gap={margin:.3g} m, worst residual={resid.max():.2e}, "
        f"branch flips at q0: {switch}")


def test_criterion_04_coverage_monotone_in_load(blue_rate):
    n = 10
    length = 2.0 * sr.critical_length(blue_rate)
    q0 = sr.critical_load(blue_rate)
    qs = np.geomspace(0.1 * q0, 10.0 * q0, 100)
    cov = np.array([sr.solve_subproblem(blue_rate, float(q), n).coverage
                    for q in qs])
    decreasing = bool(np.all(np.diff(cov) < 0.0))
    flips = int(np.count_nonzero(np.diff(np.sign(cov - length))))

    res = sr.solve(blue_rate, n, length)
    tol = 1e-6 * blue_rate.scalar(length / n) * n / length  # the default tol_q
    above = sr.solve_subproblem(blue_rate, res.q_sup - tol, n).coverage
    below = sr.solve_subproblem(blue_rate, res.q_sup + tol, n).coverage
    bracketed = above >= length >= below

    ok = decreasing and flips == 1 and bracketed
    record_criterion(
        4, "coverage falls with load and crosses L once", ok,
        f"decreasing={decreasing}, sign flips={flips}, "
        f"crossing inside q_sup +/- tol_q={bracketed}")


def test_criterion_05_short_segment_dichotomy(blue_rate):
    l0 = sr.critical_length(blue_rate)
    q0 = sr.critical_load(blue_rate)
    tol = 1e-6 * q0
    short = [sr.solve(blue_rate, n, 0.9 * l0, tol_q=tol).q_sup
             for n in (1, 5, 20)]
    spread = max(short) - min(short)
    indifferent = spread <= 10.0 * tol
    q5 = sr.solve(blue_rate, 5, 1.5 * l0).q_sup
    q20 = sr.solve(blue_rate, 20, 1.5 * l0).q_sup
    rewarded = q5 < q20
    ok = indifferent and rewarded
    record_criterion(
        5, "extra nodes help only past the critical length", ok,
        f"spread at 0.9*L0 = {spread:.3g} <= {10 * tol:.3g}; "
        f"q5={q5:.6g} < q20={q20:.6g} at 1.5*L0: {rewarded}")


def test_criterion_06_spacing_decay_bound():
    worst = ("", 0.0)
    ok = True
    for name in PRESETS:
        rate = sr.shannon_rate_function(sr.preset(name))
        for n in (5, 10, 20):
            res = sr.solve(rate, n, 500.0)
            if res.branch != CASE_II:
                ok = False
                continue
            gamma = res.gamma
            ok = ok and 0.0 < gamma < 1.0
            sub = sr.solve_subproblem(rate, res.q_sup, n)
            d = sub.distances
            selector = 1.0 / sr.surplus_slope(rate, res.q_sup, float(d[-1]))
            if selector > -1.0:
                bounds = [gamma ** (n - 1 - i) * d[-1] for i in range(n - 1)]
                checked = d[:-1]
            else:
                bounds = [gamma ** (n - 2 - i) * d[-2] for i in range(n - 2)]
                checked = d[:-2]
            for i, (x, bd) in enumerate(zip(checked, bounds)):
                ratio = x / bd
                if ratio > worst[1]:
                    worst = (f"{name} N={n} i={i + 1}", ratio)
                ok = ok and x <= bd * (1 + 1e-9)
    record_criterion(
        6, "geometric decay bound on every spacing", ok,
        f"tightest ratio {worst[1]:.6f} at {worst[0]}")


def test_criterion_07_beats_equal_spacing(green_rate):
    n, length = 10, 500.0
    opt = sr.solve(green_rate, n, length).q_sup
    const = sr.qsup_of_placement(sr.constant_placement(n, length),
                                 green_rate).q_sup
    ratio = opt / const
    ok = ratio > 1.0
    record_criterion(
        7, "optimal spacing beats equal spacing (green)", ok,
        f"ratio={ratio:.3f}")


def test_criterion_08_vertical_riser_budget(blue_rate, blue_10_500):
    target = blue_10_500.q_sup
    n_l, depth, length = 5, 3000.0, 500.0
    total = None
    for n_v in range(1, 301):
        if sr.vertical_qsup(blue_rate, n_l, n_v, depth, length) >= target:
            total = n_l * (n_v + 1)
            break
    ok = total is not None and 100 <= total <= 200
    record_criterion(
        8, "vertical risers need a node budget in [100, 200]", ok,
        f"first matching total={total}")


def test_criterion_09_simulated_stability_bracket(blue_rate, blue_10_500):
    t0 = time.perf_counter()
    factors = (0.8, 0.9, 0.95, 1.05, 1.1, 1.2)
    grid = [f * blue_10_500.q_sup for f in factors]
    probe = sr.stability_probe(blue_10_500.placement, blue_rate, grid)
    elapsed = time.perf_counter() - t0
    lo_ok = probe.q_stable == grid[2]
    hi_ok = probe.q_unstable == grid[3]
    ok = lo_ok and hi_ok and elapsed < 60.0
    record_criterion(
        9, "simulation brackets the analytic boundary", ok,
        f"stable up to {probe.q_stable / blue_10_500.q_sup:.2f}x, "
        f"unstable from {probe.q_unstable / blue_10_500.q_sup:.2f}x, "
        f"{elapsed:.1f}s")


def test_criterion_09_bracket_within_one_percent(blue_rate, blue_10_500):
    """Criterion 9 at 0.99 / 1.01, read from the backlog drift.

    Every hop of the optimal placement is tight, so at f * q_sup (f > 1) the
    backlog grows at the overload drift lam * (1 - x_1 / 2L) * (1 - 1/f):
    hop 1 relays all traffic past x_1 / 2 at 1/f of its arrival rate.  At
    f = 1.01 that is about 0.97% of lam, just under ``is_stable``'s 1% slope
    test, so the stability flag cannot separate 1.01; the drift itself can.
    """
    t0 = time.perf_counter()
    q, placement = blue_10_500.q_sup, blue_10_500.placement
    grid = [0.99 * q, 1.01 * q]
    probe = sr.stability_probe(placement, blue_rate, grid,
                               horizon_packets=400_000)
    elapsed = time.perf_counter() - t0
    lam = grid[1] * placement.length / 1e5      # stability_probe's default B
    overload = lam * (1 - placement.positions[1] / (2 * placement.length)) \
        * (1 - 1 / 1.01)
    below, above = (p.total_drift_slope / overload for p in probe.points)
    assert probe.points[0].stable, "0.99 x q_sup classified unstable"
    assert abs(below) < 0.3 and above > 0.3 and elapsed < 10.0, (
        f"drift / predicted overload drift: {below:.3f} at 0.99x, "
        f"{above:.3f} at 1.01x, {elapsed:.1f}s")


def test_criterion_10_grid_design_consistency(blue_rate):
    res = sr.solve_2d(blue_rate, 5, 500.0, 500.0)
    l, h = res.grid.l_spacings, res.grid.h_spacings

    def tail_plus_half(d):
        return 0.5 * d + tails(d)

    c = float(sr.strip_heights(h).max())
    lim_x = blue_rate(l) / (tail_plus_half(l) * c)
    lim_y = blue_rate(h) / (tail_plus_half(h) * 500.0)
    feasible = bool(np.all(np.concatenate([lim_x, lim_y])
                           >= res.q_sup * (1 - 1e-6)))
    ordered = res.q_sup == res.q_y < res.q_x

    uniform = sr.Grid2D(l_spacings=np.full(res.n_l, 500.0 / res.n_l),
                        h_spacings=np.full(res.n_h, 500.0 / res.n_h),
                        length=500.0, height=500.0)
    dominates = sr.grid_qsup(uniform, blue_rate) < res.q_sup  # equal node count

    ok = feasible and ordered and dominates
    record_criterion(
        10, "2-D grid feasible, y-limited, beats uniform", ok,
        f"min limit/q_sup={float(min(lim_x.min(), lim_y.min()) / res.q_sup):.9f}, "
        f"q_y<q_x={ordered}, beats uniform={dominates}")
