"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print.  Every test computes its outcome first, prints the line, then
asserts, so the printed record is complete even on failure.
"""

import math

import numpy as np

from formuniq import (
    PowerGeomTail,
    SeriesKind,
    VerdictState,
    Verdict,
    WeightedGraph,
    analyze_instability_example,
    boundary_capacity_estimate,
    cutoff_function,
    decompose,
    energy,
    energy_parts,
    equilibrium_potential,
    form_uniqueness_verdict,
    full_report,
    gallery,
    gallery_names,
    laplacian,
    lp_norm,
    quotient_graph,
    solve_symmetric_harmonic,
    sphere_decomposition,
    stability_verdict,
    symmetric_ends_verdict,
    truncated_dirichlet_solve,
)
from formuniq.families import (
    WSS_GALLERY,
    anti_tree,
    birth_death,
    linear,
    power_seq,
    wss_tree,
)
from formuniq.stability import family_boundary_degree
from formuniq.symmetry import average
from scalar_reference import profile_at


def report(num, ok, text):
    print(f"[{num:02d}] {'PASS' if ok else 'FAIL'} {text}")
    assert ok, f"criterion {num}: {text}"


def random_chain_seq(rng):
    return PowerGeomTail(
        coeff=float(rng.uniform(0.3, 3.0)),
        power=float(rng.uniform(-2.0, 2.0)),
        ratio=float(rng.uniform(0.55, 1.8)),
    )


def random_graph(rng, n_range=(6, 16), extra=5):
    n = int(rng.integers(*n_range))
    edges = [(int(rng.integers(0, v)), v, float(rng.uniform(0.2, 3.0)))
             for v in range(1, n)]
    present = {(min(u, v), max(u, v)) for u, v, _ in edges}
    target = n - 1 + extra
    while len(present) < target:
        u, v = rng.integers(0, n, size=2)
        if u != v and (min(u, v), max(u, v)) not in present:
            present.add((min(u, v), max(u, v)))
            edges.append((int(min(u, v)), int(max(u, v)), float(rng.uniform(0.2, 3.0))))
    measure = rng.uniform(0.3, 2.0, size=n)
    killing = rng.uniform(0.0, 0.5, size=n) * (rng.random(n) < 0.4)
    return WeightedGraph(n, edges, measure=measure, killing=killing)


def test_01_recurrence_matches_direct_solver():
    rng = np.random.default_rng(101)
    cases = [(gallery(name).profile, 1.0) for name in WSS_GALLERY]
    for _ in range(50):
        fam = birth_death(
            random_chain_seq(rng), random_chain_seq(rng), prefix_len=48
        )
        cases.append((fam.profile, float(rng.uniform(0.25, 2.0))))
    worst = 0.0
    for p, alpha in cases:
        sol = solve_symmetric_harmonic(p, alpha, 1.0, 25)
        direct = truncated_dirichlet_solve(quotient_graph(p, 25), alpha, (0, 1.0))
        rel = np.abs(direct[:25] - sol.values[:25]) / np.abs(sol.values[:25])
        worst = max(worst, float(rel.max()))
    report(
        1, worst <= 1e-10,
        f"radial recurrence matches the direct solver on {len(cases)} "
        f"profiles at depth 25 (worst interior rel err {worst:.2e})",
    )


def test_02_geometric_chain_hand_values():
    sol = solve_symmetric_harmonic(gallery("geometric_chain").profile, 1.0, 1.0, 3)
    expected = np.array([1.0, 2.0, 3.0, 3.6875])
    err = float(np.abs(sol.values - expected).max())
    report(
        2, err <= 1e-12,
        f"u(1)=2, u(2)=3, u(3)=3.6875 on the geometric chain (max abs err {err:.2e})",
    )


def test_03_averaging_contracts():
    rng = np.random.default_rng(303)
    builders = [
        lambda: wss_tree(2),
        lambda: wss_tree(3),
        lambda: anti_tree(linear()),
        lambda: anti_tree(power_seq(2)),
    ]
    worst_comm = 0.0
    ok = True
    for i in range(100):
        fam = builders[i % 4]()
        t = fam.build(int(rng.integers(2, 7)))
        g0 = t.graph
        factors = rng.uniform(0.5, 2.0, size=t.depth + 1)
        g = WeightedGraph(
            g0.vertex_count,
            zip(g0.edge_u, g0.edge_v, g0.edge_w),
            g0.measure * factors[t.layer],
        )
        dec = sphere_decomposition(g, [t.root])
        f = rng.standard_normal(g.vertex_count)
        af = average(g, dec, f)
        for p in (1.0, 2.0, math.inf):
            ok &= lp_norm(g, af, p) <= lp_norm(g, f, p) * (1 + 1e-12) + 1e-12
        ok &= energy(g, af) <= energy(g, f) * (1 + 1e-12) + 1e-12
        gap = laplacian(g, af) - average(g, dec, laplacian(g, f))
        worst_comm = max(worst_comm, float(np.max(np.abs(gap))))
    ok &= worst_comm <= 1e-10
    report(
        3, ok,
        "averaging is an lp and energy contraction commuting with the "
        f"Laplacian on 100 random layer graphs (worst residual {worst_comm:.2e})",
    )


def test_04_verdict_table():
    expected = {
        "geometric_chain": VerdictState.FAILS,
        "unit_chain": VerdictState.HOLDS,
        "linear_anti_tree": VerdictState.HOLDS,
        "binary_tree": VerdictState.HOLDS,
        "geom_mass_anti_tree": VerdictState.FAILS,
    }
    got = {
        name: form_uniqueness_verdict(gallery(name).profile).state
        for name in expected
    }
    mismatches = [name for name in expected if got[name] is not expected[name]]
    report(
        4, not mismatches,
        "form uniqueness verdicts match the worked examples"
        + (f" (wrong: {mismatches})" if mismatches else ""),
    )


def test_05_property_web_on_random_profiles():
    rng = np.random.default_rng(555)
    violations = 0
    undecided = 0
    implication_breaks = 0
    coincidence_breaks = 0
    identity_breaks = 0
    for _ in range(500):
        fam = birth_death(
            random_chain_seq(rng), random_chain_seq(rng), prefix_len=48
        )
        rep = full_report(fam.profile)
        violations += len(rep.consistency_violations)
        undecided += rep.any_inconclusive
        fu, tr, si = rep.form_uniqueness, rep.transience, rep.stochastic_incompleteness
        nf, df = rep.neumann_feller, rep.dirichlet_feller
        if fu.fails and not (tr.holds and si.holds and nf.fails):
            implication_breaks += 1
        if rep.series[SeriesKind.TOTAL_MASS].holds:
            if not ((not fu.holds) == tr.holds == si.holds):
                coincidence_breaks += 1
        if (not nf.holds) != ((not df.holds) or fu.fails):
            identity_breaks += 1
    ok = not (violations or undecided or implication_breaks
              or coincidence_breaks or identity_breaks)
    report(
        5, ok,
        "500 random zero-killing chains: no consistency violations, failure "
        "implies transient + incomplete + non-Feller, finite mass makes the "
        "three coincide, and the Feller decomposition identity holds "
        f"(violations={violations}, undecided={undecided}, "
        f"breaks={implication_breaks}/{coincidence_breaks}/{identity_breaks})",
    )


def test_06_energy_sandwich():
    ok = True
    worst = 0.0
    for name in WSS_GALLERY:
        p = gallery(name).profile
        sol = solve_symmetric_harmonic(p, 1.0, 1.0, 30)
        ball = 0.0
        for r in range(30):
            ball += profile_at(p, "killing", r) + 1.0 * profile_at(p, "measure", r)
            # increments[r] is u(r+1) - u(r) as the recurrence produced
            # it, free of the cancellation a re-subtraction would add
            b = profile_at(p, "boundary", r)
            mid = b * sol.increments[r] ** 2
            lower = ball**2 / b * sol.values[0] ** 2
            upper = ball**2 / b * sol.values[r] ** 2
            ok &= lower <= mid * (1 + 1e-10)
            ok &= mid <= upper * (1 + 1e-10)
            if mid > 0:
                worst = max(worst, lower / mid - 1, mid / upper - 1)
    report(
        6, ok,
        "increment energies sit between the ball-mass bounds on all "
        f"symmetric gallery solutions to depth 30 (worst excess {worst:.2e})",
    )


def test_07_equilibrium_potentials():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)], np.ones(3))
    e, cap = equilibrium_potential(g, [2])
    pin_err = max(float(np.abs(e - [0.2, 0.4, 1.0]).max()), abs(cap - 1.6))
    ok = pin_err <= 1e-12
    rng = np.random.default_rng(707)
    for _ in range(200):
        h = random_graph(rng)
        small = set(rng.choice(h.vertex_count, size=2, replace=False).tolist())
        big = small | set(rng.choice(h.vertex_count, size=3, replace=False).tolist())
        e_small, cap_small = equilibrium_potential(h, sorted(small))
        e_big, cap_big = equilibrium_potential(h, sorted(big))
        for vec in (e_small, e_big):
            ok &= 0.0 <= vec.min() and vec.max() <= 1.0
        ok &= cap_small <= cap_big * (1 + 1e-12) + 1e-12
    report(
        7, ok,
        "path pin e=(0.2,0.4,1), cap=1.6 " f"(err {pin_err:.2e}); "
        "range and monotonicity hold on 200 random graphs",
    )


def test_08_capacity_trichotomy():
    geo = boundary_capacity_estimate(gallery("geometric_chain"), (16, 32, 64))
    vals = [row.value for row in geo.rows]
    ok = geo.classification == "positive-finite"
    ok &= all(
        math.isclose(a, b, rel_tol=1e-2) for a, b in zip(vals, vals[1:])
    )
    unit = boundary_capacity_estimate(gallery("unit_chain"), (16, 32, 64))
    ok &= unit.classification == "zero"
    ok &= all("empty boundary" in row.description for row in unit.rows)
    pendant_fam = gallery("pendant_boundary")
    pend = boundary_capacity_estimate(pendant_fam, (8, 12, 16))
    ok &= pend.classification == "infinite"

    # zero capacity must coincide with form uniqueness
    fu = {
        "geometric_chain": form_uniqueness_verdict(gallery("geometric_chain").profile),
        "unit_chain": form_uniqueness_verdict(gallery("unit_chain").profile),
        # the pendant side is edgeless with unit masses, hence trivially
        # form unique; the chain side decides the glued graph
        "pendant_boundary": stability_verdict(
            family_boundary_degree(pendant_fam),
            form_uniqueness_verdict(pendant_fam.x1_profile),
            Verdict(VerdictState.HOLDS, "form uniqueness",
                    "edgeless part carries no energy", kind="form_uniqueness"),
        ),
    }
    for name, est in (("geometric_chain", geo), ("unit_chain", unit),
                      ("pendant_boundary", pend)):
        ok &= (est.classification == "zero") == fu[name].holds
    report(
        8, ok,
        "boundary capacity is positive-finite / zero / infinite on the three "
        "representatives and zero exactly where form uniqueness holds "
        f"(geo values {vals[0]:.6f} -> {vals[-1]:.6f})",
    )


def test_09_cutoff_energy_bound():
    ok = True
    worst = -math.inf
    for name in gallery_names():
        t = gallery(name).build(8)
        g = t.graph
        for r in (1.0, 2.0, 4.0):
            eta = cutoff_function(g, range(g.vertex_count), t.root, r)
            load = np.zeros(g.vertex_count)
            contrib = g.edge_w * (eta[g.edge_u] - eta[g.edge_v]) ** 2
            np.add.at(load, g.edge_u, contrib)
            np.add.at(load, g.edge_v, contrib)
            excess = float((load - g.measure / r**2).max())
            worst = max(worst, excess)
            ok &= excess <= 1e-12
    report(
        9, ok,
        "cutoff energy load stays below m(x)/r^2 at every vertex of every "
        f"gallery truncation for r in {{1, 2, 4}} (worst excess {worst:.2e})",
    )


def test_10_gluing_instability():
    ends = symmetric_ends_verdict(gallery("bilateral_mixed"))
    ok = ends.verdict.state is VerdictState.FAILS
    floors = {
        "pendant_instability": 0.25,  # u(pendant) = u(chain)/2, u(0) = 1
        "star_instability": 0.1,
        "ladder_instability": 0.1,
    }
    details = []
    for name, floor in floors.items():
        rep = analyze_instability_example(gallery(name), (20, 40, 80), floor=floor)
        ok &= rep.pattern_ok and rep.witness_diverges
        ok &= all(row.pattern_ok and row.min_increment >= floor for row in rep.rows)
        details.append(f"{name.split('_')[0]} min inc {rep.rows[-1].min_increment:.3f}")
    report(
        10, ok,
        "one failing end fails the bilateral chain; all three instability "
        "examples certify the monotone pattern and divergence witness at "
        f"depths 20/40/80 ({'; '.join(details)})",
    )


def test_11_energy_splitting():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(100):
        g = random_graph(rng)
        size = int(rng.integers(0, g.vertex_count + 1))
        x1 = rng.choice(g.vertex_count, size=size, replace=False)
        dec = decompose(g, x1)
        f = rng.standard_normal(g.vertex_count)
        split = energy_parts(dec, f)
        q = energy(g, f)
        worst = max(worst, abs(split.total - q) / max(1.0, abs(q)))
        weighted = g.measure * f**2
        n1, n2 = weighted[dec.x1].sum(), weighted[dec.x2].sum()
        nsq = float(g.measure @ f**2)
        worst = max(worst, abs(n1 + n2 - nsq) / max(1.0, nsq))
    report(
        11, worst <= 1e-12,
        "energy and norm split exactly across 100 random decompositions "
        f"(worst rel defect {worst:.2e})",
    )
