"""Property verdicts built from the canonical series, plus cross-checks."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from formuniq import criteria, harmonic, series, stability
from formuniq.criteria import (
    _cross_checks,
    dirichlet_feller_verdict,
    form_uniqueness_verdict,
    full_report,
    hamburger_esa_verdict,
    neumann_feller_verdict,
    stochastic_incompleteness_verdict,
    transience_verdict,
)
from formuniq.errors import PreconditionError
from formuniq.families import (
    WSS_GALLERY,
    birth_death,
    gallery,
    geometric,
    power_seq,
)
from formuniq.series import (
    CustomTail,
    PowerGeomTail,
    RadialProfile,
    SeriesKind,
    Verdict,
    VerdictState,
)

FU_TABLE = {
    "geometric_chain": False,
    "unit_chain": True,
    "square_chain": True,  # infinite total mass
    "binary_tree": True,
    "linear_anti_tree": True,
    "quadratic_anti_tree": True,
    "geom_mass_anti_tree": False,
}


@pytest.mark.parametrize("name,holds", sorted(FU_TABLE.items()))
def test_form_uniqueness_table(name, holds):
    v = form_uniqueness_verdict(gallery(name).profile)
    assert v.decided
    assert v.holds is holds
    assert "total mass" in v.reason and "resistance" in v.reason


def test_geometric_chain_property_profile():
    p = gallery("geometric_chain").profile
    assert transience_verdict(p).holds
    assert stochastic_incompleteness_verdict(p).holds
    assert not neumann_feller_verdict(p).holds
    # recurrent part of the Dirichlet-Feller test is vacuous here
    assert dirichlet_feller_verdict(p).holds
    assert hamburger_esa_verdict(p).fails


def test_unit_chain_property_profile():
    p = gallery("unit_chain").profile
    assert transience_verdict(p).fails
    assert stochastic_incompleteness_verdict(p).fails
    assert neumann_feller_verdict(p).holds
    assert dirichlet_feller_verdict(p).holds
    assert hamburger_esa_verdict(p).holds


def test_dirichlet_feller_fails_on_recurrent_finite_tail():
    # recurrent chain whose complement-mass series still converges:
    # b(r) = r+1 gives divergent (harmonic) resistance while m decays fast
    fam = birth_death(power_seq(1.0), geometric(0.25), name="recurrent_thin")
    p = fam.profile
    assert transience_verdict(p).fails
    assert not neumann_feller_verdict(p).holds
    assert dirichlet_feller_verdict(p).fails


def test_killing_gates_probabilistic_verdicts():
    killed = birth_death(1.0, 1.0, geometric(0.5), name="killed_chain")
    p = killed.profile
    for verdict_fn in (
        transience_verdict,
        stochastic_incompleteness_verdict,
        neumann_feller_verdict,
        dirichlet_feller_verdict,
        hamburger_esa_verdict,
    ):
        with pytest.raises(PreconditionError, match="killing"):
            verdict_fn(p)
    # form uniqueness itself allows killing
    assert form_uniqueness_verdict(p).decided
    report = full_report(p)
    assert report.transience is None
    assert report.hamburger_esa is None
    assert report.form_uniqueness.decided
    assert report.consistency_violations == ()


def test_hamburger_gated_to_chains():
    report = full_report(gallery("binary_tree").profile)
    assert report.hamburger_esa is None
    report = full_report(gallery("unit_chain").profile)
    assert report.hamburger_esa is not None and report.hamburger_esa.holds


@pytest.mark.parametrize("name", sorted(FU_TABLE))
def test_full_report_is_internally_consistent(name):
    report = full_report(gallery(name).profile)
    assert report.consistency_violations == ()
    assert not report.any_inconclusive
    names = [k for k, _ in report.items()]
    assert names[0] == "form_uniqueness"
    # failure of form uniqueness forces the known companion properties
    if report.form_uniqueness.fails:
        assert report.transience.holds
        assert report.stochastic_incompleteness.holds
        assert not report.neumann_feller.holds


def test_fabricated_feller_contradiction_is_flagged():
    report = full_report(gallery("geometric_chain").profile)
    lie = Verdict(VerdictState.HOLDS, "the maximal semigroup is Feller", "fabricated")
    broken = replace(report, neumann_feller=lie)
    violations = _cross_checks(broken)
    assert any("Feller" in v for v in violations)


def test_fabricated_esa_contradiction_is_flagged():
    report = full_report(gallery("geometric_chain").profile)
    lie = Verdict(VerdictState.HOLDS, "the minimal operator is essentially self-adjoint", "")
    broken = replace(report, hamburger_esa=lie)
    assert any("self-adjoint" in v for v in _cross_checks(broken))


def test_undecidable_profile_reports_inconclusive():
    def mystery(measure_tail):
        return RadialProfile(
            boundary_prefix=np.ones(3),
            measure_prefix=np.ones(3),
            killing_prefix=np.zeros(3),
            count_prefix=np.ones(3),
            boundary_tail=CustomTail(None),
            measure_tail=measure_tail,
        )

    # finite mass with unknown resistance: the conjunction is open
    report = full_report(mystery(PowerGeomTail(1.0, 0.0, 0.5)))
    assert report.form_uniqueness.inconclusive
    assert report.transience.inconclusive
    assert report.any_inconclusive
    assert report.consistency_violations == ()
    # infinite mass decides form uniqueness without the resistance series
    report = full_report(mystery(PowerGeomTail(1.0)))
    assert report.form_uniqueness.holds
    assert report.transience.inconclusive


# ---------------------------------------------------------------------------
# one verdict bundle per report
# ---------------------------------------------------------------------------

STANDALONE = {
    "form_uniqueness": form_uniqueness_verdict,
    "transience": transience_verdict,
    "stochastic_incompleteness": stochastic_incompleteness_verdict,
    "neumann_feller": neumann_feller_verdict,
    "dirichlet_feller": dirichlet_feller_verdict,
    "hamburger_esa": hamburger_esa_verdict,
}


def random_chain_profiles(n, seed=2718):
    """Chains drawn like the acceptance suite's, a quarter with killing."""
    rng = np.random.default_rng(seed)

    def seq():
        return PowerGeomTail(
            coeff=float(rng.uniform(0.3, 3.0)),
            power=float(rng.uniform(-2.0, 2.0)),
            ratio=float(rng.uniform(0.55, 1.8)),
        )

    return [
        birth_death(seq(), seq(), seq() if i % 4 == 0 else 0.0, prefix_len=48).profile
        for i in range(n)
    ]


def test_full_report_matches_standalone_verdicts():
    profiles = [gallery(name).profile for name in WSS_GALLERY] + random_chain_profiles(200)
    for p in profiles:
        report = full_report(p)
        for name, verdict in report.items():
            if verdict is None:
                with pytest.raises(PreconditionError):
                    STANDALONE[name](p)
                continue
            alone = STANDALONE[name](p)
            assert (verdict.state, verdict.reason) == (alone.state, alone.reason)
            assert verdict.partial_sums == alone.partial_sums


@pytest.mark.parametrize("killing", [0.0, 0.5])
def test_full_report_evaluates_each_series_once(monkeypatch, killing):
    passes = []
    evaluate = series._evaluate

    def counting(p, kinds):
        passes.append(Counter(kinds))
        return evaluate(p, kinds)

    monkeypatch.setattr(series, "_evaluate", counting)
    full_report(birth_death(geometric(2.0), geometric(0.5), killing).profile)
    expected = set(SeriesKind) - ({SeriesKind.HAMBURGER} if killing else set())
    # one pass over the profile, asking for each kind once
    assert len(passes) == 1
    assert set(passes[0]) == expected
    assert all(n == 1 for n in passes[0].values())


def _readings():
    """Each verdict reading, called on its input, with the kinds it reads
    in each pass over a profile."""
    chain = birth_death(geometric(2.0), geometric(0.5)).profile
    sol = harmonic.solve_symmetric_harmonic(chain, 1.0, 1.0, 16)
    ends = gallery("bilateral_mixed")
    K = SeriesKind
    return {
        "form_uniqueness": (
            lambda: form_uniqueness_verdict(chain), [{K.TOTAL_MASS, K.RESISTANCE}]
        ),
        "dirichlet_feller": (
            lambda: dirichlet_feller_verdict(chain), [{K.RESISTANCE, K.FELLER_TAIL}]
        ),
        "symmetric_ends": (
            lambda: stability.symmetric_ends_verdict(ends),
            [{K.TOTAL_MASS, K.RESISTANCE}] * len(ends.end_profiles),
        ),
        "membership": (
            lambda: harmonic.membership_report(chain, sol),
            [{K.BOUNDED_HARMONIC, K.ENERGY_WEIGHT}],
        ),
    }


@pytest.mark.parametrize(
    "reading", ["form_uniqueness", "dirichlet_feller", "symmetric_ends", "membership"]
)
def test_verdict_readings_evaluate_their_series_in_one_pass(monkeypatch, reading):
    call, expected = _readings()[reading]
    passes = []
    evaluate = series._evaluate

    def counting(p, kinds):
        passes.append(Counter(kinds))
        return evaluate(p, kinds)

    # every binding a reading could reach the evaluator through
    for module in (series, criteria, stability, harmonic):
        monkeypatch.setattr(module, "_evaluate", counting, raising=False)
    call()
    # one pass per profile, asking for each kind it reads once
    assert [set(c) for c in passes] == expected
    assert all(n == 1 for c in passes for n in c.values())


def test_divergent_killing_is_not_a_contradiction():
    # energy converges, but sum c = inf makes the bounded-harmonic series diverge
    p = birth_death(geometric(1.5), geometric(0.6), geometric(1.8), prefix_len=48).profile
    report = full_report(p)
    assert report.series[SeriesKind.ENERGY_WEIGHT].holds
    assert report.series[SeriesKind.BOUNDED_HARMONIC].fails
    assert report.consistency_violations == ()
