"""Property verdicts for radially layered graphs.

Each operation turns series verdicts into a named global property of
the infinite graph described by a :class:`RadialProfile`.  Verdict
polarity is always the property itself:

* ``form_uniqueness``:            Holds iff the minimal (Dirichlet) and
  maximal (Neumann) energy forms coincide.  Uniqueness fails exactly
  when both the total-mass series and the resistance series converge.
* ``transience``:                 Holds iff the random walk is
  transient, i.e. the resistance series converges.  (zero killing)
* ``stochastic_incompleteness``:  Holds iff the heat semigroup loses
  mass, i.e. the cumulative-mass series converges.  (zero killing)
* ``neumann_feller``:             Holds iff the Neumann semigroup
  preserves vanishing at infinity; it does NOT exactly when the
  complement-mass series converges.  (zero killing)
* ``dirichlet_feller``:           Holds iff the Dirichlet semigroup is
  Feller; it fails exactly when the resistance series diverges while
  the complement-mass series converges.  (zero killing)
* ``hamburger_esa``:              chains only: Holds iff the minimal
  Laplacian is essentially self-adjoint, which happens exactly when
  the chain growth series DIVERGES.  (Convergence of that series means
  both fundamental solutions are square-summable, so self-adjoint
  extensions abound.  A bounded-geometry chain — unit weights and
  measure — is essentially self-adjoint and indeed has a divergent
  series; a chain failing form uniqueness cannot be essentially
  self-adjoint and indeed has a convergent one.)
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import PreconditionError
from .series import (
    RadialProfile,
    SeriesKind,
    Verdict,
    VerdictState,
    bundle_consistency,
    series_verdict,
    tail_converges,
    verdict_bundle,
)


def _negate(state: VerdictState) -> VerdictState:
    if state is VerdictState.HOLDS:
        return VerdictState.FAILS
    if state is VerdictState.FAILS:
        return VerdictState.HOLDS
    return VerdictState.INCONCLUSIVE


def _and(a: VerdictState, b: VerdictState) -> VerdictState:
    """Ternary conjunction: False dominates, then unknown."""
    if VerdictState.FAILS in (a, b):
        return VerdictState.FAILS
    if VerdictState.INCONCLUSIVE in (a, b):
        return VerdictState.INCONCLUSIVE
    return VerdictState.HOLDS


def _require_no_killing(p: RadialProfile, what: str) -> None:
    if not p.killing_is_zero:
        raise PreconditionError(f"{what} requires a certifiably zero killing term")


def form_uniqueness_verdict(p: RadialProfile) -> Verdict:
    """Do the minimal and maximal energy forms coincide?

    Uniqueness fails exactly when the graph has finite total mass and
    finite cumulative resistance; killing is allowed.
    """
    return _form_uniqueness(
        series_verdict(p, SeriesKind.TOTAL_MASS), series_verdict(p, SeriesKind.RESISTANCE)
    )


def _form_uniqueness(tm: Verdict, res: Verdict) -> Verdict:
    return Verdict(
        _negate(_and(tm.state, res.state)),
        "the minimal and maximal energy forms coincide",
        f"total mass {tm.state.value} ({tm.reason}); "
        f"resistance {res.state.value} ({res.reason})",
        kind="form_uniqueness",
    )


def transience_verdict(p: RadialProfile) -> Verdict:
    """Is the associated random walk transient?  (zero killing only)"""
    _require_no_killing(p, "transience")
    return _transience(series_verdict(p, SeriesKind.RESISTANCE))


def _transience(res: Verdict) -> Verdict:
    return replace(res, label="the random walk is transient", kind="transience")


def stochastic_incompleteness_verdict(p: RadialProfile) -> Verdict:
    """Does the heat semigroup lose mass?  (zero killing only)"""
    _require_no_killing(p, "stochastic incompleteness")
    return _stochastic_incompleteness(series_verdict(p, SeriesKind.STOCHASTIC_MASS))


def _stochastic_incompleteness(sm: Verdict) -> Verdict:
    return replace(
        sm,
        label="the heat semigroup is stochastically incomplete",
        kind="stochastic_incompleteness",
    )


def neumann_feller_verdict(p: RadialProfile) -> Verdict:
    """Is the maximal (Neumann) semigroup Feller?  (zero killing only)

    The Feller property fails exactly when the complement-mass series
    converges, equivalently when a positive summable alpha-harmonic
    function exists.
    """
    _require_no_killing(p, "the Neumann Feller property")
    return _neumann_feller(series_verdict(p, SeriesKind.FELLER_TAIL))


def _neumann_feller(ft: Verdict) -> Verdict:
    return replace(
        ft,
        state=_negate(ft.state),
        label="the maximal semigroup is Feller",
        reason=f"complement-mass series {ft.state.value} ({ft.reason})",
        kind="neumann_feller",
    )


def dirichlet_feller_verdict(p: RadialProfile) -> Verdict:
    """Is the minimal (Dirichlet) semigroup Feller?  (zero killing only)

    It fails exactly when the walk is recurrent (resistance series
    diverges) while the complement-mass series converges.
    """
    _require_no_killing(p, "the Dirichlet Feller property")
    return _dirichlet_feller(
        series_verdict(p, SeriesKind.RESISTANCE), series_verdict(p, SeriesKind.FELLER_TAIL)
    )


def _dirichlet_feller(res: Verdict, ft: Verdict) -> Verdict:
    return Verdict(
        _negate(_and(_negate(res.state), ft.state)),
        "the minimal semigroup is Feller",
        f"resistance {res.state.value}; complement-mass series {ft.state.value}",
        kind="dirichlet_feller",
    )


def hamburger_esa_verdict(p: RadialProfile) -> Verdict:
    """Is the minimal Laplacian of a chain essentially self-adjoint?

    Chains with one vertex per sphere and zero killing only.  Holds iff
    the chain growth series diverges.
    """
    # raises PreconditionError if unfit
    return _hamburger_esa(series_verdict(p, SeriesKind.HAMBURGER))


def _hamburger_esa(ham: Verdict) -> Verdict:
    return replace(
        ham,
        state=_negate(ham.state),
        label="the minimal operator is essentially self-adjoint",
        reason=f"growth series {ham.state.value} "
        f"(convergence puts both fundamental solutions in l2): {ham.reason}",
        kind="hamburger_esa",
    )


@dataclass(frozen=True)
class PropertyReport:
    """Bundle of property verdicts with audit information.

    Verdicts requiring zero killing are ``None`` when the profile has
    (or may have) killing.  ``series`` retains the raw series verdicts;
    ``consistency_violations`` lists any broken cross-implication among
    the decided verdicts (always empty for exact tail models).
    """

    form_uniqueness: Verdict
    transience: Verdict | None
    stochastic_incompleteness: Verdict | None
    neumann_feller: Verdict | None
    dirichlet_feller: Verdict | None
    hamburger_esa: Verdict | None
    series: dict[SeriesKind, Verdict]
    consistency_violations: tuple[str, ...]

    def items(self):
        return (
            ("form_uniqueness", self.form_uniqueness),
            ("transience", self.transience),
            ("stochastic_incompleteness", self.stochastic_incompleteness),
            ("neumann_feller", self.neumann_feller),
            ("dirichlet_feller", self.dirichlet_feller),
            ("hamburger_esa", self.hamburger_esa),
        )

    @property
    def any_inconclusive(self) -> bool:
        return any(v is not None and v.inconclusive for _, v in self.items())


def _cross_checks(report: PropertyReport) -> list[str]:
    out = []
    fu = report.form_uniqueness
    tr = report.transience
    si = report.stochastic_incompleteness
    nf = report.neumann_feller
    df = report.dirichlet_feller
    esa = report.hamburger_esa

    if fu.fails:
        if tr is not None and tr.decided and not tr.holds:
            out.append("form uniqueness fails but the walk is not transient")
        if si is not None and si.decided and not si.holds:
            out.append("form uniqueness fails but the semigroup is stochastically complete")
        if nf is not None and nf.decided and nf.holds:
            out.append("form uniqueness fails but the maximal semigroup is Feller")

    tm = report.series.get(SeriesKind.TOTAL_MASS)
    if tm is not None and tm.holds:
        decided = [
            v for v in (tr, si) if v is not None and v.decided
        ]
        if fu.decided and decided:
            not_fu = not fu.holds
            for v in decided:
                if v.holds != not_fu:
                    out.append(
                        "finite total mass but transience/incompleteness does not "
                        "match failure of form uniqueness"
                    )
                    break

    if nf is not None and df is not None and fu.decided and nf.decided and df.decided:
        lhs = not nf.holds
        rhs = (not df.holds) or fu.fails
        if lhs != rhs:
            out.append(
                "Neumann non-Feller must coincide with (Dirichlet non-Feller or "
                "failure of form uniqueness)"
            )

    if esa is not None and esa.holds and fu.decided and not fu.holds:
        out.append("essential self-adjointness holds but form uniqueness fails")
    return out


def full_report(p: RadialProfile) -> PropertyReport:
    """Every applicable property verdict, all derived from one
    :func:`verdict_bundle`, plus consistency cross-checks."""
    s = verdict_bundle(p)
    no_killing = p.killing_is_zero
    res, ft = s[SeriesKind.RESISTANCE], s[SeriesKind.FELLER_TAIL]
    report = PropertyReport(
        form_uniqueness=_form_uniqueness(s[SeriesKind.TOTAL_MASS], res),
        transience=_transience(res) if no_killing else None,
        stochastic_incompleteness=(
            _stochastic_incompleteness(s[SeriesKind.STOCHASTIC_MASS]) if no_killing else None
        ),
        neumann_feller=_neumann_feller(ft) if no_killing else None,
        dirichlet_feller=_dirichlet_feller(res, ft) if no_killing else None,
        hamburger_esa=(
            _hamburger_esa(s[SeriesKind.HAMBURGER]) if SeriesKind.HAMBURGER in s else None
        ),
        series=s,
        consistency_violations=(),
    )
    violations = bundle_consistency(s, tail_converges(p.killing_tail)) + _cross_checks(report)
    return replace(report, consistency_violations=tuple(violations))
