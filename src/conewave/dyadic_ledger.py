"""Exact-rational feasibility ledger for the dyadic exponent bookkeeping.

Every inequality that the dyadic summation argument needs is evaluated in
exact rational arithmetic (fractions.Fraction), so strict boundary cases are
classified correctly where floating point would not be trusted.  The ledger
checks sufficiency of the encoded conditions only: an infeasible verdict
means this bookkeeping does not close at those parameters, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .frequency_geometry import HLH_EASY, HLH_HARD, hlh_exponents
from .norms import LebesgueExponents, _as_fraction

GLOBAL = "global"
HLH_SMALL_L2 = "HLH_small_L2"
HLH_LARGE_L2 = "HLH_large_L2"
LHH_SMALL_L2 = "LHH_small_L2"
LHH_LARGE_L2 = "LHH_large_L2"

CASES = (GLOBAL, HLH_SMALL_L2, HLH_LARGE_L2, LHH_SMALL_L2, LHH_LARGE_L2)

_REL = {">": Fraction.__gt__, ">=": Fraction.__ge__, "<": Fraction.__lt__}


@dataclass(frozen=True)
class LedgerParams(LebesgueExponents):
    """Exact-rational (r, sigma, b, eps) tuple with derived p and s."""

    sigma: Fraction
    b: Fraction
    eps: Fraction

    def __post_init__(self):
        super().__post_init__()
        for name in ("sigma", "b", "eps"):
            object.__setattr__(self, name, _as_fraction(getattr(self, name)))

    @property
    def s(self) -> Fraction:
        return self.sigma + 1


@dataclass(frozen=True)
class InequalityCheck:
    """One exact inequality: lhs REL rhs, evaluated without floating point."""

    case_id: str
    name: str
    lhs: Fraction
    relation: str
    rhs: Fraction
    holds: bool


@dataclass(frozen=True)
class Verdict:
    feasible: bool
    failing: tuple
    witness: tuple | None   # (b, eps) when feasible


def _check(case_id, name, lhs, relation, rhs) -> InequalityCheck:
    lhs = _as_fraction(lhs)
    rhs = _as_fraction(rhs)
    return InequalityCheck(case_id=case_id, name=name, lhs=lhs,
                           relation=relation, rhs=rhs,
                           holds=_REL[relation](lhs, rhs))


def _summation_checks(case_id, A, B, strict: bool):
    """Dyadic summation lemma conditions: sum of N^A over N <= M against M^B.

    The non-strict form requires B >= A, B >= 0 and excludes A = B = 0 (the
    logarithmic case); the strict form requires B > A and B > 0.
    """
    if strict:
        return [
            _check(case_id, "sum_strict_gap", B, ">", A),
            _check(case_id, "sum_strict_positive", B, ">", 0),
        ]
    checks = [
        _check(case_id, "sum_gap", B, ">=", A),
        _check(case_id, "sum_nonneg", B, ">=", 0),
        # the A = B = 0 logarithmic case is excluded: |A| + |B| > 0
        _check(case_id, "sum_log_case_excluded", abs(A) + abs(B), ">", 0),
    ]
    return checks


def check_case(params: LedgerParams, case: str):
    """Exact inequality set for one interaction case.  Returns InequalityChecks."""
    r, sig, b, eps = params.r, params.sigma, params.b, params.eps
    if case == GLOBAL:
        return [
            _check(case, "r_above_three_halves", r, ">", Fraction(3, 2)),
            _check(case, "b_above_dual_exponent", b, ">", 1 / r),
            _check(case, "b_below_one", b, "<", 1),
            _check(case, "eps_positive", eps, ">", 0),
            _check(case, "eps_below_one_minus_b", eps, "<", 1 - b),
            _check(case, "time_gain_exponent_negative", b + eps - 1, "<", 0),
        ]
    # the small-L2 cases close with the hard HLH row, large L2 with the easy one
    hard, easy = hlh_exponents(HLH_HARD, r), hlh_exponents(HLH_EASY, r)
    if case == HLH_SMALL_L2:
        checks = [
            _check(case, "L1_sum_converges", hard["L_min"] - b, "<", 0),
            _check(case, "L2_sum_converges", hard["L_max"] - b, "<", 0),
        ]
        checks += _summation_checks(case, A=hard["total"] - sig,
                                    B=Fraction(0), strict=False)
        return checks
    if case == HLH_LARGE_L2:
        checks = [_check(case, "L1_sum_converges", easy["L_min"] - b, "<", 0)]
        checks += _summation_checks(case, A=easy["total"] - b - sig,
                                    B=Fraction(0), strict=False)
        return checks
    if case == LHH_SMALL_L2:
        A = hard["N_min_012"] + sig
        B = 2 * sig - hard["N_min_12"]
        checks = _summation_checks(case, A=A, B=B, strict=True)
        # the two strict conditions restated in the reduced forms they are
        # quoted in; reported separately, not merged
        checks.append(_check(case, "reduced_two_sigma_bound",
                             2 * sig, ">", hard["N_min_12"]))
        checks.append(_check(case, "reduced_sigma_bound",
                             sig, ">", hard["total"]))
        return checks
    if case == LHH_LARGE_L2:
        high_exp = 2 * sig - easy["N_min_12"] - (2 * r - 3) * b
        return [
            _check(case, "high_frequency_exponent_positive", high_exp, ">", 0),
            _check(case, "exponent_gap_positive", sig - easy["total"] + b, ">", 0),
        ]
    raise ValueError(f"unknown case {case!r}; choose from {CASES}")


def check_all(params: LedgerParams) -> Verdict:
    """Conjunction of every case at fixed (r, sigma, b, eps)."""
    failing = []
    for case in CASES:
        for chk in check_case(params, case):
            if not chk.holds:
                failing.append(chk)
    feasible = not failing
    witness = (params.b, params.eps) if feasible else None
    return Verdict(feasible=feasible, failing=tuple(failing), witness=witness)


@dataclass(frozen=True)
class FeasibleInterval:
    """Open interval of admissible b at fixed (r, sigma); empty when lo >= hi.

    For any b in the interval every eps in (0, 1 - b) is admissible.
    """

    lo: Fraction | None
    hi: Fraction | None

    @property
    def empty(self) -> bool:
        return self.lo is None or self.hi is None or self.lo >= self.hi

    def contains(self, b) -> bool:
        if self.empty:
            return False
        return self.lo < _as_fraction(b) < self.hi


def feasible_b(r, sigma) -> FeasibleInterval:
    """Exact admissible-b interval at fixed (r, sigma).

    All constraints are affine in b at fixed (r, sigma); the interval is the
    exact intersection of the half-lines, empty unless sigma > 3/(2r).
    """
    r = _as_fraction(r)
    sigma = _as_fraction(sigma)
    if not (Fraction(3, 2) < r <= 2):
        return FeasibleInterval(lo=None, hi=None)
    hard, easy = hlh_exponents(HLH_HARD, r), hlh_exponents(HLH_EASY, r)
    # non-b conditions (dyadic summation in the HLH and LHH small-L2 cases)
    if not (sigma > hard["total"]):
        return FeasibleInterval(lo=None, hi=None)
    lo = max(1 / r, easy["total"] - sigma)
    hi = min(Fraction(1), (2 * sigma - easy["N_min_12"]) / (2 * r - 3))  # 2r - 3 > 0
    if lo >= hi:
        return FeasibleInterval(lo=None, hi=None)
    return FeasibleInterval(lo=lo, hi=hi)
