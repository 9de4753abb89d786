from fractions import Fraction

import pytest

from conewave import LedgerParams, check_all, check_case, feasible_b
from conewave.dyadic_ledger import (CASES, GLOBAL, HLH_LARGE_L2, HLH_SMALL_L2,
                                    LHH_SMALL_L2)


def params(r, sigma, b, eps="1/100"):
    return LedgerParams(r=r, sigma=sigma, b=b, eps=eps)


def _failing(checks):
    return [c.name for c in checks if not c.holds]


def test_params_validation_and_derived():
    p = params("2", "3/4", "1/2")
    assert p.p == 2 and p.s == Fraction(7, 4)
    p = params("3/2", "1", "2/3")
    assert p.p == 3
    with pytest.raises(ValueError):
        params("1", "1", "1/2")
    with pytest.raises(ValueError):
        params("5/2", "1", "1/2")


def test_hlh_checks_hold_at_reference_point():
    p = params(2, Fraction(76, 100), Fraction(51, 100), Fraction(1, 100))
    assert _failing(check_case(p, HLH_SMALL_L2)) == []
    assert _failing(check_case(p, HLH_LARGE_L2)) == []


def test_sigma_boundary_fails_exactly():
    # sigma = 3/(2r) exactly: the dyadic summation lemma hits its excluded
    # logarithmic case, for any b
    for b in (Fraction(51, 100), Fraction(3, 4), Fraction(99, 100)):
        p = params(2, Fraction(3, 4), b)
        names = _failing(check_case(p, HLH_SMALL_L2))
        assert "sum_log_case_excluded" in names


def test_r_at_three_halves_fails_global():
    p = params(Fraction(3, 2), 10, Fraction(3, 4))
    names = _failing(check_case(p, GLOBAL))
    assert "r_above_three_halves" in names
    assert not check_all(p).feasible


def test_check_all_reference_points():
    assert check_all(params(2, "76/100", "505/1000", "1/1000")).feasible
    assert check_all(params(2, 1, "51/100")).feasible
    # the spec's b = 0.9 point: the large-L2 positivity expression
    # 2*sigma - 4/r + 2 - 2rb + 3b evaluates to 0.62 > 0 at r = 2, so the
    # failure clause is not triggered and the point is feasible (eps < 0.1)
    p = params(2, "76/100", "9/10", "1/20")
    expr = (2 * p.sigma - 4 / p.r + 2 - 2 * p.r * p.b + 3 * p.b)
    assert expr == Fraction(62, 100)
    assert expr > 0
    assert check_all(p).feasible
    # but eps must stay below 1 - b
    assert not check_all(params(2, "76/100", "9/10", "2/10")).feasible


def test_verdict_reports_witness_and_failures():
    good = check_all(params(2, 1, "51/100"))
    assert good.witness == (Fraction(51, 100), Fraction(1, 100))
    bad = check_all(params(2, "1/2", "51/100"))
    assert not bad.feasible
    assert bad.witness is None
    assert bad.failing


def test_exactness_repeatable_and_scale_invariant():
    p1 = params("7/4", "6/7", "4/7")
    p2 = params(Fraction(14, 8), Fraction(12, 14), Fraction(8, 14))
    for case in CASES:
        r1 = [(c.name, c.holds) for c in check_case(p1, case)]
        r2 = [(c.name, c.holds) for c in check_case(p2, case)]
        r1_again = [(c.name, c.holds) for c in check_case(p1, case)]
        assert r1 == r2 == r1_again


def test_feasible_b_lower_endpoint():
    # symbolic lower endpoint max(1/r, 2/r - sigma), cross-checked by a scan
    for r, sigma in ((Fraction(2), Fraction(4, 5)), (Fraction(7, 4), Fraction(9, 8)),
                     (Fraction(8, 5), Fraction(1))):
        interval = feasible_b(r, sigma)
        assert not interval.empty
        expected_lo = max(1 / r, 2 / r - sigma)
        assert interval.lo == expected_lo
        # scan b on a 1e-3 grid: feasibility of check_all matches the interval
        step = Fraction(1, 1000)
        b = Fraction(1, 2)
        while b < 1:
            inside = interval.contains(b)
            eps = min(Fraction(1, 1000), (1 - b) / 2)
            verdict = check_all(LedgerParams(r=r, sigma=sigma, b=b, eps=eps))
            assert verdict.feasible == inside, (r, sigma, b)
            b += step


def test_feasible_b_special_sigmas():
    r = Fraction(7, 4)
    # sigma = 2/r: lower endpoint is 1/r (since 2/r - sigma = 1/r... )
    sigma = 2 / r
    interval = feasible_b(r, sigma)
    assert interval.lo == 1 / r
    # very large sigma: the whole (1/r, 1) window
    interval = feasible_b(r, 10)
    assert interval.lo == 1 / r and interval.hi == 1


def test_feasible_b_matches_region_boundary():
    # nonempty iff sigma > 3/(2r), over 50 rationals in (3/2, 2]
    for i in range(1, 51):
        r = Fraction(3, 2) + Fraction(i, 100)
        boundary = Fraction(3, 2) / r
        assert feasible_b(r, boundary).empty
        assert feasible_b(r, boundary - Fraction(1, 1000)).empty
        assert not feasible_b(r, boundary + Fraction(1, 1000)).empty


def test_feasibility_monotone_in_sigma():
    for i in (1, 17, 33, 50):
        r = Fraction(3, 2) + Fraction(i, 100)
        sigma = Fraction(3, 2) / r + Fraction(1, 997)
        assert not feasible_b(r, sigma).empty
        for k in range(1, 5):
            assert not feasible_b(r, sigma + Fraction(k, 3)).empty


def test_check_case_rejects_unknown():
    with pytest.raises(ValueError):
        check_case(params(2, 1, "1/2"), "HHL")


def test_lhh_small_reports_both_reduced_forms():
    p = params(2, "76/100", "51/100")
    names = [c.name for c in check_case(p, LHH_SMALL_L2)]
    assert "reduced_two_sigma_bound" in names
    assert "reduced_sigma_bound" in names
    assert "sum_strict_gap" in names and "sum_strict_positive" in names
