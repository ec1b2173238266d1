"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Symbolic criteria are exact (structural equality); numeric
criteria use the tolerances fixed below.
"""

import time
from dataclasses import astuple
from functools import lru_cache

from hhlax.algebra import LaurentPoly, PolyMatrix2, Rational, VarId
from hhlax.dynamics import (
    IntegratorConfig,
    Path,
    PhaseState,
    TimePoint,
    check_flow_commutation_numeric,
    check_reparametrization_numeric,
    integrate_autonomous,
    integrate_pfaffian,
)
from hhlax.model import (
    HamiltonianSet,
    LaxTriple,
    hamiltonians,
    lax_matrices,
    potential,
    recursion_matrix_inverse,
)
from hhlax.verify import (
    check_frobenius,
    check_involution,
    check_isomonodromic_lax,
    check_isospectral_lax,
    check_zero_curvature,
)

x1, x2, p1, p2, t1, t2, lam, alpha = LaurentPoly.gens()
REFERENCE = PhaseState(1.0, 1.0, 0.0, 0.0)
ORIGIN = TimePoint(0.0, 0.0)


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {name}: {status}{suffix}")
    assert passed, f"criterion {number} failed{suffix}"


@lru_cache(maxsize=1)
def conservation_run():
    start = time.perf_counter()
    trajectory = integrate_autonomous(
        1, REFERENCE, 2.0, IntegratorConfig(tol=1e-12, alpha=0.0)
    )
    elapsed = time.perf_counter() - start
    return trajectory, elapsed


def test_criterion_01_exact_involution():
    start = time.perf_counter()
    result = check_involution()
    elapsed = time.perf_counter() - start
    report(
        1,
        "exact involution {h1, h2} = 0",
        result.passed and result.residual.is_zero and elapsed < 1.0,
        f"runtime {elapsed:.3f}s",
    )


def test_criterion_02_exact_frobenius_residual():
    start = time.perf_counter()
    result = check_frobenius()
    elapsed = time.perf_counter() - start
    expected = -(t1 + 3 * t2**2)
    report(
        2,
        "Frobenius residual equals -(t1 + 3 t2^2)",
        result.passed and result.residual == expected and elapsed < 1.0,
        f"runtime {elapsed:.3f}s",
    )


def test_criterion_03_exact_zero_curvature():
    result = check_zero_curvature()
    report(3, "zero-curvature residual field vanishes", result.passed and result.residual.is_zero)


def test_criterion_04_exact_isospectral_lax():
    results = [check_isospectral_lax(k) for k in (1, 2)]
    report(
        4,
        "isospectral Lax identity for both flows",
        all(r.passed and r.residual.is_zero for r in results),
    )


def test_criterion_05_exact_isomonodromic_lax():
    zero = LaurentPoly.zero()
    displays = {
        1: PolyMatrix2(zero, zero, -2 * lam, zero),
        2: PolyMatrix2(zero, lam, -4 * lam**2 - 2 * (x1 + 3 * t2) * lam, zero),
    }
    ok = True
    for k in (1, 2):
        result = check_isomonodromic_lax(k)
        ok = ok and result.passed and result.residual.is_zero
        ok = ok and result.intermediate == displays[k]
    report(5, "isomonodromic Lax identity and defect matrices", ok)


def test_criterion_06_recursion_consistency():
    quartic = potential(4)
    hh_potential_ok = (
        quartic.v1 == x1**3 + Rational(1, 2) * x1 * x2**2
        and quartic.v2 == Rational(1, 16) * x2**4 + Rational(1, 4) * x1**2 * x2**2
    )
    inverse_rung = potential(-1)
    inverse_ok = inverse_rung.v1 == 4 * x2**-2 and inverse_rung.v2 == -4 * x1 * x2**-2
    roundtrip_ok = True
    inverse_step = recursion_matrix_inverse()
    for k in range(-4, 9):
        upper = potential(k + 1)
        lower = potential(k)
        roundtrip_ok = roundtrip_ok and inverse_step.apply((upper.v1, upper.v2)) == (
            lower.v1,
            lower.v2,
        )
    report(
        6,
        "potential recursion (k=4 terms, k=-1 rung, inverse roundtrip)",
        hh_potential_ok and inverse_ok and roundtrip_ok,
    )


def test_criterion_07_numerical_conservation():
    trajectory, elapsed = conservation_run()
    summary = trajectory.summary()
    h1_drift, h2_drift = summary["h1_drift"], summary["h2_drift"]
    report(
        7,
        "conservation of h1, h2 over duration-2 run",
        h1_drift < 1e-9 and h2_drift < 1e-9 and elapsed < 5.0,
        f"drift {h1_drift:.2e}/{h2_drift:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_08_numerical_isospectrality():
    trajectory, _ = conservation_run()
    drift = trajectory.summary()["eigenvalue_drift"]
    report(
        8,
        "Lax eigenvalue drift at lambda in {0.5, 1, 2}",
        drift < 1e-8,
        f"drift {drift:.2e}",
    )


def test_criterion_09_flow_commutation():
    difference = check_flow_commutation_numeric(REFERENCE, 0.3, 0.3)
    report(9, "composite flows commute (s = u = 0.3)", difference < 1e-8, f"diff {difference:.2e}")


def test_criterion_10_pfaffian_path_independence():
    start = time.perf_counter()
    first = Path.from_pairs([(0, 0), (0.5, 0), (0.5, 0.5)])
    second = Path.from_pairs([(0, 0), (0, 0.5), (0.5, 0.5)])
    worst = 0.0
    for alpha_value in (0.0, 0.1):
        cfg = IntegratorConfig(alpha=alpha_value)
        end1 = astuple(integrate_pfaffian(REFERENCE, ORIGIN, first, cfg).samples[-1].state)
        end2 = astuple(integrate_pfaffian(REFERENCE, ORIGIN, second, cfg).samples[-1].state)
        worst = max(worst, max(abs(u - v) for u, v in zip(end1, end2)))
    elapsed = time.perf_counter() - start
    report(
        10,
        "Pfaffian rectangle-path independence (alpha in {0, 0.1})",
        worst < 1e-7 and elapsed < 10.0,
        f"discrepancy {worst:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_11_reparametrization_chain_rule():
    worst = max(
        check_reparametrization_numeric(k, REFERENCE, ORIGIN, [-0.5, 0.0, 0.5])
        for k in (1, 2)
    )
    report(
        11,
        "finite-difference mu-derivative matches 2 lambda dU/dlambda",
        worst < 1e-8,
        f"residual {worst:.2e}",
    )


def test_criterion_12_negative_controls():
    plain, deformed = hamiltonians(False), hamiltonians(True)

    perturbed_involution = check_involution(HamiltonianSet(plain.h1, plain.h2 + x1, False))

    from hhlax.model import potential as rung

    v3, v2 = rung(3), rung(2)
    wrong_c3 = HamiltonianSet(
        plain.h1 + t2 * v3.v1 + (t1 + 3 * t2**2) * v2.v1,
        plain.h2 - p1 + t2 * v3.v2 + (t1 + 3 * t2**2) * v2.v2,
        True,
    )
    wrong_frobenius = check_frobenius(wrong_c3)

    no_killing = check_zero_curvature(HamiltonianSet(deformed.h1, deformed.h2 + p1, True))

    autonomous = lax_matrices(False)
    bad_u1 = LaxTriple(
        autonomous.L,
        PolyMatrix2(autonomous.U1.e11, autonomous.U1.e12, -lam - x1, autonomous.U1.e22),
        autonomous.U2,
        False,
    )
    bad_isospectral = check_isospectral_lax(1, triple=bad_u1)

    deformed_triple = lax_matrices(True)
    bad_isomonodromic = check_isomonodromic_lax(
        1, triple=LaxTriple(deformed_triple.L, autonomous.U1, deformed_triple.U2, True)
    )

    all_fail = not any(
        result.passed
        for result in (
            perturbed_involution,
            wrong_frobenius,
            no_killing,
            bad_isospectral,
            bad_isomonodromic,
        )
    )
    report(12, "corrupted inputs make every check fail", all_fail)
