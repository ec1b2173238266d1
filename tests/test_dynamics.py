"""Numeric flows: conservation, isospectrality, commutation, path independence."""

import io
import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from hhlax import dynamics
from hhlax.algebra import VarId
from hhlax.dynamics import (
    IntegratorConfig,
    NonFiniteState,
    Path,
    PhaseState,
    SingularState,
    StepSizeUnderflow,
    TimePoint,
    TrajectorySample,
    check_flow_commutation_numeric,
    check_reparametrization_numeric,
    eigenvalue_samples,
    flow_rhs,
    integrate_autonomous,
    integrate_pfaffian,
    snapshot,
)
from hhlax.model import hamiltonian_vector_field, hamiltonians, lax_matrices
from numeric_reference import reference_diagnostics, substitute_numeric

REFERENCE = PhaseState(1.0, 1.0, 0.0, 0.0)
ORIGIN = TimePoint(0.0, 0.0)

rng = np.random.default_rng(1905)


def max_difference(a: PhaseState, b: PhaseState) -> float:
    return max(abs(u - v) for u, v in zip(astuple(a), astuple(b)))


class TestFlowRhs:
    def test_autonomous_t1_reference_point(self):
        assert flow_rhs(False, 1, REFERENCE, ORIGIN, 0.0) == (0.0, 0.0, -3.5, -1.0)

    def test_autonomous_t2_reference_point(self):
        assert flow_rhs(False, 2, REFERENCE, ORIGIN, 0.0) == (0.0, 0.0, -0.5, -0.75)

    def test_deformed_t2_killing_shift(self):
        rates = flow_rhs(True, 2, PhaseState(0.0, 0.0, 0.3, -0.7), TimePoint(0.2, 0.4), 0.0)
        assert rates[0] == pytest.approx(0.5 * 0.0 * -0.7 - 1.0)

    def test_singular_state_raises(self):
        with pytest.raises(SingularState):
            flow_rhs(False, 1, PhaseState(1.0, 0.0, 0.0, 0.0), ORIGIN, 0.1)

    def test_zero_x2_fine_without_alpha(self):
        rates = flow_rhs(False, 1, PhaseState(1.0, 0.0, 0.0, 0.0), ORIGIN, 0.0)
        assert all(math.isfinite(value) for value in rates)

    def test_matches_symbolic_field_on_random_states(self):
        # 100 random nonsingular states, both flows, both alphas.
        for deformed in (False, True):
            for k in (1, 2):
                field = hamiltonian_vector_field(
                    hamiltonians(deformed).h1 if k == 1 else hamiltonians(deformed).h2
                )
                for _ in range(25):
                    raw = rng.uniform(-2.0, 2.0, size=6)
                    if abs(raw[1]) < 0.1:
                        raw[1] = 0.5
                    state = PhaseState(*raw[:4])
                    t = TimePoint(*raw[4:])
                    alpha = float(rng.choice([0.0, 0.1]))
                    point = {
                        VarId.X1: state.x1,
                        VarId.X2: state.x2,
                        VarId.P1: state.p1,
                        VarId.P2: state.p2,
                        VarId.T1: t.t1,
                        VarId.T2: t.t2,
                        VarId.ALPHA: alpha,
                    }
                    expected = [substitute_numeric(c, point) for c in field.components]
                    got = flow_rhs(deformed, k, state, t, alpha)
                    for e, g in zip(expected, got):
                        assert g == pytest.approx(e, rel=1e-12, abs=1e-12)


class TestAutonomousIntegration:
    def test_zero_duration_single_sample(self):
        trajectory = integrate_autonomous(1, REFERENCE, 0.0)
        assert len(trajectory.samples) == 1
        assert trajectory.final_state == REFERENCE
        assert trajectory.samples[0].h1 == pytest.approx(1.5)
        assert trajectory.samples[0].h2 == pytest.approx(0.3125)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_conservation(self, k, alpha):
        cfg = IntegratorConfig(alpha=alpha)
        trajectory = integrate_autonomous(k, REFERENCE, 2.0, cfg)
        assert trajectory.h1_drift() < 1e-9
        assert trajectory.h2_drift() < 1e-9

    def test_isospectral_drift(self):
        trajectory = integrate_autonomous(1, REFERENCE, 2.0)
        assert trajectory.eigenvalue_drift() < 1e-8

    def test_parameter_strictly_increasing(self):
        trajectory = integrate_autonomous(1, REFERENCE, 0.5)
        parameters = [sample.s for sample in trajectory.samples]
        assert all(a < b for a, b in zip(parameters, parameters[1:]))

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            integrate_autonomous(1, REFERENCE, -1.0)

    def test_invalid_flow_index(self):
        with pytest.raises(ValueError):
            integrate_autonomous(3, REFERENCE, 1.0)

    def test_rk4_fixed_matches_adaptive(self):
        cfg = IntegratorConfig(method="rk4-fixed", max_step=0.005)
        reference = integrate_autonomous(1, REFERENCE, 1.0)
        fixed = integrate_autonomous(1, REFERENCE, 1.0, cfg)
        assert np.allclose(astuple(fixed.final_state), astuple(reference.final_state), atol=1e-8)

    def test_rk4_fourth_order_convergence(self):
        tight = IntegratorConfig(abs_tol=1e-13, rel_tol=1e-13)
        reference = integrate_autonomous(1, REFERENCE, 1.0, tight).final_state

        def endpoint_error(step: float) -> float:
            cfg = IntegratorConfig(method="rk4-fixed", max_step=step)
            final = integrate_autonomous(1, REFERENCE, 1.0, cfg).final_state
            return max_difference(final, reference)

        ratio = endpoint_error(0.02) / endpoint_error(0.01)
        assert 12.0 <= ratio <= 20.0


class TestPfaffianIntegration:
    def test_out_and_back_returns_to_start(self):
        path = Path.from_pairs([(0, 0), (0.3, 0.2), (0, 0)])
        trajectory = integrate_pfaffian(REFERENCE, ORIGIN, path)
        assert max_difference(trajectory.final_state, REFERENCE) < 1e-8

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize("deformed", [True, False])
    def test_rectangle_path_independence(self, alpha, deformed):
        cfg = IntegratorConfig(alpha=alpha)
        first = Path.from_pairs([(0, 0), (0.5, 0), (0.5, 0.5)])
        second = Path.from_pairs([(0, 0), (0, 0.5), (0.5, 0.5)])
        end1 = integrate_pfaffian(REFERENCE, ORIGIN, first, cfg, deformed=deformed).final_state
        end2 = integrate_pfaffian(REFERENCE, ORIGIN, second, cfg, deformed=deformed).final_state
        assert max_difference(end1, end2) < 1e-7

    def test_single_segment_reduces_to_autonomous(self):
        path = Path.from_pairs([(0, 0), (0.7, 0)])
        multi_time = integrate_pfaffian(REFERENCE, ORIGIN, path, deformed=False)
        autonomous = integrate_autonomous(1, REFERENCE, 0.7)
        assert max_difference(multi_time.final_state, autonomous.final_state) < 1e-9

    def test_path_must_start_at_t0(self):
        path = Path.from_pairs([(0.1, 0), (0.5, 0)])
        with pytest.raises(ValueError):
            integrate_pfaffian(REFERENCE, ORIGIN, path)

    def test_time_columns_follow_the_path(self):
        path = Path.from_pairs([(0, 0), (0.2, 0), (0.2, 0.3)])
        trajectory = integrate_pfaffian(REFERENCE, ORIGIN, path)
        assert trajectory.final_time == TimePoint(0.2, 0.3)
        parameters = [sample.s for sample in trajectory.samples]
        assert all(a < b for a, b in zip(parameters, parameters[1:]))
        assert parameters[-1] == pytest.approx(0.5)

    def test_attractive_singularity_aborts(self):
        # alpha < 0 makes the centrifugal term attractive, so the x2 = 0 set
        # is reached and the run must end in a typed error.
        cfg = IntegratorConfig(alpha=-0.1)
        path = Path.from_pairs([(0, 0), (2.0, 0)])
        with pytest.raises((SingularState, StepSizeUnderflow)):
            integrate_pfaffian(PhaseState(1.0, 0.5, 0.0, -1.0), ORIGIN, path, cfg)

    def test_deformed_nonconservation_has_the_stated_rate(self):
        # Along the t1 flow, dH1/dt1 must equal dH1/dt1|_explicit = x1 since
        # {H1, H1} = 0.  Fourth-order finite difference of H1 along the flow
        # against the x1 value at the centre point.
        cfg = IntegratorConfig()
        t_center = TimePoint(0.15, 0.0)
        center = integrate_pfaffian(
            REFERENCE, ORIGIN, Path.from_pairs([(0, 0), (0.15, 0)]), cfg
        ).final_state
        delta = 0.01

        def h1_at_offset(offset: float) -> float:
            target = TimePoint(t_center.t1 + offset, 0.0)
            path = Path((t_center, target))
            run = integrate_pfaffian(center, t_center, path, cfg)
            return run.samples[-1].h1

        derivative = (
            -h1_at_offset(2 * delta)
            + 8 * h1_at_offset(delta)
            - 8 * h1_at_offset(-delta)
            + h1_at_offset(-2 * delta)
        ) / (12 * delta)
        assert abs(derivative - center.x1) < 1e-7


class TestCommutation:
    def test_zero_span_is_exact(self):
        assert check_flow_commutation_numeric(REFERENCE, 0.0, 0.4) < 1e-12
        assert check_flow_commutation_numeric(REFERENCE, 0.4, 0.0) < 1e-12

    def test_reference_composition(self):
        assert check_flow_commutation_numeric(REFERENCE, 0.3, 0.3) < 1e-8

    def test_with_alpha(self):
        cfg = IntegratorConfig(alpha=0.1)
        assert check_flow_commutation_numeric(REFERENCE, 0.2, 0.2, cfg) < 1e-7


class TestEigenvalues:
    def test_zero_state_pair(self):
        pairs = eigenvalue_samples(False, PhaseState(0, 0, 0, 0), ORIGIN, 0.0, [1.0])
        (plus, minus), = pairs
        assert plus == pytest.approx(1j * math.sqrt(2))
        assert minus == pytest.approx(-1j * math.sqrt(2))

    def test_pairs_sum_to_zero(self):
        pairs = eigenvalue_samples(False, REFERENCE, ORIGIN, 0.3, [0.5, 1.0, 2.0])
        for plus, minus in pairs:
            assert plus + minus == 0

    def test_reference_state_real_pair(self):
        # det L(1) = 2 - 2 h1 - 2 h2 = -1.625 at the reference state.
        (plus, _), = eigenvalue_samples(False, REFERENCE, ORIGIN, 0.0, [1.0])
        assert plus == pytest.approx(math.sqrt(1.625))


class TestDiagnosticFailures:
    """The diagnostics share the stepper's typed numeric errors."""

    SINGULAR = PhaseState(1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("deformed", [False, True])
    def test_eigenvalues_on_singular_set(self, deformed):
        with pytest.raises(SingularState):
            eigenvalue_samples(deformed, self.SINGULAR, ORIGIN, 0.1, [1.0])

    @pytest.mark.parametrize("deformed", [False, True])
    def test_snapshot_on_singular_set(self, deformed):
        with pytest.raises(SingularState):
            snapshot(deformed, self.SINGULAR, ORIGIN, IntegratorConfig(alpha=0.1))

    @pytest.mark.parametrize(
        "state, cfg",
        [
            # h1 = inf, with no det L samples to catch it
            (PhaseState(1e200, 1.0, 0.0, 0.0), IntegratorConfig(lambdas=())),
            (REFERENCE, IntegratorConfig(lambdas=(1.0, 1e100))),  # det L = -inf
        ],
    )
    def test_snapshot_non_finite(self, state, cfg):
        with pytest.raises(NonFiniteState):
            snapshot(False, state, ORIGIN, cfg)

    def test_eigenvalues_non_finite(self):
        with pytest.raises(NonFiniteState):
            eigenvalue_samples(False, PhaseState(1e200, 1.0, 0.0, 0.0), ORIGIN, 0.0, [0.5])


class TestSamplesView:
    """`Trajectory.samples` builds TrajectorySample objects from the rows
    only when they are read, equal to those built from separate kernels."""

    @staticmethod
    def run():
        cfg = IntegratorConfig(alpha=0.05, lambdas=(0.25, 1.0, 3.0))
        loop = Path.from_pairs([(0, 0), (0.4, 0), (0.4, 0.3), (0, 0)])
        return integrate_pfaffian(REFERENCE, ORIGIN, loop, cfg, deformed=True), cfg

    @staticmethod
    def expected_samples(trajectory, cfg):
        hams = hamiltonians(True)
        polys = [hams.h1, hams.h2, lax_matrices(True).L.det()]
        folded = [poly.substitute_rational(VarId.ALPHA, Fraction(cfg.alpha)) for poly in polys]
        reference = reference_diagnostics(*folded, cfg.lambdas)
        samples = []
        for s, t1, t2, *y in (row[:7] for row in trajectory.rows()):
            row = reference(s, t1, t2, tuple(y))
            eigenvalues = tuple(complex(re, im) for re, im in zip(row[9::2], row[10::2]))
            samples.append(TrajectorySample(s, TimePoint(t1, t2), PhaseState(*y), row[7], row[8], eigenvalues))
        return samples

    @staticmethod
    def bits(sample):
        state = sample.state
        values = [sample.s, sample.t.t1, sample.t.t2, state.x1, state.x2, state.p1, state.p2]
        values += [sample.h1, sample.h2]
        for value in sample.eigenvalues:
            values.extend((value.real, value.imag))
        return [value.hex() for value in values]

    def test_view_equals_reference_samples(self):
        trajectory, cfg = self.run()
        expected = self.expected_samples(trajectory, cfg)
        view = trajectory.samples
        assert len(view) == len(expected) > 10
        for index in (0, -1, 5, -4):
            assert view[index] == expected[index]
            assert self.bits(view[index]) == self.bits(expected[index])
        assert view[2:9] == expected[2:9]
        assert view[::-7] == expected[::-7]
        assert list(view) == expected
        assert [self.bits(sample) for sample in view] == [self.bits(sample) for sample in expected]
        assert trajectory.final_state == expected[-1].state
        assert trajectory.final_time == expected[-1].t
        with pytest.raises(IndexError):
            view[len(expected)]

    def test_samples_are_built_only_when_read(self, monkeypatch):
        trajectory, _ = self.run()
        built = []
        original = dynamics._sample
        monkeypatch.setattr(dynamics, "_sample", lambda row: built.append(row) or original(row))
        view = trajectory.samples
        assert len(view) == len(trajectory.rows()) and built == []
        view[0], view[-1]
        assert built == [trajectory.rows()[0], trajectory.rows()[-1]]


class TestReparametrization:
    @pytest.mark.parametrize("k", [1, 2])
    def test_chain_rule_residual(self, k):
        residual = check_reparametrization_numeric(
            k, REFERENCE, ORIGIN, [-0.5, 0.0, 0.5]
        )
        assert residual < 1e-8

    def test_nonzero_times(self):
        residual = check_reparametrization_numeric(
            2, REFERENCE, TimePoint(0.3, -0.2), [0.0, 0.25]
        )
        assert residual < 1e-8


class TestConfigAndExport:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="euler")
        with pytest.raises(ValueError):
            IntegratorConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(max_step=-1.0)

    def test_path_validation(self):
        with pytest.raises(ValueError):
            Path((ORIGIN,))
        with pytest.raises(ValueError):
            Path((ORIGIN, ORIGIN))

    def test_csv_golden(self, golden_dir):
        trajectory = integrate_autonomous(1, REFERENCE, 0.0)
        buffer = io.StringIO()
        trajectory.write_csv(buffer)
        expected = (golden_dir / "trajectory_zero.csv").read_text()
        assert buffer.getvalue() == expected

    def test_json_round_trip(self):
        trajectory = integrate_autonomous(1, REFERENCE, 0.1)
        payload = trajectory.to_json_dict()
        assert payload["columns"][:9] == ["s", "t1", "t2", "x1", "x2", "p1", "p2", "h1", "h2"]
        assert len(payload["rows"]) == len(trajectory.samples)
        assert set(payload["summary"]) == {"samples", "h1_drift", "h2_drift", "eigenvalue_drift"}

    def test_snapshot_matches_zero_duration_run(self):
        via_snapshot = snapshot(False, REFERENCE, ORIGIN)
        via_run = integrate_autonomous(1, REFERENCE, 0.0)
        assert via_snapshot.samples[0].h1 == via_run.samples[0].h1
        assert via_snapshot.samples[0].eigenvalues == via_run.samples[0].eigenvalues


def _bad_state(bad: float) -> PhaseState:
    return PhaseState(1.0, bad, 0.0, 0.0)


def _bad_time(bad: float) -> TimePoint:
    return TimePoint(0.0, bad)


_LOOP = Path.from_pairs([(0, 0), (0.3, 0), (0, 0)])

# Every public float-layer entry point, fed one number that is not a finite
# float: NaN, an infinity, or an int too large for a float.
ENTRY_POINTS = {
    "PhaseState": _bad_state,
    "TimePoint": _bad_time,
    "Path.from_pairs": lambda bad: Path.from_pairs([(0, 0), (bad, 0.5)]),
    "IntegratorConfig.alpha": lambda bad: IntegratorConfig(alpha=bad),
    "IntegratorConfig.max_step": lambda bad: IntegratorConfig(max_step=bad),
    "IntegratorConfig.lambdas": lambda bad: IntegratorConfig(lambdas=(0.5, bad)),
    "snapshot.state": lambda bad: snapshot(True, _bad_state(bad), ORIGIN),
    "snapshot.time": lambda bad: snapshot(True, REFERENCE, _bad_time(bad)),
    "eigenvalue_samples.state": lambda bad: eigenvalue_samples(False, _bad_state(bad), ORIGIN, 0.0, [1.0]),
    "eigenvalue_samples.time": lambda bad: eigenvalue_samples(True, REFERENCE, _bad_time(bad), 0.0, [1.0]),
    "eigenvalue_samples.alpha": lambda bad: eigenvalue_samples(False, REFERENCE, ORIGIN, bad, [1.0]),
    "eigenvalue_samples.lambda": lambda bad: eigenvalue_samples(False, REFERENCE, ORIGIN, 0.0, [1.0, bad]),
    "flow_rhs.state": lambda bad: flow_rhs(False, 1, _bad_state(bad), ORIGIN, 0.0),
    "flow_rhs.time": lambda bad: flow_rhs(True, 2, REFERENCE, _bad_time(bad), 0.0),
    "flow_rhs.alpha": lambda bad: flow_rhs(False, 1, REFERENCE, ORIGIN, bad),
    "integrate_autonomous.state": lambda bad: integrate_autonomous(1, _bad_state(bad), 0.1),
    "integrate_autonomous.duration": lambda bad: integrate_autonomous(1, REFERENCE, bad),
    "integrate_pfaffian.state": lambda bad: integrate_pfaffian(_bad_state(bad), ORIGIN, _LOOP),
    "integrate_pfaffian.t0": lambda bad: integrate_pfaffian(REFERENCE, _bad_time(bad), _LOOP),
}


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "huge-int"]
)
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_non_finite_input_is_a_value_error(entry, bad, monkeypatch):
    # Bad input is rejected where the value is made, before any model is
    # compiled: never a NonFiniteState and never a NaN result.
    def no_model(*args, **kwargs):
        raise AssertionError("model compiled")

    monkeypatch.setattr(dynamics, "_compiled", no_model)
    with pytest.raises(ValueError, match="must be finite"):
        ENTRY_POINTS[entry](bad)


def test_distinct_alphas_leave_peak_memory_flat(child_peak_rss_kb):
    # Every alpha compiles its own fields and diagnostics row, and only the
    # last 64 are kept: keeping all 400 peaked at 24 MB.
    code = (
        "from hhlax.dynamics import IntegratorConfig, PhaseState, TimePoint, snapshot\n"
        "state, t = PhaseState(1.0, 1.0, 0.0, 0.0), TimePoint(0.0, 0.0)\n"
        "for i in range(400):\n"
        "    snapshot(True, state, t, IntegratorConfig(alpha=0.001 * (i + 1)))"
    )
    assert child_peak_rss_kb(code) < 20 * 1024  # kB
