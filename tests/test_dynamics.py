"""Numeric flows: conservation, isospectrality, commutation, path independence."""

import csv
import io
import json
import math
import random
import re
from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

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
    Trajectory,
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
from numeric_reference import reference_diagnostics, reference_summary, substitute_numeric

REFERENCE = PhaseState(1.0, 1.0, 0.0, 0.0)
ORIGIN = TimePoint(0.0, 0.0)

rng = random.Random(1905)


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
                    raw = [rng.uniform(-2.0, 2.0) for _ in range(6)]
                    if abs(raw[1]) < 0.1:
                        raw[1] = 0.5
                    state = PhaseState(*raw[:4])
                    t = TimePoint(*raw[4:])
                    alpha = rng.choice([0.0, 0.1])
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
        assert trajectory.samples[-1].state == REFERENCE
        assert trajectory.samples[0].h1 == pytest.approx(1.5)
        assert trajectory.samples[0].h2 == pytest.approx(0.3125)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_conservation(self, k, alpha):
        cfg = IntegratorConfig(alpha=alpha)
        trajectory = integrate_autonomous(k, REFERENCE, 2.0, cfg)
        summary = trajectory.summary()
        assert summary["h1_drift"] < 1e-9
        assert summary["h2_drift"] < 1e-9

    def test_isospectral_drift(self):
        trajectory = integrate_autonomous(1, REFERENCE, 2.0)
        assert trajectory.summary()["eigenvalue_drift"] < 1e-8

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

    @pytest.mark.parametrize(
        "k, error, message",
        [
            pytest.param(0, ValueError, "flow index must be 1 or 2", id="0"),
            pytest.param(3, ValueError, "flow index must be 1 or 2", id="3"),
            pytest.param(1.0, TypeError, "flow index must be an int, got 1.0", id="1.0"),
            pytest.param(True, TypeError, "flow index must be an int, got True", id="True"),
        ],
    )
    def test_flow_index_is_refused_first(self, k, error, message):
        # The index is checked before the duration is, by both entry points;
        # a float or a bool is no flow index, not even 1.0 or True.
        with pytest.raises(error, match=message):
            integrate_autonomous(k, REFERENCE, -1.0)
        with pytest.raises(error, match=message):
            flow_rhs(False, k, REFERENCE, ORIGIN, 0.0)

    def test_rk4_fixed_matches_adaptive(self):
        cfg = IntegratorConfig(method="rk4-fixed", max_step=0.005)
        reference = integrate_autonomous(1, REFERENCE, 1.0)
        fixed = integrate_autonomous(1, REFERENCE, 1.0, cfg)
        # numpy.allclose(f, r, atol=1e-8) with its default rtol 1e-5, written out
        for f, r in zip(astuple(fixed.samples[-1].state), astuple(reference.samples[-1].state)):
            assert abs(f - r) <= 1e-8 + 1e-5 * abs(r)

    def test_rk4_fourth_order_convergence(self):
        tight = IntegratorConfig(tol=1e-13)
        reference = integrate_autonomous(1, REFERENCE, 1.0, tight).samples[-1].state

        def endpoint_error(step: float) -> float:
            cfg = IntegratorConfig(method="rk4-fixed", max_step=step)
            final = integrate_autonomous(1, REFERENCE, 1.0, cfg).samples[-1].state
            return max_difference(final, reference)

        ratio = endpoint_error(0.02) / endpoint_error(0.01)
        assert 12.0 <= ratio <= 20.0


@pytest.mark.parametrize("span", [1e-15, 5e-324])
@pytest.mark.parametrize("kind", ["autonomous", "segment"])
def test_span_below_the_step_floor_is_one_step(span, kind):
    # Shorter than DP45's minimum step 1e-14, so the one step that covers
    # the span is taken whole rather than refused as too small.
    if kind == "autonomous":
        trajectory = integrate_autonomous(1, REFERENCE, span)
    else:
        trajectory = integrate_pfaffian(REFERENCE, ORIGIN, Path.from_pairs([(0, 0), (span, 0)]))
    assert [sample.s for sample in trajectory.samples] == [0.0, span]
    assert trajectory.samples[-1].t == TimePoint(span, 0.0)


class TestPfaffianIntegration:
    def test_out_and_back_returns_to_start(self):
        path = Path.from_pairs([(0, 0), (0.3, 0.2), (0, 0)])
        trajectory = integrate_pfaffian(REFERENCE, ORIGIN, path)
        assert max_difference(trajectory.samples[-1].state, REFERENCE) < 1e-8

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize("deformed", [True, False])
    def test_rectangle_path_independence(self, alpha, deformed):
        cfg = IntegratorConfig(alpha=alpha)
        first = Path.from_pairs([(0, 0), (0.5, 0), (0.5, 0.5)])
        second = Path.from_pairs([(0, 0), (0, 0.5), (0.5, 0.5)])
        end1 = integrate_pfaffian(REFERENCE, ORIGIN, first, cfg, deformed=deformed).samples[-1].state
        end2 = integrate_pfaffian(REFERENCE, ORIGIN, second, cfg, deformed=deformed).samples[-1].state
        assert max_difference(end1, end2) < 1e-7

    def test_single_segment_reduces_to_autonomous(self):
        path = Path.from_pairs([(0, 0), (0.7, 0)])
        multi_time = integrate_pfaffian(REFERENCE, ORIGIN, path, deformed=False)
        autonomous = integrate_autonomous(1, REFERENCE, 0.7)
        assert max_difference(multi_time.samples[-1].state, autonomous.samples[-1].state) < 1e-9

    def test_path_must_start_at_t0(self):
        path = Path.from_pairs([(0.1, 0), (0.5, 0)])
        with pytest.raises(ValueError):
            integrate_pfaffian(REFERENCE, ORIGIN, path)

    def test_time_columns_follow_the_path(self):
        path = Path.from_pairs([(0, 0), (0.2, 0), (0.2, 0.3)])
        trajectory = integrate_pfaffian(REFERENCE, ORIGIN, path)
        assert trajectory.samples[-1].t == TimePoint(0.2, 0.3)
        parameters = [sample.s for sample in trajectory.samples]
        assert all(a < b for a, b in zip(parameters, parameters[1:]))
        assert parameters[-1] == pytest.approx(0.5)

    def test_step_budget_bounds_the_whole_path(self, monkeypatch):
        # Each side of the square fits a budget of 10 steps of at most 0.1;
        # the path needs 32, so it is refused before any stepping.
        def no_integration(*args, **kwargs):
            raise AssertionError("integration started")

        monkeypatch.setattr(dynamics, "_MAX_STEPS", 10)
        monkeypatch.setattr(dynamics, "_integrate_ode", no_integration)
        square = Path.from_pairs([(0, 0), (0.8, 0), (0.8, 0.8), (0, 0.8), (0, 0)])
        with pytest.raises(ValueError, match="more than 10 steps"):
            integrate_pfaffian(REFERENCE, ORIGIN, square, IntegratorConfig(max_step=0.1))

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
        ).samples[-1].state
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
        assert view[-1].state == expected[-1].state
        assert view[-1].t == expected[-1].t
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

    @pytest.mark.parametrize(
        "k, mu_samples, message",
        [
            pytest.param(1, [], "must be finite and not empty", id="empty"),
            # max(worst, nan) keeps worst: a NaN sample would read as a pass.
            pytest.param(1, [0.0, math.nan], "must be finite and not empty", id="nan"),
            pytest.param(1, [math.inf], "must be finite and not empty", id="inf"),
            pytest.param(1, [-math.inf], "must be finite and not empty", id="-inf"),
            # Past 4300 digits CPython refuses to write an int in the message.
            pytest.param(1, [0.0, 10**5000], "must be finite and not empty, got an int of 16610 bits$", id="huge-int"),
            pytest.param(1, [400.0], "overflows a float at mu = 400.0", id="overflow"),
            # At mu = 354 the entry -lambda^2 of U2 is -inf at all three
            # lambdas, so its residual is inf - inf = nan, which
            # max(worst, nan) would drop in favour of the other entries.
            pytest.param(
                2, [0.0, 354.0], r"^the residuals at mu = 354.0 must be finite, got \[.*nan", id="nan-residual"
            ),
        ],
    )
    def test_bad_mu_samples_are_refused(self, k, mu_samples, message):
        with pytest.raises(ValueError, match=message):
            check_reparametrization_numeric(k, REFERENCE, ORIGIN, mu_samples)


class TestConfigAndExport:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="euler")
        with pytest.raises(ValueError):
            IntegratorConfig(tol=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(max_step=-1.0)

    @pytest.mark.parametrize(
        "lambdas",
        [(0.5, 0.5), (0.5, 1.0, 0.5), (0.0, -0.0), (0.1, Fraction(1, 10)), (2**53, 2**53 + 1)],
    )
    def test_repeated_lambda_samples_are_refused(self, lambdas):
        # Each sample names a pair of columns, so a repeated sample would
        # give two pairs one name; 0.0 and -0.0 are one sample, and so are
        # two numbers that round to one float.
        with pytest.raises(ValueError, match="lambda samples must be distinct"):
            IntegratorConfig(lambdas=lambdas)

    def test_path_validation(self):
        with pytest.raises(ValueError):
            Path((ORIGIN,))
        with pytest.raises(ValueError):
            Path((ORIGIN, ORIGIN))
        # Two waypoints with one float are one waypoint: a segment of length 0.
        with pytest.raises(ValueError, match="consecutive waypoints must be distinct"):
            Path((TimePoint(0.1, 0.0), TimePoint(Fraction(1, 10), 0)))

    @pytest.mark.parametrize(
        "waypoints",
        [((0.0, 0.0), (1.0, 0.0)), (ORIGIN, (1.0, 0.0)), [ORIGIN, None]],
        ids=["pairs", "one-pair", "none"],
    )
    def test_a_waypoint_that_is_no_time_point_is_refused(self, waypoints):
        # Pairs of numbers go through Path.from_pairs; taken as waypoints they
        # made integrate_pfaffian refuse a path that starts at t0, or fail
        # with a raw AttributeError.
        bad = next(point for point in waypoints if not isinstance(point, TimePoint))
        with pytest.raises(TypeError, match=rf"a waypoint must be a TimePoint, got {re.escape(repr(bad))};"):
            Path(waypoints)

    def test_waypoints_are_stored_as_a_tuple(self):
        listed = Path([ORIGIN, TimePoint(1, 0)])
        assert listed.waypoints == (ORIGIN, TimePoint(1.0, 0.0))
        assert hash(listed) == hash(Path.from_pairs([(0, 0), (1, 0)]))

    def test_numbers_are_stored_as_the_floats_the_kernels_use(self):
        state, t = PhaseState(1, 1, 0, 0), TimePoint(0, 0)
        cfg = IntegratorConfig(alpha=0, lambdas=(Fraction(1, 3), 1))
        numbers = [*astuple(state), *astuple(t), cfg.tol, cfg.max_step, cfg.alpha, *cfg.lambdas]
        assert all(type(number) is float for number in numbers)
        assert type(cfg.lambdas) is tuple and cfg.lambdas == (1 / 3, 1.0)
        listed = IntegratorConfig(lambdas=[0.5, 1.0])
        assert hash(listed) == hash(IntegratorConfig(lambdas=(0.5, 1.0)))
        trajectory = snapshot(False, REFERENCE, ORIGIN, cfg)
        third = repr(1 / 3)
        assert trajectory.column_names()[9:] == [f"eig_re_{third}", f"eig_im_{third}", "eig_re_1", "eig_im_1"]
        buffer = io.StringIO()
        trajectory.write_csv(buffer)
        header, row = buffer.getvalue().splitlines()
        assert header.split(",") == trajectory.column_names()
        assert [repr(float(cell)) for cell in row.split(",")] == row.split(",")

    def test_csv_golden(self, golden_dir):
        trajectory = integrate_autonomous(1, REFERENCE, 0.0)
        buffer = io.StringIO()
        trajectory.write_csv(buffer)
        expected = (golden_dir / "trajectory_zero.csv").read_text()
        assert buffer.getvalue() == expected

    def test_csv_matches_csv_writer(self):
        # Labels that are reprs (1.0000001) and ones with '-' or 'e' in them.
        cfg = IntegratorConfig(lambdas=(1.0000001, 1e-05, -0.5))
        trajectory = integrate_autonomous(2, REFERENCE, 0.05, cfg)
        buffer, reference = io.StringIO(), io.StringIO()
        trajectory.write_csv(buffer)
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(trajectory.column_names())
        writer.writerows(map(repr, row) for row in trajectory.rows())
        assert "eig_re_1.0000001" in trajectory.column_names()
        assert buffer.getvalue() == reference.getvalue()

    def test_json_round_trip(self):
        trajectory = integrate_autonomous(1, REFERENCE, 0.1)
        stream = io.StringIO()
        payload = trajectory.write_json(stream)
        assert json.loads(stream.getvalue()) == payload
        assert payload["columns"][:9] == ["s", "t1", "t2", "x1", "x2", "p1", "p2", "h1", "h2"]
        assert len(payload["rows"]) == len(trajectory.samples)
        assert set(payload["summary"]) == {"samples", "h1_drift", "h2_drift", "eigenvalue_drift"}

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6))
    @example([1.0000001, 1.0000002])
    @example([1e-7, 1.00000001e-7])
    def test_eigenvalue_column_names_read_back_as_their_lambdas(self, lambdas):
        names = Trajectory([], tuple(lambdas)).column_names()[9:]
        labels = [name.removeprefix("eig_re_") for name in names[::2]]
        assert names[1::2] == [f"eig_im_{label}" for label in labels]
        assert [float(label) for label in labels] == lambdas
        assert len(set(labels)) >= len(set(lambdas))
        # The 6-digit text is kept wherever it reads back exactly.
        for lam, label in zip(lambdas, labels):
            assert label == f"{lam:g}" or float(f"{lam:g}") != lam

    def test_snapshot_matches_zero_duration_run(self):
        via_snapshot = snapshot(False, REFERENCE, ORIGIN)
        via_run = integrate_autonomous(1, REFERENCE, 0.0)
        assert via_snapshot.samples[0].h1 == via_run.samples[0].h1
        assert via_snapshot.samples[0].eigenvalues == via_run.samples[0].eigenvalues

    def test_int_input_gives_float_rows(self):
        # Ints become floats where the run starts, so every row cell, time
        # included, is a float and exports as one.
        state, t0 = PhaseState(1, 1, 0, 0), TimePoint(0, 0)
        path = Path((t0, TimePoint(1, 0), TimePoint(1, 1), t0))
        cfg = IntegratorConfig(max_step=0.1)
        trajectories = [
            integrate_pfaffian(state, t0, path, cfg),
            integrate_autonomous(2, state, 1, cfg),
            snapshot(True, state, TimePoint(0, 1)),
        ]
        for trajectory in trajectories:
            assert all(type(cell) is float for row in trajectory.rows() for cell in row)
        first = trajectories[0].samples[0].t
        assert (type(first.t1), type(first.t2)) == (float, float)
        buffer = io.StringIO()
        trajectories[0].write_csv(buffer)
        assert buffer.getvalue().splitlines()[1].startswith("0.0,0.0,0.0,1.0,1.0,0.0,0.0,")


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
    "bad",
    [math.nan, math.inf, -math.inf, 10**400, 10**5000],
    ids=["nan", "inf", "-inf", "huge-int", "int-past-digit-limit"],
)
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_non_finite_input_is_a_value_error(entry, bad, monkeypatch):
    # Bad input is rejected where the value is made, before any model is
    # compiled: never a NonFiniteState and never a NaN result.  An int no
    # float can hold is named by its bit length, not by its digits.
    def no_model(*args, **kwargs):
        raise AssertionError("model compiled")

    monkeypatch.setattr(dynamics, "_flows", no_model)
    monkeypatch.setattr(dynamics, "_diagnostics", no_model)
    with pytest.raises(ValueError, match="must be finite") as refused:
        ENTRY_POINTS[entry](bad)
    assert len(str(refused.value)) < 100


@pytest.mark.parametrize("entry", [entry for entry in ENTRY_POINTS if entry[0].isupper()])
def test_a_number_given_as_text_is_a_type_error(entry):
    # The value types (the capitalised entries) check a number before they
    # make it a float, so float("1") never runs.
    with pytest.raises(TypeError):
        ENTRY_POINTS[entry]("1")


def test_each_entry_point_compiles_only_what_it_calls():
    # A snapshot (so eigenvalue_samples) builds no stepper right-hand side,
    # flow_rhs builds no diagnostics row, neither builds the steppers, and
    # an integration builds all three; the steppers once per process.
    flows, diagnostics = dynamics._flows.cache_info, dynamics._diagnostics.cache_info
    dynamics._steppers.cache_clear()
    alpha = 0.0123456789
    before = flows().misses, diagnostics().misses
    snapshot(True, REFERENCE, ORIGIN, IntegratorConfig(alpha=alpha))
    eigenvalue_samples(True, REFERENCE, ORIGIN, alpha, (0.25,))
    assert (flows().misses, diagnostics().misses) == (before[0], before[1] + 2)
    flow_rhs(True, 1, REFERENCE, ORIGIN, alpha)
    flow_rhs(True, 2, REFERENCE, ORIGIN, alpha)
    assert (flows().misses, diagnostics().misses) == (before[0] + 1, before[1] + 2)
    assert dynamics._steppers.cache_info().misses == 0
    for method in ("rk45-adaptive", "rk4-fixed"):
        cfg = IntegratorConfig(method=method, alpha=alpha)
        integrate_pfaffian(REFERENCE, ORIGIN, Path.from_pairs([(0, 0), (0.01, 0)]), cfg)
    assert (flows().misses, diagnostics().misses) == (before[0] + 1, before[1] + 2)
    assert dynamics._steppers.cache_info().misses == 1


def test_distinct_alphas_leave_peak_memory_flat(child_peak_rss_kb):
    # A snapshot at each alpha compiles its own diagnostics row and no
    # stepper.  The bound is loose: with `_diagnostics` unbounded the same
    # sweep peaked at 19.9 MB, so the test below pins both cache bounds.
    code = (
        "from hhlax.dynamics import IntegratorConfig, PhaseState, TimePoint, snapshot\n"
        "state, t = PhaseState(1.0, 1.0, 0.0, 0.0), TimePoint(0.0, 0.0)\n"
        "for i in range(400):\n"
        "    snapshot(True, state, t, IntegratorConfig(alpha=0.001 * (i + 1)))"
    )
    assert child_peak_rss_kb(code) < 20 * 1024  # kB


def test_distinct_alphas_keep_at_most_64_compiled_models():
    # flow_rhs at each alpha fills `_flows` and a snapshot `_diagnostics`.
    # Unbounded, 400 alphas add 2-3 MB to a peak of about 17 MB, too little
    # for a peak-memory bound to tell from the noise between hosts.
    for i in range(400):
        alpha = 0.001 * (i + 1)
        flow_rhs(True, 1, REFERENCE, ORIGIN, alpha)
        snapshot(True, REFERENCE, ORIGIN, IntegratorConfig(alpha=alpha))
    for cache in (dynamics._flows, dynamics._diagnostics):
        info = cache.cache_info()
        assert info.maxsize == 64 and info.currsize <= 64


# -- the drift summary -----------------------------------------------------

_cells = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _trajectory_rows(draw):
    """Rows whose eigenvalue columns are real (the imaginary column +-0.0),
    imaginary, sign-changing (real in some rows, imaginary in others), of
    constant imaginary part, or arbitrary."""
    n_rows = draw(st.integers(min_value=1, max_value=12))
    column = st.lists(_cells, min_size=n_rows, max_size=n_rows)
    zeros = st.lists(st.sampled_from([0.0, -0.0]), min_size=n_rows, max_size=n_rows)
    columns = [draw(column) for _ in range(9)]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(["real", "imaginary", "sign-changing", "constant", "any"]))
        values, signed_zeros = draw(column), draw(zeros)
        if kind == "real":
            pair = (values, signed_zeros)
        elif kind == "imaginary":
            pair = (signed_zeros, values)
        elif kind == "sign-changing":
            real = draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
            pair = (
                [v if r else z for v, z, r in zip(values, signed_zeros, real)],
                [z if r else v for v, z, r in zip(values, signed_zeros, real)],
            )
        elif kind == "constant":
            pair = (values, [draw(_cells)] * n_rows)
        else:
            pair = (values, draw(column))
        columns += pair
    return [list(row) for row in zip(*columns)]


def _outcome(compute) -> dict | str:
    """The summary with its floats as float.hex, or the error it raises: abs()
    of a complex raises OverflowError when the modulus of two finite parts
    overflows (never for trajectory rows, whose eigenvalue cells are square
    roots of finite floats)."""
    try:
        return {key: value.hex() if isinstance(value, float) else value for key, value in compute().items()}
    except OverflowError as exc:
        return repr(exc)


@given(_trajectory_rows())
@example([[0.0] * 9])  # a single row and no lambdas
@example([[0.0] * 7 + [1.0, -0.0, 2.0, -0.0, -0.0, 0.0]])
@example([[0.0] * 7 + [1.0, 2.0, 3.0, 0.0], [1.0] * 7 + [-1.0, 5.0, -0.0, 4.0]])
@example([[0.0] * 9 + [0.0, 1.7976931348623157e308], [0.0] * 9 + [1.8941775056029057e300, 0.0]])
def test_summary_matches_the_row_by_row_formulas_bit_for_bit(rows):
    trajectory = Trajectory(rows, tuple(range((len(rows[0]) - 9) // 2)))
    expected = _outcome(lambda: reference_summary(rows))
    assert _outcome(trajectory.summary) == expected


# -- symmetries of the float layer -----------------------------------------
#
# Both fields and all diagnostics keep their form under two maps of the
# state, and every float operation of the steppers and the generated code
# commutes with them exactly.  So each map acts on the rows bit for bit.


def _hex_rows(run) -> list[list[str]] | str:
    """The rows as float.hex, or the name of the error the run raises."""
    try:
        return [[cell.hex() for cell in row] for row in run().rows()]
    except (SingularState, StepSizeUnderflow, NonFiniteState) as exc:
        return type(exc).__name__


def _away_from_zero(low: float, high: float):
    """low <= |value| <= high with either sign: no signed zero enters a sum."""
    return st.tuples(st.floats(low, high), st.booleans()).map(lambda pair: -pair[0] if pair[1] else pair[0])


@settings(max_examples=40, deadline=None)
@given(
    method=st.sampled_from(["rk45-adaptive", "rk4-fixed"]),
    alpha=st.sampled_from([0.0, 0.05, -0.02]),
    kind=st.sampled_from(["t1", "t2", "loop", "autonomous loop"]),
    state=st.tuples(*map(_away_from_zero, (0.05, 0.5, 0.05, 0.05), (1.2, 1.2, 0.4, 0.4))),
    size=st.floats(0.05, 0.3),
)
def test_mirroring_x2_and_p2_mirrors_every_row_bit_for_bit(method, alpha, kind, state, size):
    # (x2, p2) -> (-x2, -p2) leaves h1, h2 and det L unchanged and negates
    # the x2 and p2 components of both fields, autonomous and deformed.
    cfg = IntegratorConfig(method=method, alpha=alpha, max_step=0.05)
    x1, x2, p1, p2 = state
    loop = Path.from_pairs([(0, 0), (size, 0), (size, 0.5 * size), (0, 0)])

    def run(start: PhaseState):
        if kind in ("t1", "t2"):
            return lambda: integrate_autonomous(1 if kind == "t1" else 2, start, 2 * size, cfg)
        return lambda: integrate_pfaffian(start, ORIGIN, loop, cfg, deformed=kind == "loop")

    rows = _hex_rows(run(PhaseState(x1, x2, p1, p2)))
    mirrored = _hex_rows(run(PhaseState(x1, -x2, p1, -p2)))
    if isinstance(rows, str):
        assert mirrored == rows
        return
    negated = [
        [(-float.fromhex(cell)).hex() if column in (4, 6) else cell for column, cell in enumerate(row)]
        for row in rows
    ]
    assert mirrored == negated


@pytest.mark.parametrize("e", [-1, 1, 2])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("alpha", [0.0, 0.05])
def test_weighted_scaling_scales_every_rk4_row_exactly(e, k, alpha):
    # With weights 2 for x, 3 for p, 10 for alpha and 2 for lambda, h1 is
    # homogeneous of weight 6, h2 of weight 8 and det L of weight 10, and the
    # flows of h1 and h2 take times of weight -1 and -3.  Scaling by powers
    # of two is exact, so rk4-fixed scales every row exactly.  DP45 is left
    # out: its tol weighs all components alike.
    time_weight = -1 if k == 1 else -3
    scale = 2.0 ** (time_weight * e)
    state, lambdas = PhaseState(0.9, 0.7, 0.1, -0.2), (0.5, 1.0, 2.0)
    cfg = IntegratorConfig(method="rk4-fixed", max_step=0.05, alpha=alpha, lambdas=lambdas)
    scaled_cfg = IntegratorConfig(
        method="rk4-fixed",
        max_step=0.05 * scale,
        alpha=math.ldexp(alpha, 10 * e),
        lambdas=tuple(math.ldexp(lam, 2 * e) for lam in lambdas),
    )
    scaled_state = PhaseState(*(math.ldexp(v, w * e) for v, w in zip(astuple(state), (2, 2, 3, 3))))
    rows = integrate_autonomous(k, state, 0.5, cfg).rows()
    scaled_rows = integrate_autonomous(k, scaled_state, 0.5 * scale, scaled_cfg).rows()
    weights = (time_weight, -1, -3, 2, 2, 3, 3, 6, 8) + (5,) * (2 * len(lambdas))
    assert len(rows) == len(scaled_rows) == 11
    for row, scaled_row in zip(rows, scaled_rows):
        assert [math.ldexp(cell, w * e).hex() for cell, w in zip(row, weights)] == [c.hex() for c in scaled_row]
