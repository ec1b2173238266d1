"""Golden trajectories: full integration runs compared byte for byte.

The files were written by earlier versions of the kernels and steppers
(the first two by the term-table kernels and the numpy stepper); any change
to the arithmetic of the right-hand side, the stage sums, the error norm or
the diagnostics shows up here as a differing digit.  The JSON file also pins
the summary, so the drifts computed from the rows.
"""

import io

import pytest

from hhlax.dynamics import (
    IntegratorConfig,
    Path,
    PhaseState,
    TimePoint,
    Trajectory,
    integrate_autonomous,
    integrate_pfaffian,
)

REFERENCE = PhaseState(1.0, 1.0, 0.0, 0.0)
# A closed rectangle in the (t1, t2) plane; alpha != 0 keeps the x2^-2 and
# x2^-3 terms of the deformed fields in the generated code.
LOOP = Path.from_pairs([(0, 0), (0.4, 0), (0.4, 0.3), (0, 0.3), (0, 0)])
LOOP_ALPHA = 0.05


def reference_run() -> Trajectory:
    """The duration-2 t1 flow from (1, 1, 0, 0) with the default DP45 settings."""
    return integrate_autonomous(1, REFERENCE, 2.0, IntegratorConfig())


def alpha_loop_run() -> Trajectory:
    cfg = IntegratorConfig(alpha=LOOP_ALPHA)
    return integrate_pfaffian(REFERENCE, TimePoint(0.0, 0.0), LOOP, cfg, deformed=True)


def t2_rk4_alpha_run() -> Trajectory:
    """The autonomous t2 flow with alpha != 0, fixed-step RK4 and other lambdas."""
    cfg = IntegratorConfig(method="rk4-fixed", alpha=0.2, lambdas=(0.25, 1.0, 3.0))
    return integrate_autonomous(2, REFERENCE, 0.7, cfg)


def step_control_run() -> Trajectory:
    """A deformed Pfaffian loop whose DP45 steps reach every branch of the
    step-size control: rejected steps, the 0.2 shrink floor, the 5x growth
    cap and the max_step cap (each segment starts at h = max_step)."""
    cfg = IntegratorConfig(tol=1e-8, max_step=0.05, alpha=0.05)
    loop = Path.from_pairs([(0, 0), (0.69, 0), (0.69, 0.3), (0, 0.3), (0, 0)])
    return integrate_pfaffian(PhaseState(-0.9, 0.21, -0.09, -0.72), TimePoint(0.0, 0.0), loop, cfg)


def _export(trajectory: Trajectory, name: str) -> str:
    buffer = io.StringIO()
    if name.endswith(".json"):
        trajectory.write_json(buffer)  # rows plus the summary's drifts
    else:
        trajectory.write_csv(buffer)
    return buffer.getvalue()


@pytest.mark.parametrize(
    "name, run",
    [
        pytest.param("trajectory_reference.csv", reference_run, id="reference"),
        pytest.param("pfaffian_loop_alpha.csv", alpha_loop_run, id="pfaffian_loop_alpha"),
        pytest.param("trajectory_t2_rk4_alpha.csv", t2_rk4_alpha_run, id="t2_rk4_alpha"),
        pytest.param("trajectory_reference.json", reference_run, id="reference_json"),
        pytest.param("dp45_step_control.csv", step_control_run, id="dp45_step_control"),
    ],
)
def test_golden_trajectory(name, run, golden_dir):
    assert _export(run(), name) == (golden_dir / name).read_text()
