"""Golden trajectories: full integration runs compared byte for byte.

The files were written by the term-table kernels and the numpy stepper that
preceded the generated kernels and the float stepper; any change to the
arithmetic of the right-hand side, the stage sums, the error norm or the
diagnostics shows up here as a differing digit.
"""

import io

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


def _csv(trajectory: Trajectory) -> str:
    buffer = io.StringIO()
    trajectory.write_csv(buffer)
    return buffer.getvalue()


def test_reference_trajectory(golden_dir):
    expected = (golden_dir / "trajectory_reference.csv").read_text()
    assert _csv(reference_run()) == expected


def test_pfaffian_loop_alpha(golden_dir):
    expected = (golden_dir / "pfaffian_loop_alpha.csv").read_text()
    assert _csv(alpha_loop_run()) == expected
