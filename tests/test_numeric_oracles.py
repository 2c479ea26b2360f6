"""The numpy-only numerics pinned to SciPy, the reference they replace.

``repro.physics.dep._brentq`` ports SciPy's C ``brentq`` and must return
its roots bit for bit: the root is the levitation height behind every
particle signal.  The Gaussian tail and its inverse in
``repro.sensing.detection`` and ``repro.designflow.uncertainty`` must
agree with ``scipy.special`` to 1e-12 relative.  The whole module skips
where SciPy is not installed; the package itself never imports it.
"""

import inspect
import math
import sys

import numpy as np
import pytest

scipy_optimize = pytest.importorskip("scipy.optimize")
scipy_special = pytest.importorskip("scipy.special")

from repro import Biochip  # noqa: E402
from repro.bio import polystyrene_bead  # noqa: E402
from repro.designflow.uncertainty import ModelFidelity  # noqa: E402
from repro.physics import dep  # noqa: E402
from repro.physics.dep import _brentq  # noqa: E402
from repro.sensing.detection import (  # noqa: E402
    q_function,
    roc_curve,
    threshold_for_false_alarm,
)


def both(f, a, b, **kwargs):
    """(port, SciPy) outcome on the same memoised ``f``: a root, or the
    exception type and message."""

    cache = {}

    def memo(x):
        if x not in cache:
            cache[x] = f(x)
        return cache[x]

    outcomes = []
    for solver in (_brentq, scipy_optimize.brentq):
        try:
            outcomes.append(float(solver(memo, a, b, **kwargs)).hex())
        except (ValueError, RuntimeError) as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    return outcomes


# (f, a, b) brackets covering every branch of the solver; see
# test_synthetic_cases_cover_every_branch.
SYNTHETIC = {
    "classic cubic": (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    "exp": (lambda x: math.exp(x) - 2.0, 0.0, 2.0),
    "cos": (lambda x: math.cos(x) - x, 0.0, 1.0),
    "reversed bracket": (lambda x: math.cos(x) - x, 1.0, 0.0),
    "triple root, no convergence": (lambda x: (x - 1.0) ** 3, 0.0, 3.0),
    "steep tanh": (lambda x: math.tanh(50.0 * (x - 0.2)), -1.0, 4.0),
    "step": (lambda x: -1.0 if x < 1.0 / 3.0 else 1.0, 0.0, 1.0),
    "flat ninth power": (lambda x: x**9 - 1e-3, -1.0, 4.0),
    "wide bracket": (lambda x: math.atan(x - 1e3), -1e6, 1e6),
    "tiny root": (lambda x: x - 1e-14, -1.0, 1.0),
    "large root": (lambda x: x - 123456.789, 0.0, 1e6),
    "root at a": (lambda x: x, 0.0, 1.0),
    "root at b": (lambda x: x - 1.0, 0.0, 1.0),
    "same sign": (lambda x: x * x + 1.0, -1.0, 1.0),
    "nan": (lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_synthetic_roots_bit_identical(name):
    f, a, b = SYNTHETIC[name]
    ours, theirs = both(f, a, b)
    assert ours == theirs


@pytest.mark.parametrize("xtol,rtol", [(1e-6, 4 * np.finfo(float).eps), (1e-15, 1e-10)])
def test_custom_tolerances_bit_identical(xtol, rtol):
    for name, (f, a, b) in SYNTHETIC.items():
        ours, theirs = both(f, a, b, xtol=xtol, rtol=rtol)
        assert ours == theirs, name


def test_iteration_limit_raises_like_scipy():
    ours, theirs = both(lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, maxiter=2)
    assert ours == theirs == ("RuntimeError", "Failed to converge after 2 iterations.")


def _line_of(lines, start, marker, nth=0):
    hits = [start + i for i, line in enumerate(lines) if marker in line]
    return hits[nth]


def test_synthetic_cases_cover_every_branch():
    """Interpolation, extrapolation, the accepted short step, both
    bisection fallbacks and the endpoint-root return all run."""
    lines, start = inspect.getsourcelines(_brentq)
    wanted = {
        "interpolate": _line_of(lines, start, "# interpolate"),
        "extrapolate": _line_of(lines, start, "dpre = (fpre - fcur)"),
        "short step": _line_of(lines, start, "# good short step"),
        "bisect: step too long": _line_of(lines, start, "spre = scur = sbis", 0),
        "bisect: no progress": _line_of(lines, start, "spre = scur = sbis", 1),
        "endpoint root": _line_of(lines, start, "return xpre"),
    }
    code = _brentq.__code__
    hit = set()

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            hit.add(frame.f_lineno)
        return tracer

    sys.settrace(tracer)
    try:
        for f, a, b in SYNTHETIC.values():
            try:
                _brentq(f, a, b)
            except (ValueError, RuntimeError):
                pass
    finally:
        sys.settrace(None)
    missing = [name for name, line in wanted.items() if line not in hit]
    assert not missing


# Every 40th radius of the 0.3-3x nominal bead grid, plus the five
# radii whose bracket the scan used to report with the wrong sign.
BEAD_SCALES = [0.3 + 0.01125 * i for i in range(0, 241, 40)] + [
    0.3 + 0.01125 * i for i in (13, 44, 148, 170, 210)
]


@pytest.mark.parametrize("scale", BEAD_SCALES)
def test_levitation_roots_bit_identical(scale, monkeypatch):
    solves = []

    def record(f, a, b):
        ours, theirs = both(f, a, b)
        solves.append((ours, theirs))
        return float.fromhex(ours)

    monkeypatch.setattr(dep, "_brentq", record)
    chip = Biochip.small_chip()
    height = chip.dep_cage(polystyrene_bead(radius=5e-6 * scale)).levitation_height()
    assert len(solves) == 1
    ours, theirs = solves[0]
    assert ours == theirs
    assert height == float.fromhex(ours)


def test_q_function_matches_erfc():
    x = np.linspace(-8.0, 37.0, 4001)
    reference = 0.5 * scipy_special.erfc(x / math.sqrt(2.0))
    np.testing.assert_allclose(q_function(x), reference, rtol=1e-12, atol=0.0)
    for value, expected in zip(x[::97], reference[::97]):
        assert float(q_function(value)) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_q_function_keeps_the_far_tail():
    # 1 - erf(x) cancels to 0 here; the tail is ~1.13e-19
    assert q_function(9.0) == pytest.approx(
        0.5 * scipy_special.erfc(9.0 / math.sqrt(2.0)), rel=1e-12
    )
    assert q_function(9.0) > 0.0


def test_roc_curve_matches_erfc():
    signal, noise = 3.0, 0.7
    points = roc_curve(signal, noise, n_points=64)
    thresholds = np.linspace(-3.0 * noise, signal + 4.0 * noise, 64)
    pfa = 0.5 * scipy_special.erfc(thresholds / noise / math.sqrt(2.0))
    pd = 0.5 * scipy_special.erfc((thresholds - signal) / noise / math.sqrt(2.0))
    np.testing.assert_allclose([p for p, _ in points], pfa, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose([d for _, d in points], pd, rtol=1e-12, atol=0.0)


def test_threshold_matches_ndtri():
    rates = np.concatenate([np.logspace(-15.0, -0.302, 600), [0.25, 0.4, 0.49]])
    for p in rates:
        expected = -scipy_special.ndtri(p)
        assert threshold_for_false_alarm(1.0, p) == pytest.approx(expected, rel=1e-12)
        assert threshold_for_false_alarm(2.5, p) == pytest.approx(2.5 * expected, rel=1e-12)


@pytest.mark.parametrize("sigma", [0.05, 0.4, 1.0])
def test_false_pass_probability_matches_erfc(sigma):
    fidelity = ModelFidelity(sigma=sigma, bias=0.1)
    for z in np.linspace(-8.0, 37.0, 46):
        expected = 0.5 * scipy_special.erfc(z / math.sqrt(2.0))
        margin = -0.1 - sigma * z
        assert fidelity.false_pass_probability(margin) == pytest.approx(
            expected, rel=1e-12, abs=0.0
        )
