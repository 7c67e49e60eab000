"""``sim.p90`` against its oracle, ``np.percentile(xs, 90)`` (numpy linear)."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reusesim.sim import p90

_magnitudes = st.floats(min_value=1e-300, max_value=1e300)
_values = st.one_of(
    st.sampled_from([0.0, -0.0]),
    _magnitudes,
    _magnitudes.map(lambda x: -x),
    st.floats(min_value=-1e300, max_value=1e300),
)
_lists = st.one_of(
    st.lists(_values, min_size=1, max_size=200),
    # few distinct values, so most of the list ties
    st.lists(_values, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=200)
    ),
)


def _bits(x):
    return x, math.copysign(1.0, x)


@settings(max_examples=600, deadline=None)
@given(_lists)
def test_p90_equals_numpy_percentile(xs):
    expected = float(np.percentile(xs, 90))
    got = p90(xs)
    assert type(got) is float
    if expected == 0.0 and {_bits(0.0), _bits(-0.0)} <= {_bits(x) for x in xs}:
        # which zero numpy's partition leaves at the interpolated positions
        # depends on the input order: np.percentile gives 0.0 for
        # [0.0, -0.0, -1.0, -0.0] and -0.0 for [-1.0, 0.0, -0.0, -0.0]
        assert got == expected
    else:
        assert _bits(got) == _bits(expected)


@pytest.mark.parametrize(
    "xs, expected",
    [
        ([-0.0], -0.0),
        ([-0.0, -0.0], -0.0),  # gamma 0.9 interpolates from the upper end
        ([5.0], 5.0),
        ([1.0, 2.0], 1.9),
        (list(range(1, 11)), 9.1),
    ],
)
def test_p90_small_cases(xs, expected):
    assert _bits(p90(xs)) == _bits(expected)
    assert _bits(p90(xs)) == _bits(float(np.percentile(xs, 90)))


def test_p90_does_not_depend_on_order():
    xs = [0.0, -0.0, -1.0, -0.0, 3.5, 3.5, 1e-300]
    results = {_bits(p90(p)) for p in itertools.permutations(xs)}
    assert len(results) == 1


def test_p90_of_nothing_is_an_error():
    with pytest.raises(ValueError, match="at least one value"):
        p90([])


def test_sweep_does_not_import_numpy_ma(tmp_path):
    """np.percentile imports ``numpy.ma``; the program no longer calls it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    script = (
        "import sys\n"
        "from reusesim.cli import main\n"
        f"assert main(['sweep', 'completion', '-d', {str(tmp_path)!r},"
        " '--trials', '1']) == 0\n"
        "assert 'numpy' in sys.modules\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sweep_completion.csv").exists()
