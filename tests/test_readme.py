"""The README's "Library" example runs as written."""

import math
import re
from pathlib import Path

import pytest

import tropfit
from tropfit import PuiseuxRational, eval_rational

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_block_runs():
    names: dict = {}
    exec(library_block(), names)
    samples, fit = names["samples"], names["fit"]
    assert isinstance(fit.rational, PuiseuxRational)
    assert math.isfinite(names["value"])
    miss = max(abs(eval_rational(fit.rational, x) - y) for x, y in samples.points)
    assert miss == pytest.approx(fit.delta_star / 2, abs=1e-9)


def test_brute_force_oracle_is_not_exported():
    """The exhaustive oracle lives in the test suite, not in the package."""
    assert "brute_force_poly_fit" not in tropfit.__all__
    assert not hasattr(tropfit, "brute_force_poly_fit")
    assert not hasattr(tropfit.fitting, "brute_force_poly_fit")
