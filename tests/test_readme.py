"""The README's library quick tour runs and its commented claims hold."""

import math
import re
from pathlib import Path

import numpy as np

import holoent as h

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour_source() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_tour_runs_and_its_claims_hold():
    tour = {}
    exec(quick_tour_source(), tour)
    assert abs(h.entanglement_entropy(tour["state"]) - math.log(2)) <= 1e-12
    assert h.restrict(tour["state"]).max_abs() == 0.0
    assert abs(tour["res"].best_value - math.log(4)) <= 1e-12
    assert np.max(np.abs(tour["T"].entries - tour["P"].entries)) <= 1e-15
    est = tour["est"]
    assert abs(est.mean - h.page_mean(3)) <= 5 * est.stderr
