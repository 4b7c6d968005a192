"""Every demo runs end to end at a small size, in-process, from a copy in a temporary folder.

The demos write their outputs next to themselves, so a copy keeps
``demos/`` clean.  Each case checks one line that the demo computes.
"""

import runpy
import shutil
import sys
import warnings
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "script,args,line",
    [
        ("localization_transition.py", ["--size", "34"],
         "metric peak:              V1  = 2.9894 (xi = 0.40)"),
        ("mobility_edge.py", ["--size", "34"],
         "   24         3.000          2.0528         2.0000    0.0528"),
        ("mixed_field_chain.py", ["--spins", "4"], "metric peak at h_z = 1.000"),
        ("cluster_phases.py", ["--r-eval", "10", "--lam-max", "0.3"],
         "metric peak:          lam = 0.300"),
    ],
    ids=["localization_transition", "mobility_edge", "mixed_field_chain", "cluster_phases"],
)
def test_demo_runs(tmp_path, monkeypatch, capsys, script, args, line):
    path = tmp_path / script
    shutil.copy(DEMOS / script, path)
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        runpy.run_path(str(path), run_name="__main__")
    assert line in capsys.readouterr().out.splitlines()
