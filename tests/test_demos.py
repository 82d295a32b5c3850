"""The demos that use the grid eigensolvers run to completion."""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos")


@pytest.mark.parametrize("name", ["03_partner_potentials.py",
                                  "04_nonhermitian_spectra.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert "level" in capsys.readouterr().out
