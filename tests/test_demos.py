"""The demos run to completion and print what they are about."""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos")


# one line each demo prints
EXPECTED = {
    "01_root_systems.py": "B_2: 8 roots (4 short, 4 long)",
    "02_deformed_calogero.py": "rational       mu-identity residual  0.00e+00   "
                               "shifted-form residual  0.00e+00",
    "03_partner_potentials.py": "level",
    "04_nonhermitian_spectra.py": "level",
    "05_deformed_kdv.py": "eps=3 traveling wave exists: False",
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert EXPECTED[name] in capsys.readouterr().out
