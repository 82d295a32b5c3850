"""Tools for non-Hermitian quantum models with real spectra.

Subpackages cover crystallographic root systems (`rootsys`), deformed
Calogero-type many-body systems with Lax pairs (`cms`), partner potentials built from a nodeless ground state
(`susy`), non-Hermitian spectral computations with an antilinear-symmetry
classification and a numerical metric search (`spectra`), two deformed
KdV flows (`kdv`), and a config-driven command line front end (`cli`).
"""

from . import cli, cms, errors, gridops, kdv, rootsys, spectra, susy

__all__ = ["cli", "cms", "errors", "gridops", "kdv", "rootsys", "spectra", "susy"]

__version__ = "0.1.0"
