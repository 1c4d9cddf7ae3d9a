import importlib
import sys

from consrate import blas

real_import = importlib.import_module


def test_routines_are_the_ones_scipy_linalg_hands_out():
    import scipy.linalg.blas
    import scipy.linalg.lapack

    assert blas.dger is scipy.linalg.blas.dger
    assert blas.dgemm is scipy.linalg.blas.dgemm
    assert blas.dgttrf is scipy.linalg.lapack.dgttrf
    assert blas.dgttrs is scipy.linalg.lapack.dgttrs


def test_a_missing_extension_file_falls_back_to_an_import(monkeypatch, tmp_path):
    # tmp_path stands for a scipy directory without linalg/_fblas*.so
    imported = []
    monkeypatch.setattr(importlib, "import_module", lambda name: imported.append(name) or real_import(name))
    monkeypatch.delitem(sys.modules, "scipy.linalg._fblas")
    module = blas._load("scipy.linalg._fblas", str(tmp_path))
    assert imported == ["scipy.linalg._fblas"]
    assert module is sys.modules["scipy.linalg._fblas"]
    assert module.dgemm is blas.dgemm
