import importlib
import subprocess
import sys

import pytest

from consrate import blas
from tests.conftest import child_env

real_import = importlib.import_module


def test_routines_are_the_ones_scipy_linalg_hands_out():
    import scipy.linalg.blas
    import scipy.linalg.lapack

    assert blas.dger is scipy.linalg.blas.dger
    assert blas.dgemm is scipy.linalg.blas.dgemm
    assert blas.dgttrf is scipy.linalg.lapack.dgttrf
    assert blas.dgttrs is scipy.linalg.lapack.dgttrs


def test_csr_matvecs_is_the_one_scipy_sparse_hands_out():
    # imported as scipy.sparse's own modules import it: the module consrate
    # loaded is the one the package hands out
    from scipy.sparse import _sparsetools

    assert blas.csr_matvecs is _sparsetools.csr_matvecs


def test_packages_imported_later_hold_the_loaded_modules_as_attributes(tmp_path):
    # in a fresh interpreter, where consrate loads the four modules before any
    # scipy package is imported: each package, once imported, holds its module
    # as an attribute, as it would had it imported the module itself
    code = (
        "import sys, consrate.blas as b\n"
        "import scipy.linalg, scipy.signal, scipy.sparse\n"
        "print(scipy.linalg._fblas is b._fblas, scipy.linalg._flapack is b._flapack,"
        " scipy.signal._sigtools is b._sigtools, scipy.sparse._sparsetools is b._sparsetools,"
        " b._attach in sys.meta_path)"
    )
    r = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=child_env(), capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["True"] * 4 + ["False"], r.stdout


@pytest.mark.parametrize("name, routine", [("linalg._fblas", "dgemm"), ("sparse._sparsetools", "csr_matvecs")])
def test_a_missing_extension_file_falls_back_to_an_import(monkeypatch, tmp_path, name, routine):
    # tmp_path stands for a scipy directory without the module's file
    name = f"scipy.{name}"
    imported = []
    monkeypatch.setattr(importlib, "import_module", lambda name: imported.append(name) or real_import(name))
    monkeypatch.delitem(sys.modules, name)
    module = blas._load(name, str(tmp_path))
    assert imported == [name]
    assert module is sys.modules[name]
    assert getattr(module, routine) is getattr(blas, routine)
