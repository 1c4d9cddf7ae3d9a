"""The four BLAS and LAPACK routines consrate calls, from scipy's f2py
extension modules scipy.linalg._fblas and _flapack, lfilter's C loop,
_linear_filter of scipy.signal._sigtools, and the sparse matrix product's C
loop, csr_matvecs of scipy.sparse._sparsetools, each loaded from its file.

``import scipy.linalg`` costs about 0.2 s and 25 MB on every command,
``import scipy.signal`` about 0.7 s and 75 MB and ``import scipy.sparse``
about 0.15 s, nearly all of it in modules consrate never calls; the four
files load in about 10 ms. Each module is registered in sys.modules under
its own name, so a later ``import scipy.linalg``, ``import scipy.signal`` or
``import scipy.sparse`` finds it there, and the routines are the very
objects scipy hands out; each is also set as its package's attribute, as
the import system sets a submodule it loads itself, at once if the package
is loaded and otherwise when it is. Where a file cannot be found, its module
is imported the usual way.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys


def scipy_dir() -> str | None:
    """scipy's package directory, found without importing scipy; None if
    scipy is not on the path as a package."""
    spec = importlib.util.find_spec("scipy")
    return spec.submodule_search_locations[0] if spec is not None and spec.submodule_search_locations else None


class _AttachOnImport:
    """The finder at the front of sys.meta_path while a package has pending
    submodules, which _load registered before the package was imported: it
    finds the package through the other finders and loads it in place of
    their loader, setting the submodules as its attributes once its code has
    run, and leaves sys.meta_path when no package is pending."""

    def __init__(self):
        self.pending: dict[str, dict] = {}  # package -> {attribute: submodule}
        self.loaders: dict = {}  # package -> the loader the other finders gave it

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.pending:
            return None
        finders = (f for f in sys.meta_path if f is not self and hasattr(f, "find_spec"))
        spec = next(filter(None, (f.find_spec(fullname, path, target) for f in finders)), None)
        if spec is not None and spec.loader is not None:
            self.loaders[fullname], spec.loader = spec.loader, self
        return spec

    def create_module(self, spec):
        return self.loaders[spec.name].create_module(spec)

    def exec_module(self, module) -> None:
        name = module.__spec__.name
        module.__spec__.loader = module.__loader__ = self.loaders.pop(name)
        module.__loader__.exec_module(module)
        module.__dict__.update(self.pending.pop(name))
        if not self.pending:
            sys.meta_path.remove(self)


_attach = _AttachOnImport()


def _load(name: str, root: str | None):
    """The extension module ``name`` (scipy.<package>._*): the one in
    sys.modules, or else loaded from its file under scipy's directory
    ``root``, registered there and set as its package's attribute, or else
    imported."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(root, *name.split(".")[1:-1])]) if root else None
    if spec is None:
        return importlib.import_module(name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    if package in sys.modules:
        setattr(sys.modules[package], child, module)
    else:
        _attach.pending.setdefault(package, {})[child] = module
        if _attach not in sys.meta_path:
            sys.meta_path.insert(0, _attach)
    return module


_fblas, _flapack, _sigtools, _sparsetools = (
    _load(f"scipy.{name}", scipy_dir())
    for name in ("linalg._fblas", "linalg._flapack", "signal._sigtools", "sparse._sparsetools")
)
dger, dgemm = _fblas.dger, _fblas.dgemm
dgttrf, dgttrs = _flapack.dgttrf, _flapack.dgttrs
linear_filter = _sigtools._linear_filter  # lfilter(b, a, x, axis) for an `a` of two or more taps
csr_matvecs = _sparsetools.csr_matvecs  # Y += A @ X for a CSR matrix A and C-ordered X and Y of n_vecs columns
