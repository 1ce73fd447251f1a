"""topokit: density-based and neural-reparameterized topology optimization."""

__version__ = "0.1.0"

import importlib.util
import sys

import numpy


def _defer_unused_numpy_submodules() -> None:
    """Bind numpy's submodules that topokit never uses as lazily executed modules.

    Importing scipy.sparse runs scipy's array-API layer, which calls getattr
    on every public numpy name. That executes numpy's lazily loaded
    submodules, among them numpy.f2py and numpy.testing with the unittest,
    email, socket and logging packages behind them: about a third of
    topokit's import time and 9 MB of memory, none of it used here. Each is
    bound instead as a module whose body runs on its first attribute access,
    so ``numpy.testing.assert_allclose`` and ``from numpy.ma import ...``
    behave as before. This must run before the first import that reaches
    scipy. A submodule already imported is left alone; numpy.random and
    numpy.typing are used and stay eager.

    numpy's own functions can still execute one: ``np.unique`` calls
    ``np.ma.is_masked`` (numpy 2.4), and that first call loads numpy.ma in
    11 ms and 1.8 MB of RSS. So topokit's code keeps off such functions
    (``problems.make_problem`` sorts a set of fixed DOFs instead), and a
    test runs an optimization of every pipeline and checks that each
    deferred submodule is still unexecuted at its end.
    """
    for name in ("f2py", "testing", "ma", "polynomial", "ctypeslib", "rec", "char", "strings"):
        full_name = f"numpy.{name}"
        if full_name in sys.modules:
            continue
        spec = importlib.util.find_spec(full_name)
        if spec is None:
            continue
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full_name] = module
        setattr(numpy, name, module)
        spec.loader.exec_module(module)


_defer_unused_numpy_submodules()
