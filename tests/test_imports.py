"""Import layering: every subpackage imports on its own, and the heavy
optional dependencies load only when a call reaches them.

``repro`` imports its subpackages lazily (PEP 562), the solver imports
SciPy on its first sparse factorization and the interconnect fabric
imports networkx in the methods that build graphs.  The pytest process
has already imported everything, so each check runs in a fresh
interpreter.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict

import pytest

import repro
from repro.interconnect import Net, ProgrammableFabric

SRC = str(Path(repro.__file__).resolve().parents[1])
SUBPACKAGES = sorted({*repro._SUBMODULES, "board"})
HEAVY = ("scipy", "networkx")


def _run(code: str) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=60)


def _check(code: str) -> str:
    """Run *code* in a fresh interpreter; its stdout, or fail with stderr."""
    done = _run(code)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def alone() -> Dict[str, subprocess.CompletedProcess]:
    """``import repro.<sub>`` in its own interpreter, for every subpackage
    (two at a time, to keep the file quick)."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = pool.map(lambda sub: _run(f"import repro.{sub}"), SUBPACKAGES)
        return dict(zip(SUBPACKAGES, runs))


@pytest.mark.parametrize("sub", SUBPACKAGES)
def test_subpackage_imports_on_its_own(alone, sub):
    assert alone[sub].returncode == 0, alone[sub].stderr


def test_serving_loads_neither_scipy_nor_networkx():
    out = _check("""
        import sys
        import repro.api, repro.serve, repro.engine
        from repro import api
        result = api.run_kernel(kernel="adder", width=32,
                                operands={"a": [1, 2], "b": [3, 4]})
        assert result.word("sum").tolist() == [4, 6]
        print(sorted(m for m in %r if m in sys.modules))
    """ % (HEAVY,))
    assert out.strip() == "[]"


def test_serving_loads_no_crossbar_board_or_http_exporter():
    """The kernel compiler reaches ``repro.logic.program`` only, and the
    HTTP exporter loads with a metrics endpoint, not with serving."""
    out = _check("""
        import sys
        import repro.api, repro.serve
        assert "repro.obs.httpexport" not in sys.modules
        from repro import api
        result = api.run_kernel(kernel="adder", width=32,
                                operands={"a": [1, 2], "b": [3, 4]})
        assert result.word("sum").tolist() == [4, 6]
        print(sorted(m for m in ("repro.crossbar", "repro.board",
                                 "repro.logic.lut", "repro.obs.httpexport")
                     if m in sys.modules))
    """)
    assert out.strip() == "[]"


def test_lazy_logic_and_obs_expose_every_name():
    out = _check("""
        import repro.logic, repro.obs
        for package in (repro.logic, repro.obs):
            namespace = {}
            exec(f"from {package.__name__} import *", namespace)
            missing = [n for n in package.__all__ if n not in namespace]
            assert not missing, missing
            assert set(package.__all__) <= set(dir(package))
        assert repro.logic.lut.CrossbarLUT is repro.logic.CrossbarLUT
        assert repro.obs.httpexport.TelemetryHTTPServer is (
            repro.obs.TelemetryHTTPServer)
        try:
            repro.logic.no_such_name
        except AttributeError:
            print("ok")
    """)
    assert out.strip() == "ok"


def test_board_sits_below_logic_and_reliability():
    out = _check("""
        import sys
        import repro.board
        print(sorted(m for m in ("repro.logic", "repro.reliability")
                     if m in sys.modules))
    """)
    assert out.strip() == "[]"


def test_lazy_package_exposes_every_subpackage():
    out = _check("""
        import repro
        assert set(repro._SUBMODULES) <= set(dir(repro))
        assert repro.serve.__name__ == "repro.serve"
        namespace = {}
        exec("from repro import *", namespace)
        missing = [name for name in repro.__all__ if name not in namespace]
        assert not missing, missing
        assert namespace["api"] is repro.api
        try:
            repro.no_such_subpackage
        except AttributeError:
            print("ok")
    """)
    assert out.strip() == "ok"


@pytest.mark.skipif(importlib.util.find_spec("scipy") is None,
                    reason="scipy (repro[fast]) not installed")
def test_first_ir_drop_solve_imports_scipy():
    out = _check("""
        import sys
        import numpy as np
        from repro import api
        from repro.crossbar.solver import scipy_available
        assert "scipy" not in sys.modules
        g = np.random.default_rng(3).uniform(1e-5, 1e-3, (6, 5))
        drive = dict(conductances=g, row_drive={0: 1.0, 3: 0.5},
                     col_drive={1: 0.0}, wire_resistance=2.0)
        auto = api.solve_crossbar(**drive)
        assert "scipy.sparse.linalg" in sys.modules
        assert scipy_available()
        dense = api.solve_crossbar(backend="dense", **drive)
        np.testing.assert_allclose(auto.junction_currents,
                                   dense.junction_currents,
                                   rtol=1e-9, atol=1e-15)
        print("ok")
    """)
    assert out.strip() == "ok"


def test_without_scipy_auto_falls_back_to_dense():
    out = _check("""
        import sys
        sys.modules["scipy"] = None  # as if the repro[fast] extra were absent
        import numpy as np
        from repro.crossbar.solver import (scipy_available,
                                           solve_with_wire_resistance)
        from repro.errors import CrossbarError
        assert not scipy_available()
        g = np.full((3, 3), 1e-4)
        solve_with_wire_resistance(g, {0: 1.0}, {0: 0.0})
        try:
            solve_with_wire_resistance(g, {0: 1.0}, {0: 0.0},
                                       backend="sparse")
        except CrossbarError as exc:
            print(exc)
    """)
    assert "repro[fast]" in out


def test_fabric_routes_a_net():
    fabric = ProgrammableFabric(3, 3)
    route = fabric.route_net(Net((0, 0), (2, 2)))
    assert route is not None
    assert route.path[0] == (0, 0) and route.path[-1] == (2, 2)
    assert len(route.path) == 5
