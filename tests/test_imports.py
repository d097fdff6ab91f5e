"""Importing the package loads no scipy subpackage beyond what scipy.special loads.

Each case starts a fresh interpreter, so the modules this test process has
already loaded do not count.  ``scipy.linalg`` loads on the first Gaussian
QR and ``scipy.integrate`` on the first noise level a simulation computes.
Before scipy 1.17, ``scipy.special`` imports ``scipy.linalg`` itself, so the
cases that expect no heavy subpackage allow what a fresh
``import numpy, scipy.special`` loads.
"""

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.special import ndtr

import smoothsel as ss

TESTS = Path(__file__).resolve().parent
HEAVY = ("scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.sparse")


# The samples are drawn with numpy alone, so no helper loads a module first.
def gaussian_sample(n):
    rng = np.random.default_rng([29, n])
    x = rng.uniform(0.0, 1.0, n)
    return x, np.sin(2.0 * np.pi * x) + 0.3 * rng.standard_normal(n)


def probit_sample(n):
    rng = np.random.default_rng([29, n])
    x = rng.uniform(0.0, 1.0, n)
    return x, (rng.uniform(size=n) < ndtr(2.0 * x - 1.0)).astype(float)


def fit_line(result):
    """A fit's JSON without its timings, at full float precision."""
    out = result.to_dict()
    del out["timing_seconds"]
    out["diagnostics"].pop("stages")
    return json.dumps(out, sort_keys=True)


def run_fresh(code, imports="from test_imports import *"):
    """The HEAVY modules loaded after ``code`` runs in a fresh interpreter, and its output.

    ``code`` runs after ``imports``, by default this module's, so it may call
    its helpers.
    """
    report = f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    child = f"import json, sys\n{imports}\n{code}\n{report}"
    env = dict(os.environ)
    path = [str(TESTS.parent / "src"), str(TESTS), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    run = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    *output, modules = run.stdout.splitlines()
    return json.loads(modules), output


@lru_cache(maxsize=None)
def scipy_baseline():
    """The HEAVY modules that numpy and scipy.special load by themselves."""
    modules, _ = run_fresh("", imports="import numpy, scipy.special")
    return frozenset(modules)


def test_import_loads_no_heavy_subpackage():
    modules, output = run_fresh("")
    assert set(modules) <= scipy_baseline() and output == []


def test_probit_fit_loads_no_heavy_subpackage():
    modules, output = run_fresh("ss.fit_binary(*probit_sample(300), ss.BinaryFitConfig(seed=0))")
    assert set(modules) <= scipy_baseline() and output == []


def test_first_blocked_fit_loads_linalg_and_matches():
    # At n = 20000 the QR splits into blocks that the calling thread and a
    # pool share, so the routine the workers call must be resolved already.
    modules, output = run_fresh("print(fit_line(ss.fit(*gaussian_sample(20000))))")
    assert "scipy.linalg" in modules and "scipy.integrate" not in modules
    assert output == [fit_line(ss.fit(*gaussian_sample(20000)))]


def test_generate_loads_integrate():
    modules, _ = run_fresh("ss.generate(ss.Scenario('poly5', 100, 2.0, 1, 0), 0)")
    assert "scipy.integrate" in modules
