"""Fit results do not depend on the BLAS thread count or the core count.

Each case runs in a child process whose environment alone sets
``OPENBLAS_NUM_THREADS``; this process's thread settings are untouched.
One more child pins itself to one CPU, so ``fit`` above one block of rows
and ``fit_binary`` take their real single-core path, with no thread pool.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints one line per fit: its JSON without the timings.  Floats print at
# full precision, so equal lines mean equal values bit for bit.  With the
# argument "one-core" the child pins itself to one CPU before numpy loads
# and runs the multi-block fit cases and the fit_binary cases.
CHILD = """
import os
import sys
ONE_CORE = sys.argv[1:] == ["one-core"]
if ONE_CORE:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import json
import numpy as np
from scipy.special import ndtr
import smoothsel as ss
from smoothsel.gprior import _available_cores

def show(result):
    out = result.to_dict()
    del out["timing_seconds"]
    out["diagnostics"].pop("stages")
    print(json.dumps(out, sort_keys=True))

if ONE_CORE:
    assert _available_cores() == 1
for n in (2049, 3001, 5000, 12345, 20000) if ONE_CORE else (500, 2049, 3001, 5000, 12345, 20000):
    show(ss.fit(*ss.generate(ss.Scenario("poly5", n, 2.0, 1, n), 0)))
for rep in range(3):
    rng = np.random.default_rng([500, rep])
    x = rng.uniform(0.0, 1.0, 300)
    y = (rng.uniform(size=300) < ndtr(2.0 * x - 1.0)).astype(float)
    show(ss.fit_binary(x, y, ss.BinaryFitConfig(seed=rep, scale=ss.PredictorScale(0.0, 1.0))))
"""


BINARY_CASES = ["binary-0", "binary-1", "binary-2"]
BLOCKED_FIT_CASES = ["fit-n2049", "fit-n3001", "fit-n5000", "fit-n12345", "fit-n20000"]
ONE_CORE_CASES = BLOCKED_FIT_CASES + BINARY_CASES
CASES = ["fit-n500"] + ONE_CORE_CASES


def run_child(env, *args):
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", CHILD, *args], env=env, capture_output=True, text=True,
        timeout=600, check=True,
    )
    return run.stdout.splitlines()


def fits_at(threads):
    lines = run_child(dict(os.environ, OPENBLAS_NUM_THREADS=str(threads)))
    assert len(lines) == len(CASES)
    return dict(zip(CASES, lines))


@pytest.fixture(scope="module")
def fits():
    return {threads: fits_at(threads) for threads in (1, 2)}


@pytest.fixture(scope="module")
def one_core_fits():
    # OpenBLAS keeps its default thread count, which it takes from the one CPU.
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    lines = run_child(env, "one-core")
    assert len(lines) == len(ONE_CORE_CASES)
    return dict(zip(ONE_CORE_CASES, lines))


@pytest.mark.slow
@pytest.mark.parametrize("case", CASES)
def test_fit_identical_at_one_and_two_blas_threads(fits, case):
    assert fits[1][case] == fits[2][case]


@pytest.mark.slow
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
@pytest.mark.parametrize("case", BINARY_CASES)
def test_binary_fit_identical_on_one_core(fits, one_core_fits, case):
    assert one_core_fits[case] == fits[1][case] == fits[2][case]


@pytest.mark.slow
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
@pytest.mark.parametrize("case", BLOCKED_FIT_CASES)
def test_fit_identical_on_one_core(fits, one_core_fits, case):
    assert one_core_fits[case] == fits[1][case] == fits[2][case]
