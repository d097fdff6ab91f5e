"""Fit results do not depend on the BLAS thread count.

Each case runs in a child process whose environment alone sets
``OPENBLAS_NUM_THREADS``; this process's thread settings are untouched.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints one line per fit: its JSON without the timings.  Floats print at
# full precision, so equal lines mean equal values bit for bit.
CHILD = """
import json
import numpy as np
from scipy.special import ndtr
import smoothsel as ss

def show(result):
    out = result.to_dict()
    del out["timing_seconds"]
    out["diagnostics"].pop("stages")
    print(json.dumps(out, sort_keys=True))

for n in (500, 3001, 5000, 12345, 20000):
    show(ss.fit(*ss.generate(ss.Scenario("poly5", n, 2.0, 1, n), 0)))
for rep in range(3):
    rng = np.random.default_rng([500, rep])
    x = rng.uniform(0.0, 1.0, 300)
    y = (rng.uniform(size=300) < ndtr(2.0 * x - 1.0)).astype(float)
    show(ss.fit_binary(x, y, ss.BinaryFitConfig(seed=rep, scale=ss.PredictorScale(0.0, 1.0))))
"""


CASES = [
    "fit-n500", "fit-n3001", "fit-n5000", "fit-n12345", "fit-n20000",
    "binary-0", "binary-1", "binary-2",
]


def fits_at(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True,
        timeout=600, check=True,
    )
    lines = run.stdout.splitlines()
    assert len(lines) == len(CASES)
    return dict(zip(CASES, lines))


@pytest.fixture(scope="module")
def fits():
    return {threads: fits_at(threads) for threads in (1, 2)}


@pytest.mark.slow
@pytest.mark.parametrize("case", CASES)
def test_fit_identical_at_one_and_two_blas_threads(fits, case):
    assert fits[1][case] == fits[2][case]
