"""Benchmark of smoothsel's public API: fit, fit_binary and run_grid.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fit-n500 --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seconds 16

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one returned.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` wraps the package's public functions and
prints the per-layer metrics.  The last line of standard output is one JSON
object; the full result, with provenance, goes to ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the loops are single-client and
# a second BLAS thread only adds contention on a small box.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
REFERENCE_FILE = HERE / "reference_orders.json"
DEFAULT_SEED = 0
# Seeds 0 .. REFERENCE_SEEDS-1 have recorded reference orders.
REFERENCE_SEEDS = 64
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
P90_MIN_TAIL = 10


def _require_source() -> None:
    if not (SRC / "smoothsel" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {SRC / 'smoothsel'}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


_require_source()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import smoothsel  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, FitWorkload, Item, make_workload  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "latency_ms_best": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Span name -> per-operation statistics reported for it.
LAYER_SPANS = {
    "basis.build_design": ("calls", "self_ms"),
    "gprior.model_posterior": ("self_ms",),
    "selector.fit": ("self_ms",),
    "selector.predictive_loss": ("calls", "self_ms"),
    "selector.predict": ("self_ms",),
    "transform.build_transform": ("calls", "self_ms"),
    "binary.binary_log_bf": ("calls", "self_ms"),
    "simulation.generate": ("self_ms",),
    "simulation.full_order_curve": ("self_ms",),
    "simulation.run_grid": ("self_ms",),
}
LAYER_UNITS = {"calls": "calls/op", "self_ms": "ms/op"}
DERIVED_LAYER = {
    "basis.design_mb": "MB/op",
    "binary.ms_per_1k_draws": "ms",
    "binary.mc_se_p50": "nats",
    "binary.mc_se_max": "nats",
    "binary.negligible_order_ratio": "ratio",
    "simulation.csv_bytes": "B/op",
    "trace_overhead_ratio": "ratio",
}


# ----------------------------------------------------------------- provenance


def _git_commit() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads() -> dict[str, int]:
    """Thread count reported by each loaded OpenBLAS, queried through ctypes."""
    import ctypes

    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def provenance(seed: int) -> dict:
    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "smoothsel": smoothsel.__version__,
        "blas_numpy": blas(np.show_config(mode="dicts")),
        "blas_scipy": blas(scipy.show_config(mode="dicts")),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads_measured": _blas_threads(),
        "seed": seed,
        "platform": platform.platform(),
    }


# -------------------------------------------------------------- measurement


class Tally:
    """Runs operations, applies the gate, and counts attempts and failures."""

    def __init__(self, workload, items, reference):
        self.wl = workload
        self.items = items
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Outcome summary of the first correct run of each item.
        self.summaries: dict[int, dict] = {}

    def op(self, i: int, call):
        """One operation on item ``i``; returns (seconds, output or None)."""
        idx = i % len(self.items)
        item = self.items[idx]
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = call(self.wl.run, item)
        except Exception:  # a raising operation counts as failed
            dt = perf_counter() - t0
            self._fail(item.label, "raised " + traceback.format_exc(limit=3))
            return dt, None
        dt = perf_counter() - t0
        try:
            problems = self.wl.check(item, out)
        except Exception:  # e.g. predict raising on a malformed result
            problems = ["check raised " + traceback.format_exc(limit=3)]
        if self.reference is not None:
            got = self.wl.orders(out)
            if got != self.reference[idx]:
                problems.append(f"orders {got} differ from reference {self.reference[idx]}")
        if problems:
            self._fail(item.label, "; ".join(problems))
        elif idx not in self.summaries:
            self.summaries[idx] = self.wl.summary(item, out)
        return dt, out

    def _fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {why}")


def plain(fn, item):
    return fn(item)


def _percentile_block(latencies: list[float]) -> dict:
    ms = np.asarray(latencies) * 1e3
    block = {"samples": int(ms.size), "p50_ms": float(np.median(ms))}
    p90 = float(np.percentile(ms, 90))
    above = int(np.sum(ms > p90))
    block["p90_ms"] = p90 if above >= P90_MIN_TAIL else None
    block["samples_above_p90"] = above
    return block


def measure_setup(workload: str, seed: int) -> float:
    """Process start through import, input generation and the first operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    # perf_counter is the system-wide monotonic clock, so the child's
    # reading and ours share an origin.
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def _remove_csv(wl) -> None:
    csv_path = getattr(wl, "csv_path", None)
    if csv_path and os.path.exists(csv_path):
        os.remove(csv_path)


def setup_probe(workload: str, seed: int) -> None:
    wl = make_workload(workload, str(OUT_DIR))
    try:
        wl.run(wl.inputs(seed)[0])
        print(repr(perf_counter()))
    finally:
        _remove_csv(wl)


def gate_self_check() -> list[str]:
    """Pass a correct result and deliberately corrupted copies of it through the gate.

    Each goes through ``Tally.op`` as a finished operation, so this checks
    that a corrupted result is counted as failed, not only that the check
    function objects to it.  Returns what went wrong (empty when all is well).
    """
    scenario = smoothsel.Scenario("poly5", 200, 2.0, 1, 12345)
    x, y = smoothsel.generate(scenario, 0)
    good = smoothsel.fit(x, y)
    first = np.arange(good.posterior.size) == 0
    cases = [
        ("correct result", "mpm", good, False),
        ("wrong order", "mpm",
         replace(good, selected_order=(good.selected_order + 1) % (good.max_order + 1)), True),
        ("posterior sums to 1.01", "mpm", replace(good, posterior=good.posterior * 1.01), True),
        ("negative posterior entry", "mpm",
         replace(good, posterior=np.where(first, -1e-3, good.posterior)), True),
        ("order is not the loss argmin", "loss",
         replace(good, selected_order=int(np.nanargmax(good.diagnostics["loss"]))), True),
    ]
    issues = []
    for label, rule, result, corrupt in cases:
        tally = Tally(FitWorkload("gate-self-check", x.size), [Item(label, (), rule, scenario.mu)], None)
        tally.op(0, lambda fn, item, result=result: result)
        if tally.failed != int(corrupt):
            issues.append(f"{label}: counted {tally.failed} failed, expected {int(corrupt)}")
    return issues


def _load_reference(workload: str, seed: int):
    if not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text())["orders"].get(workload, {}).get(str(seed))


def run_untraced(wl, tally: Tally, seconds: float, probe) -> dict:
    """Timed operations for ``seconds``, and at least one on every item.

    The loop runs in SETUP_PROBES slices with one set-up probe before each,
    so the probes sample the whole run rather than its first seconds.
    """
    tally.op(0, plain)  # warm-up: caches fill, lazy set-up finishes
    per_item: dict[int, list[float]] = {}
    units_done = 0
    setup = []
    i = 1
    loop_s = 0.0  # time spent in the loop, probes excluded
    for k in range(SETUP_PROBES):
        setup.append(probe())
        last = k == SETUP_PROBES - 1
        slice_end = seconds * (k + 1) / SETUP_PROBES
        while loop_s < slice_end or (last and i <= len(tally.items)):
            t0 = perf_counter()
            dt, out = tally.op(i, plain)
            loop_s += perf_counter() - t0
            if out is not None:
                per_item.setdefault(i % len(tally.items), []).append(dt)
                units_done += wl.units_done(out)
            i += 1
    runs_per_item = [0] * len(tally.items)
    for j in range(1, i):
        runs_per_item[j % len(tally.items)] += 1
    return {
        "latencies": [dt for times in per_item.values() for dt in times],
        "per_item": [per_item[idx] for idx in sorted(per_item)],
        "units_done": units_done,
        "runs_per_item": runs_per_item,
        "setup": setup,
    }


def run_traced(wl, tally: Tally, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Pairs of an untraced and a traced run of the same item, for ``seconds``."""
    counts = {"design_bytes": 0, "draws": 0}

    def add(key, amount):
        counts[key] += amount

    observers = {
        "basis.build_design": lambda d: add("design_bytes", d.values.size * 8),
        "binary.binary_log_bf": lambda e: add("draws", e.n_draws),
    }
    tracer = Tracer("smoothsel", observers)
    tally.op(0, plain)  # warm-up
    untraced_s = traced_s = 0.0
    deadline = perf_counter() + seconds
    pairs = 0
    while pairs == 0 or perf_counter() < deadline:
        dt_u, _ = tally.op(pairs + 1, plain)
        dt_t, _ = tally.op(pairs + 1, lambda fn, item: tracer.run_op(pairs, fn, item))
        untraced_s += dt_u
        traced_s += dt_t
        pairs += 1

    totals = tracer.totals()
    metrics = {}
    for span, stats in LAYER_SPANS.items():
        entry = totals.get(span, {"calls": 0, "self_s": 0.0})
        if "calls" in stats:
            metrics[f"{span}.calls"] = entry["calls"] / pairs
        if "self_ms" in stats:
            metrics[f"{span}.self_ms"] = entry["self_s"] * 1e3 / pairs
    bf_self_s = totals.get("binary.binary_log_bf", {"self_s": 0.0})["self_s"]
    summaries = list(tally.summaries.values())

    def median_of(key):
        values = [s[key] for s in summaries if key in s]
        return statistics.median(values) if values else 0.0

    metrics.update({
        "basis.design_mb": counts["design_bytes"] / 1e6 / pairs,
        "binary.ms_per_1k_draws": bf_self_s * 1e6 / counts["draws"] if counts["draws"] else 0.0,
        "binary.mc_se_p50": median_of("mc_se_p50"),
        "binary.mc_se_max": median_of("mc_se_max"),
        "binary.negligible_order_ratio": median_of("negligible_order_ratio"),
        "simulation.csv_bytes": median_of("csv_bytes"),
        "trace_overhead_ratio": traced_s / untraced_s,
    })
    tracer.dump(str(spans_path))
    extra = {
        "traced_ops": pairs,
        "spans": len(tracer.start),
        "span_file": str(spans_path.relative_to(ROOT)),
        "wrapped": tracer.names,
        "span_totals": totals,
    }
    return metrics, extra


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    gate_issues = gate_self_check()
    wl = make_workload(name, str(OUT_DIR))
    tally = Tally(wl, wl.inputs(seed), _load_reference(name, seed))
    try:
        if trace:
            spans_path = OUT_DIR / f"{name}-seed{seed}-spans.json.gz"
            values, extra = run_traced(wl, tally, seconds, spans_path)
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        else:
            loop = run_untraced(wl, tally, seconds, lambda: measure_setup(name, seed))
            if not loop["per_item"]:
                raise RuntimeError("no operation returned: " + "; ".join(tally.problems[:3]))
            extra = untraced_extras(wl, tally, loop)
            values = {
                "setup_s": statistics.median(loop["setup"]),
                # Each pool item's fastest run, averaged over the pool, so
                # every item weighs the same however many runs it got.
                "latency_ms_best": 1e3 * statistics.mean(min(times) for times in loop["per_item"]),
                # Units over the time spent inside the timed operations: the
                # rate the loop sustains, without the gate's checks or probes.
                "throughput_per_s": loop["units_done"] / sum(loop["latencies"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    finally:
        _remove_csv(wl)
    return {
        "workload": name,
        "trace": int(trace),
        "correct": tally.failed == 0 and not gate_issues,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted,
        "gate_self_check": gate_issues or "ok",
        "problems": tally.problems,
        "reference_checked": tally.reference is not None,
        "metrics": metrics,
        "extra": extra,
        "provenance": provenance(seed),
    }


def layer_unit(name: str) -> str:
    if name in DERIVED_LAYER:
        return DERIVED_LAYER[name]
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


def untraced_extras(wl, tally: Tally, loop: dict) -> dict:
    """Everything the untraced run reports beyond the gated end-to-end metrics."""
    summaries = [tally.summaries[idx] for idx in sorted(tally.summaries)]
    errors = [e for s in summaries for e in s["sup_errors"]]
    extra = {
        "latency": _percentile_block(loop["latencies"]),
        "runs_per_item": loop["runs_per_item"],
        "latencies_ms_per_item": [[1e3 * dt for dt in times] for times in loop["per_item"]],
        "units": wl.units,
        "setup_probes_s": loop["setup"],
        "sup_err_p50": statistics.median(errors) if errors else None,
        "sup_err_samples": len(errors),
    }
    se_max = [s["mc_se_max"] for s in summaries if "mc_se_max" in s]
    if se_max:
        extra["mc_se_max"] = max(se_max)
    return extra


def _print_result(res: dict) -> None:
    print(f"# {res['workload']} trace={res['trace']} attempted={res['attempted']} "
          f"failed={res['failed']} gate_self_check={res['gate_self_check']}")
    for name, m in res["metrics"].items():
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']}")
    extra = res["extra"]
    reported = {"failed_ratio": (res["failed_ratio"], "ratio")}
    if "latency" in extra:
        lat = extra["latency"]
        reported["latency_ms_p50"] = (lat["p50_ms"], "ms")
        reported["latency_ms_p90"] = (lat["p90_ms"], f"ms ({lat['samples_above_p90']} above)")
        reported["latency_samples"] = (lat["samples"], "count")
        reported["sup_err_p50"] = (extra["sup_err_p50"], f"y-units (n={extra['sup_err_samples']})")
        if "mc_se_max" in extra:
            reported["mc_se_max"] = (extra["mc_se_max"], "nats")
    for name, (value, unit) in reported.items():
        shown = "n/a" if value is None else f"{value:14.6g}"
        print(f"  {name:38s} {shown:>14s} {unit}  (reported, not gated)")
    for problem in res["problems"][:5]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-reference", action="store_true",
                    help=f"record the selected orders at seeds 0-{REFERENCE_SEEDS - 1} "
                         "as the reference")
    args = ap.parse_args(argv)

    if args.record_reference:
        return record_reference()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)

    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(res, indent=1, default=float) + "\n")
    _print_result(res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process so peak RSS belongs to it."""
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def record_reference() -> int:
    orders = {}
    OUT_DIR.mkdir(exist_ok=True)
    for name in WORKLOADS:
        wl = make_workload(name, str(OUT_DIR))
        try:
            orders[name] = {
                str(seed): [wl.orders(wl.run(item)) for item in wl.inputs(seed)]
                for seed in range(REFERENCE_SEEDS)
            }
        finally:
            _remove_csv(wl)
    lines = [f'  "{name}": {{' + ",".join(
        f'\n   "{seed}": {json.dumps(per_seed)}' for seed, per_seed in by_seed.items()) + "}"
        for name, by_seed in orders.items()]
    REFERENCE_FILE.write_text(
        f'{{"seeds": [0, {REFERENCE_SEEDS - 1}], "commit": "{_git_commit()}", "orders": {{\n'
        + ",\n".join(lines) + "}}\n")
    print(f"wrote {REFERENCE_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
