"""Time-to-solution benchmark of the HPG-MxP reproduction.

    python3 perfbench/run.py --workload solve-40 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace both

``--trace 0`` measures the end-to-end metrics with tracing off and
``--trace 1`` is the separate traced run that gives the per-layer
metrics; ``both`` runs the two in turn.  Every metric is printed by
name with its unit, and the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The workloads, metric names and units are those of
``BENCHMARK.json`` at the repository root; ``workloads.py`` defines
what each workload runs and why.
"""

import os

# One BLAS thread per rank thread.  This must happen before numpy is
# imported: otherwise every rank thread's BLAS call may wake a pool of
# nproc threads, and two ranks on two cores oversubscribe them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Measure the checkout's own sources, never an installed copy.
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no repro sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro.backends import active_backend  # noqa: E402

from workloads import WHY, WORKLOADS  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    m["name"]: m["unit"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]
}


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def llc_bytes() -> int | None:
    """Size of the highest cache level the kernel reports, or None."""
    best = (0, None)
    for d in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((d / "level").read_text())
            size = (d / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        value = int(size.rstrip("KMG")) * scale
        best = max(best, (level, value))
    return best[1]


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (jiffies), or []."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except OSError:
        return []


def steal_frac(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between
    two :func:`cpu_times` readings: a shared machine's contention,
    which slows every timing of the run."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [a - b for a, b in zip(after, before)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "backend": active_backend(),
        "numba_absent": importlib.util.find_spec("numba") is None,
        "llc_bytes": llc_bytes(),
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """``(percentile, value)`` of the highest percentile with at least
    ten samples beyond it, or None below eleven samples."""
    n = len(xs)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(xs)[n - 11]


def end_to_end(rec) -> dict:
    return {
        "setup_s": _median(rec.setup_s),
        "mxp_solve_s": _median(rec.solve_s["mxp"]),
        "double_solve_s": _median(rec.solve_s["double"]),
        "rhs_per_s": rec.solved / rec.busy_s if rec.busy_s else 0.0,
        "req_latency_s": _median(rec.latency_s),
    }


def _sum(totals: dict, *names):
    """Calls, inclusive and self seconds, bytes over span names."""
    accs = [totals[n] for n in names if n in totals]
    return (
        sum(a.calls for a in accs),
        sum(a.total for a in accs),
        sum(a.self_s for a in accs),
        sum(a.nbytes for a in accs),
    )


def per_layer(rec, names) -> dict:
    """Every per-layer metric of BENCHMARK.json; 0 where a workload
    bypasses the layer.

    Span times and calls are per rank thread and per traced pair (one
    mixed-precision and one double solve, or batch).  ``backends.*``
    sum both tracers; ``mg.*`` and ``trace.*`` read the mixed-precision
    tracer alone, so they are per mixed-precision solve.
    """
    mxp = rec.tracers["mxp"].totals()
    dbl = rec.tracers["double"].totals()
    pairs = len(rec.traced_s["mxp"]) * rec.ranks
    steady = _median(rec.solve_s["mxp"])

    def first(name):
        vals = rec.counts.get(name)
        return vals[0] if vals else 0

    iters = first("mxp.iterations")
    calls, apply_s, _, _ = _sum(mxp, "mg.apply", "mg.apply_panel")
    _, solve_s, solve_self, _ = _sum(mxp, "solvers.solve", "solvers.solve_panel")
    halo = rec.layers.get("parallel.halo_s", 0.0)
    v = {
        "solvers.iterations": iters,
        "solvers.restarts": first("mxp.restarts"),
        "solvers.s_per_iter": steady / iters if iters else 0.0,
        "solvers.relres": rec.max_relres,
        "mg.apply_s": apply_s / pairs,
        "mg.apply_calls": calls / pairs,
        "parallel.halo_msgs": first("mxp.halo_msgs"),
        "parallel.halo_bytes": first("mxp.halo_bytes"),
        "parallel.allreduces": first("mxp.allreduces"),
        "parallel.allreduce_bytes": first("mxp.allreduce_bytes"),
        "parallel.exposed_frac": (
            rec.layers.get("parallel.halo_exposed_s", 0.0) / halo if halo else 0.0
        ),
        "fp.mxp_speedup": _median(rec.solve_s["double"]) / steady,
        "fp.iteration_penalty": iters / first("double.iterations"),
        "fp.precision_events": first("mxp.precision_events"),
        "setup.generate_s": _median(rec.generate_s),
        "setup.solver_s": _median(rec.solver_s),
        "setup.warmup_s": rec.cold_s.get("mxp", steady) - steady,
        "trace.overhead_s": _median(rec.traced_s["mxp"]) - steady,
        "trace.unattributed_frac": solve_self / solve_s if solve_s else 0.0,
        "failed_frac": rec.failed / rec.attempted,
    }
    v.update(rec.layers)
    for name in names:
        if not name.startswith("backends."):
            continue
        _, op, rung, what = name.split(".")
        span = f"backends.{op}.{rung}"
        c, total, self_s, nbytes = (
            a + b for a, b in zip(_sum(mxp, span), _sum(dbl, span))
        )
        v[name] = {
            "self_s": self_s / pairs,
            "calls": c / pairs,
            "gbps": nbytes / total / 1e9 if total else 0.0,
        }[what]
    return {n: v.get(n, 0.0) for n in names}


def flagged_counts(rec) -> dict:
    """Counts that must repeat exactly but did not (never averaged)."""
    return {k: vals for k, vals in rec.counts.items() if len(set(vals)) > 1}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cpu0 = cpu_times()
    rec = WORKLOADS[workload](seed, seconds, trace)
    steal = steal_frac(cpu0, cpu_times())
    if trace:
        names = [m["name"] for m in CONFIG["per_layer"]]
        metrics = per_layer(rec, names)
    else:
        metrics = end_to_end(rec)
    flags = flagged_counts(rec)
    env = environment()
    ws = rec.working_set_bytes
    detail = {
        "workload": workload,
        "why": WHY[workload],
        "trace": trace,
        "working_set_bytes": ws,
        "fits_llc": bool(env["llc_bytes"] and ws < env["llc_bytes"]),
        "note": (
            "GB/s figures are computed from array sizes over measured "
            "seconds on a cache-resident working set, not DRAM bandwidth"
        ),
        "samples": {
            "setup_s": rec.setup_s,
            "mxp_solve_s": rec.solve_s["mxp"],
            "double_solve_s": rec.solve_s["double"],
            "req_latency_s": rec.latency_s,
        },
        "failures": rec.failures,
        "flagged_counts": {k: sorted(set(map(str, v))) for k, v in flags.items()},
        "cpu_steal_frac": steal,
        "env": env,
    }
    print(json.dumps(detail))
    samples = detail["samples"]
    for name, value in metrics.items():
        line = f"{workload:>13} {name:<42} {value!r:>24} {UNITS[name]}"
        if name in samples and not trace:
            t = tail(samples[name])
            line += f"  (median of {len(samples[name])}"
            line += f", p{t[0]:.1f}={t[1]!r})" if t else ", too few for a tail)"
        print(line)
    return {
        "correct": rec.failed == 0 and not flags,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=CONFIG["run_seconds"])
    ap.add_argument("--trace", choices=["0", "1", "both"], default="0")
    args = ap.parse_args(argv)
    if {w["name"]: w["why"] for w in CONFIG["workloads"]} != WHY:
        raise SystemExit("BENCHMARK.json workloads disagree with workloads.WHY")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = {"0": [False], "1": [True], "both": [False, True]}[args.trace]
    results = {
        (w, t): run_one(w, args.seed, args.seconds, t) for w in names for t in modes
    }
    if len(results) == 1:
        out = next(iter(results.values()))
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}/{k}": m
                for (w, _), r in results.items()
                for k, m in r["metrics"].items()
            },
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
