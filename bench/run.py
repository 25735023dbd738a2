"""Benchmark of transferlab's rate sweeps and Monte Carlo checks.

    python3 bench/run.py --workload t_sweep --seed 0 --seconds 10 --trace 0

Runs whole rounds of one workload until ``--seconds`` have passed (at least
one round), checks every output, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
traced run also writes its spans to ``bench/out/``. Run from the repository
root; the package is imported from ``src/`` of the same tree.
"""
import os

# One BLAS/OpenMP thread, pinned before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Set-up time is measured in this many fresh interpreters, half before the rounds
# and half after them so that both ends of the run are sampled; the median is
# reported.
SETUP_PROBES = 8

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_package():
    """Import transferlab from this tree's ``src/`` and nowhere else."""
    if not (SRC / "transferlab" / "__init__.py").is_file():
        sys.exit(f"error: no transferlab package under {SRC}")
    sys.dont_write_bytecode = True  # the package is compiled from source, as in set-up
    sys.path.insert(0, str(SRC))
    import transferlab

    if Path(transferlab.__file__).resolve().parent != (SRC / "transferlab").resolve():
        sys.exit(f"error: transferlab imported from {transferlab.__file__}, not {SRC}")


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        if "numpy" not in path:
            continue
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def manifest(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": _blas_threads()},
        "thread_env": {var: os.environ[var] for var in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure_setup(workload, seed: int, probes: int) -> list[float]:
    """Seconds from interpreter launch to a built first population, per fresh process.

    Each probe imports the package, validates the workload's config and builds
    its first population, as a command-line run does before its first timed
    operation. Probes run one after another, never concurrently.
    """
    config = json.dumps(workload.config_dict(seed))
    num_sources = json.dumps(workload.first_population())
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    times = []
    for _ in range(probes):
        launched = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), config,
             num_sources, repr(launched)],
            env=env, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_benchmark(workload, seed: int, seconds: float, trace: bool, info: dict,
                  setup_probes: int = SETUP_PROBES):
    """Run whole rounds for ``seconds`` (at least one); return the result and the rounds."""
    from tracing import PER_LAYER_METRICS, Tracer

    probes = 0 if trace else setup_probes
    setup = measure_setup(workload, seed, probes // 2)
    inputs = workload.prepare(seed)
    tracer = Tracer(enabled=trace)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.run_round(inputs, tracer))
    setup += measure_setup(workload, seed, probes - probes // 2)

    problems = [p for rnd in rounds for p in rnd.problems]
    for failure in dict.fromkeys(f for rnd in rounds for f in rnd.failed_ops):
        print(f"failed op: {failure}", file=sys.stderr)
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}", file=sys.stderr)
    op_ms = [ms for rnd in rounds for ms in rnd.op_ms]
    if trace:
        values = tracer.per_layer(len(rounds))
        units = {name: unit for name, unit, _ in PER_LAYER_METRICS}
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
        with open(trace_path, "w") as fh:
            json.dump({"manifest": info, "run_s": [rnd.run_s for rnd in rounds],
                       "self_s": tracer.self_times(), "metrics": values,
                       "spans": tracer.spans}, fh)
        print(f"trace written to {trace_path.relative_to(ROOT)}", file=sys.stderr)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(rnd.run_s for rnd in rounds),
            "op_ms_p50": statistics.median(op_ms),
            "op_ms_p90": statistics.quantiles(op_ms, n=10, method="inclusive")[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    print(f"rounds {len(rounds)}, ops {len(op_ms)}, run_s per round "
          f"{[round(r.run_s, 3) for r in rounds]}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(op_ms),
        "failed": sum(len(rnd.failed_ops) for rnd in rounds),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    return result, rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    info = manifest(args)
    print("manifest " + json.dumps(info), flush=True)
    result, _ = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), info)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
