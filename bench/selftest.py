"""Fast self-test of the benchmark harness, at reduced workload sizes.

    python3 bench/selftest.py

For every workload it runs one reduced round untraced and one traced, and
checks that the run finishes, that the metric names and units match
``BENCHMARK.json``, that only the known-faulty op fails, and that the span
self times of the traced round sum to no more than its ``run_s``. It does not
check the rate slopes, which need the full sweep sizes. Exits 1 on failure.
"""
import dataclasses
import json
import sys

import run  # pins BLAS threads before numpy loads

run.import_package()

from workloads import NPRIME_SWEEP, T_SWEEP, WORKLOADS, McChecks  # noqa: E402

REDUCED = {
    "t_sweep": dataclasses.replace(
        T_SWEEP, name="selftest-t_sweep", grid=(4, 8, 16), replicates=2, n=32, n_prime=16,
        population={**T_SWEEP.population, "d_x": 8}, slope_range=(-9.0, 9.0)),
    "nprime_sweep": dataclasses.replace(
        NPRIME_SWEEP, name="selftest-nprime_sweep", grid=(16, 32, 64), replicates=2, n=500,
        slope_range=(-9.0, 9.0)),
    "mc_checks": McChecks(name="selftest-mc_checks", snm_calls=1, iid_tail_calls=1,
                          blocked_tail_calls=1, decouple_calls=1, phi_calls=1,
                          block_calls=1, dep_calls=1, nrls_calls=1),
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    if set(REDUCED) != set(WORKLOADS) or set(WORKLOADS) != {
            w["name"] for w in spec["workloads"]}:
        errors.append(f"workloads {sorted(WORKLOADS)} do not match BENCHMARK.json")
    for name, workload in REDUCED.items():
        for trace in (False, True):
            label = f"{name} (trace {int(trace)})"
            before = len(errors)
            result, rounds = run.run_benchmark(workload, seed=0, seconds=0, trace=trace,
                                               info={"selftest": True}, setup_probes=2)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != want[trace]:
                errors.append(f"{label}: metrics {units} != BENCHMARK.json {want[trace]}")
            expected_failed = 1 if name == "mc_checks" else 0
            if not (result["correct"] and result["attempted"] >= 1
                    and result["failed"] == expected_failed):
                errors.append(f"{label}: {result['correct']=}, {result['attempted']=}, "
                              f"{result['failed']=}")
            if trace:
                self_ms = sum(v["value"] for k, v in result["metrics"].items()
                              if k.endswith(".self.ms"))
                run_ms = 1e3 * rounds[0].run_s
                if len(rounds) != 1 or self_ms > run_ms:
                    errors.append(f"{label}: span self times {self_ms:.3f} ms exceed "
                                  f"run_s {run_ms:.3f} ms")
            for error in errors[before:]:
                print(f"FAIL {error}", file=sys.stderr)
            print(f"{label}: {'ok' if len(errors) == before else 'FAILED'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
