"""Samplers for all covariate laws and realizable label generation.

Covariates come from per-task iid Gaussians, stable LDS trajectories, or
finite Markov chains; labels follow y = F_star g_star(x) + w with isotropic
Gaussian noise drawn after the covariates are fixed (martingale-difference
contract). Each task consumes an independent RNG stream derived from the
request seed, so tasks can be generated in any order or in parallel without
changing the output.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    CovariateLaw,
    DatasetKind,
    LdsLaw,
    PopulationSpec,
    TaskDataset,
)

# 64-bit golden-ratio constant used to derive independent per-task streams.
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def task_stream_seed(seed: int, task_index: int) -> int:
    """Derived 64-bit seed for one task's RNG stream."""
    return (int(seed) ^ ((task_index + 1) * _GOLDEN)) & _MASK64


def default_burn_in(law: CovariateLaw) -> int:
    """Warm-up discarded before recording: 10 * ceil(1/(1-rho)) for an LDS, 10 for a
    Markov chain, none for iid laws."""
    if isinstance(law, LdsLaw):
        rho = law.spectral_radius
        return 10 * math.ceil(1.0 / max(1.0 - rho, 1e-6))
    if law.is_trajectory:
        return 10
    return 0


@dataclass(frozen=True)
class SampleRequest:
    """What to sample: a population, per-task sample counts, and a seed.

    ``per_task_n[0]`` is the target count N'; entries 1..T are the source
    counts. Trajectories discard ``default_burn_in`` steps first.
    """

    spec: PopulationSpec
    per_task_n: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "per_task_n", tuple(int(n) for n in self.per_task_n))
        if len(self.per_task_n) != len(self.spec.tasks):
            raise ValueError("per_task_n must have one entry per task (target first)")
        if any(n < 1 for n in self.per_task_n):
            raise ValueError("per-task sample counts must be >= 1")


def _sample_one_task(spec: PopulationSpec, t: int, n: int, seed: int) -> TaskDataset:
    task = spec.tasks[t]
    rng = np.random.default_rng(task_stream_seed(seed, t))
    if task.law.is_trajectory:
        x = task.law.sample_path(n, rng, burn_in=default_burn_in(task.law))
        kind = DatasetKind.TRAJECTORY
    else:
        x = task.law.sample_marginal(n, rng)
        kind = DatasetKind.IID_DRAW
    # Noise is drawn after the covariates so that w_i is a martingale
    # difference with respect to the covariate filtration.
    z = spec.rep_star.features(x)
    y = z @ task.head.f.T
    if spec.noise_sigma > 0:
        y = y + spec.noise_sigma * rng.standard_normal(y.shape)
    return TaskDataset(task_id=t, covariates=x, labels=y, kind=kind)


def sample_tasks(req: SampleRequest) -> list[TaskDataset]:
    """Draw every task's dataset; deterministic given the request (incl. seed)."""
    return [
        _sample_one_task(req.spec, t, req.per_task_n[t], req.seed)
        for t in range(len(req.spec.tasks))
    ]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _law_description(law: CovariateLaw) -> dict:
    from .core import GaussianLaw, MarkovLaw

    if isinstance(law, GaussianLaw):
        return {"kind": "gaussian", "sigma_x": law.sigma_x.tolist()}
    if isinstance(law, LdsLaw):
        return {"kind": "lds", "a": law.a.tolist()}
    if isinstance(law, MarkovLaw):
        return {"kind": "markov", "transition": law.transition.tolist(), "d_x": law.d_x}
    return {"kind": type(law).__name__}


def write_datasets_csv(datasets: list[TaskDataset], req: SampleRequest,
                       out_dir: str | Path) -> dict[str, str]:
    """Write one CSV per task (columns x_1..x_{d_x}, y_1..y_{d_y}) plus a JSON manifest.

    Returns a map from artifact name to the written path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dims = req.spec.dims
    header = [f"x_{j + 1}" for j in range(dims.d_x)] + [f"y_{j + 1}" for j in range(dims.d_y)]
    paths: dict[str, str] = {}
    for ds in datasets:
        path = out / f"task_{ds.task_id}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for xi, yi in zip(ds.covariates, ds.labels):
                writer.writerow([repr(float(v)) for v in xi] + [repr(float(v)) for v in yi])
        paths[f"task_{ds.task_id}"] = str(path)
    manifest = {
        "dims": {"d_x": dims.d_x, "d_y": dims.d_y, "r": dims.r},
        "seed": req.seed,
        "per_task_n": list(req.per_task_n),
        "noise_sigma": req.spec.noise_sigma,
        "tasks": [
            {
                "task_id": t,
                "stream_seed": task_stream_seed(req.seed, t),
                "law": _law_description(task.law),
                "kind": datasets[t].kind.value,
                "burn_in": default_burn_in(task.law),
            }
            for t, task in enumerate(req.spec.tasks)
        ],
    }
    manifest_path = out / "manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    paths["manifest"] = str(manifest_path)
    return paths
