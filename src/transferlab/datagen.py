"""Realizable label generation on the covariate samplers of the laws in ``core``.

Each task's law (iid Gaussian, stable LDS trajectory or finite Markov chain)
samples its covariates; labels follow y = F_star g_star(x) + w with isotropic
Gaussian noise drawn after the covariates are fixed (martingale-difference
contract). Each task consumes an independent RNG stream derived from the
request seed, so tasks can be generated in any order or in parallel without
changing the output.

Both samplers end in one exact draw (``_draw``) of ``TaskDataset``s.
``sample_tasks`` draws the law's path, so a task keeps its n raw rows (for
``gen``); ``sample_task_stats`` draws its Gram factor (``gram_factor``), the
input of every linear fit. The two consume a task's stream differently, so at
equal seeds they are different draws.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import PopulationSpec, TaskDataset, bartlett

# 64-bit golden-ratio constant used to derive independent per-task streams.
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def task_stream_seed(seed: int, task_index: int) -> int:
    """Derived 64-bit seed for one task's RNG stream."""
    return (int(seed) ^ ((task_index + 1) * _GOLDEN)) & _MASK64


@dataclass(frozen=True)
class SampleRequest:
    """What to sample: a population, per-task sample counts, and a seed.

    ``per_task_n[0]`` is the target count N'; entries 1..T are the source
    counts. Trajectories start in their stationary law, so no warm-up is
    discarded.
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


def _draw(req: SampleRequest, t: int, factor) -> TaskDataset:
    """Exact draw of task t's sample given a factor of its covariates' Gram.

    The rows are a path X (n x d_x) of the task's law and Y = X W^T + sigma E,
    W = F_star G_star, E (n x d_y) standard normal and independent of X.
    ``factor(n, rng)`` draws R (k x d_x, k <= n) with X = Q_1 R,
    Q_1 (n x k) with orthonormal columns that depend on the covariate draw
    alone: the law's ``sample_path`` (R = X, Q_1 = I, k = n) or its
    ``gram_factor``. A trajectory law's path starts in its stationary law, so
    X's rows are recorded from the first step on.

    Complete Q_1 to an orthogonal Q = [Q_1 Q_2]. Given the covariate draw, Q
    is fixed, and E is independent of it and rotation invariant, so
    Xi = Q_1^T E (k x d_y) and E_2 = Q_2^T E ((n - k) x d_y) are independent
    standard normal matrices, independent of X. Hence

        Q^T [X Y] = [[R, R W^T + sigma Xi], [0, sigma E_2]],

    whose Gram is [X Y]^T [X Y]. Only E_2^T E_2 enters it. For n - k >= d_y
    that is Wishart_{d_y}(n - k, I) = V^T V with V the Bartlett factor,
    independent of R and Xi, and replacing E_2 by V keeps the Gram's law;
    otherwise V = E_2, possibly with no rows (always, for k = n). So the Gram
    of the rows [[R, R W^T + sigma Xi], [0, sigma V]] has exactly the law of
    [X Y]^T [X Y]. The stream draws R, then Xi, then V (the path, then its
    noise, for R = X); without noise the V rows are zero and are left out.
    """
    spec, n = req.spec, req.per_task_n[t]
    task = spec.tasks[t]
    rng = np.random.default_rng(task_stream_seed(req.seed, t))
    x = factor(n, rng)
    y = x @ (task.head.f @ spec.rep_star.g).T
    sigma = spec.noise_sigma
    if sigma > 0:
        (k, d_x), d_y = x.shape, spec.dims.d_y
        y = y + sigma * rng.standard_normal((k, d_y))
        v = bartlett(d_y, n - k, rng) if n - k >= d_y else rng.standard_normal((n - k, d_y))
        y = np.vstack([y, sigma * v])
        x = np.vstack([x, np.zeros((v.shape[0], d_x))])
    return TaskDataset(task_id=t, covariates=x, labels=y, n=n)


def sample_tasks(req: SampleRequest) -> list[TaskDataset]:
    """Every task's n raw rows (``_draw`` on the law's path)."""
    return [_draw(req, t, task.law.sample_path) for t, task in enumerate(req.spec.tasks)]


def sample_task_stats(req: SampleRequest, tasks=None) -> list[TaskDataset]:
    """Every task's Gram factor (``_draw`` on the law's ``gram_factor``), or only
    those of the task indices ``tasks``, in their order. Each task draws from its
    own stream, so a subset equals those entries of the full draw."""
    chosen = range(len(req.spec.tasks)) if tasks is None else tasks
    return [_draw(req, t, req.spec.tasks[t].law.gram_factor) for t in chosen]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_datasets_csv(datasets: list[TaskDataset], req: SampleRequest,
                       out_dir: str | Path) -> dict[str, str]:
    """Write one CSV per task (columns x_1..x_{d_x}, y_1..y_{d_y}) plus a JSON manifest.

    ``datasets`` are the raw rows of ``sample_tasks(req)``. ``fit``,
    ``diagnose`` and ``sweep`` read ``sample_task_stats(req)`` instead, which
    draws every task's Gram factor directly: at equal seeds those are different
    draws from the rows written here. A Gram factor of fewer than n rows raises
    ``NeedsRawRows``. Returns a map from artifact name to the written path.
    """
    for ds in datasets:
        ds.require_rows()
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
                "law": task.law.describe(),
                "kind": "trajectory" if task.law.is_trajectory else "iid_draw",
            }
            for t, task in enumerate(req.spec.tasks)
        ],
    }
    manifest_path = out / "manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    paths["manifest"] = str(manifest_path)
    return paths
