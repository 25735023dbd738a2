"""Samplers for all covariate laws and realizable label generation.

Covariates come from per-task iid Gaussians, stable LDS trajectories, or
finite Markov chains; labels follow y = F_star g_star(x) + w with isotropic
Gaussian noise drawn after the covariates are fixed (martingale-difference
contract). Each task consumes an independent RNG stream derived from the
request seed, so tasks can be generated in any order or in parallel without
changing the output.

Two samplers read the same ``SampleRequest``. ``sample_tasks`` draws raw rows
(``TaskDataset``), which the ``gen`` command writes out. ``sample_task_stats``
gives each task's ``TaskStats``, the input of every linear fit: it draws the
statistic of an iid Gaussian task exactly, in O(d^3) and without any rows, and
compresses the raw rows of every other task. The two consume a task's stream
differently, so at equal seeds they are different draws.
"""
from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    CovariateLaw,
    GaussianLaw,
    LdsLaw,
    PopulationSpec,
    TaskDataset,
    TaskStats,
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
    else:
        x = task.law.sample_marginal(n, rng)
    # Noise is drawn after the covariates so that w_i is a martingale
    # difference with respect to the covariate filtration.
    z = spec.rep_star.features(x)
    y = z @ task.head.f.T
    if spec.noise_sigma > 0:
        y = y + spec.noise_sigma * rng.standard_normal(y.shape)
    return TaskDataset(task_id=t, covariates=x, labels=y)


def sample_tasks(req: SampleRequest) -> list[TaskDataset]:
    """Draw every task's dataset; deterministic given the request (incl. seed)."""
    return [
        _sample_one_task(req.spec, t, req.per_task_n[t], req.seed)
        for t in range(len(req.spec.tasks))
    ]


@functools.lru_cache(maxsize=None)
def _strict_upper(d: int) -> np.ndarray:
    """Flat indices of the strict upper triangle of a d x d matrix, row by row."""
    idx = np.flatnonzero(np.tri(d, k=-1).T)
    idx.setflags(write=False)
    return idx


def _bartlett(d: int, dof: int, rng: np.random.Generator) -> np.ndarray:
    """Upper-triangular U with U^T U ~ Wishart_d(dof, I), dof >= d (Bartlett
    decomposition): U_ii = sqrt(chi^2_{dof - i}) for i = 0..d-1, U_ij standard
    normal for i < j, all independent."""
    u = np.zeros(d * d)
    u[::d + 1] = np.sqrt(rng.chisquare(dof - np.arange(d)))
    u[_strict_upper(d)] = rng.standard_normal(d * (d - 1) // 2)
    return u.reshape(d, d)


def _draw_gaussian_stats(spec: PopulationSpec, t: int, n: int, seed: int) -> TaskStats:
    """Exact draw of the statistic of n iid rows of a Gaussian task.

    The rows are X = E_x L^T with E_x (n x d_x) standard normal and
    Sigma = L L^T (``second_moment_factor``), and Y = X W^T + sigma E_y with
    W = F_star G_star and E_y (n x d_y) standard normal, independent of E_x.

    Take the thin QR decomposition E_x = Q_1 U with U upper triangular and a
    positive diagonal. U^T U = E_x^T E_x is Wishart_{d_x}(n, I), and U has the
    law of the Bartlett factor (``_bartlett``). Complete Q_1 to an orthogonal
    Q = [Q_1 Q_2]. Given E_x, Q is fixed, and E_y is independent of it and
    rotation invariant, so Xi = Q_1^T E_y (d_x x d_y) and E_2 = Q_2^T E_y
    ((n - d_x) x d_y) are independent standard normal matrices, independent of
    E_x. Hence

        Q^T [X Y] = [[U L^T, U L^T W^T + sigma Xi], [0, sigma E_2]],

    and [X Y]^T [X Y] is the Gram of this matrix. Only E_2^T E_2 enters that
    Gram, and it is Wishart_{d_y}(n - d_x, I) = V^T V for V the Bartlett
    factor of that law, independent of U and Xi; replacing sigma E_2 by
    sigma V leaves the Gram's law unchanged. So the d_x + d_y rows

        [[U L^T, U L^T W^T + sigma Xi], [0, sigma V]]

    have exactly the law of [X Y]^T [X Y] as their Gram. The stream draws U,
    then Xi, then V; without noise the last d_y rows are zero and are left out.
    """
    task = spec.tasks[t]
    d_x, d_y = spec.dims.d_x, spec.dims.d_y
    rng = np.random.default_rng(task_stream_seed(seed, t))
    x = _bartlett(d_x, n, rng) @ task.law.second_moment_factor().T
    y = x @ (task.head.f @ spec.rep_star.g).T
    sigma = spec.noise_sigma
    if sigma > 0:
        y = np.vstack([y + sigma * rng.standard_normal((d_x, d_y)),
                       sigma * _bartlett(d_y, n - d_x, rng)])
        x = np.vstack([x, np.zeros((d_y, d_x))])
    return TaskStats(task_id=t, covariates=x, labels=y, n=n)


def sample_task_stats(req: SampleRequest) -> list[TaskStats]:
    """Every task's ``TaskStats``; deterministic given the request (incl. seed).

    A task whose law is a ``GaussianLaw`` and N >= d_x + d_y draws its
    statistic exactly (``_draw_gaussian_stats``).
    Every other task draws raw rows (``_sample_one_task``) and keeps their R
    factor (``TaskStats.from_rows``). Both read the task's own stream.
    """
    spec = req.spec
    exact_from = spec.dims.d_x + spec.dims.d_y
    out = []
    for t, n in enumerate(req.per_task_n):
        if isinstance(spec.tasks[t].law, GaussianLaw) and n >= exact_from:
            out.append(_draw_gaussian_stats(spec, t, n, req.seed))
        else:
            out.append(TaskStats.from_rows(_sample_one_task(spec, t, n, req.seed)))
    return out


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

    ``datasets`` are the raw rows of ``sample_tasks(req)``. ``fit``,
    ``diagnose`` and ``sweep`` read ``sample_task_stats(req)`` instead, which
    draws Gaussian tasks' statistics directly: at equal seeds those are
    different draws from the rows written here. Returns a map from artifact
    name to the written path.
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
                "kind": "trajectory" if task.law.is_trajectory else "iid_draw",
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
