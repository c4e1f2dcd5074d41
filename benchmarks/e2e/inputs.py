"""Seeded benchmark inputs.

Sizes are drawn by *stratified* sampling: ``n`` draws take one uniform
point from each of ``n`` equal slices of the range, in a seeded order.
Two seeds therefore give different inputs with the same size
distribution, which keeps a run's median and tail from depending on
which seed the run was given.  The request dags of ``serve-schedule``
take each slice's midpoint instead (see :func:`dag_pool`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.dag.graph import Dag
from repro.workloads.airsn import airsn
from repro.workloads.corpus import cax_workflow, nipype_workflow
from repro.workloads.inspiral import inspiral
from repro.workloads.montage import montage
from repro.workloads.sdss import sdss

#: Request-dag shapes and the job-count range each is drawn from.
#: Inspiral stops at ~900 jobs: its decomposition cost grows
#: superlinearly (the full 2,988-job dag takes ~0.6 s), and one such
#: request would dominate an open-loop miss series.
SHAPES = {
    "nipype": (30, 1600),
    "cax": (30, 3300),
    "airsn": (30, 3700),
    "montage": (35, 3700),
    "inspiral": (30, 900),
    "sdss": (30, 3700),
}


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, input stream)."""
    salt = int.from_bytes(stream.encode(), "little") % (2**32)
    return np.random.default_rng([seed, salt])


def stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """*n* points in [0, 1), one per slice of width 1/n, shuffled."""
    points = (np.arange(n) + rng.random(n)) / n
    rng.shuffle(points)
    return points


def log_between(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def shaped_dag(shape: str, jobs: int, v: float, bump: int = 0) -> Dag:
    """A dag of *shape* with about *jobs* jobs; *v* in [0, 1) picks the
    shape's second parameter (depth, chunks, tiles), and *bump* grows
    its main size parameter (used to step past a duplicate)."""
    if shape == "nipype":
        depth = 3 + int(v * 6)
        return nipype_workflow(max(1, round((jobs - 3) / depth)) + bump, depth)
    if shape == "cax":
        chunks = 2 + int(v * 15)
        return cax_workflow(max(1, round((jobs - 2) / (chunks + 3))) + bump, chunks)
    if shape == "airsn":
        return airsn(max(1, round((jobs - 23) / 3)) + bump)
    if shape == "montage":
        side = max(2, round(math.sqrt(jobs / 11.5))) + bump
        return montage(side, side, 1 + int(v * min(side * side, 36)))
    if shape == "inspiral":
        segments = max(2, round((jobs - 1) / 9.33)) + bump
        return inspiral(segments, max(1, segments // 3))
    if shape == "sdss":
        fields = max(1, round((jobs - 6) / 9.2)) + bump
        return sdss(fields, max(1, fields // 5))
    raise ValueError(f"unknown shape {shape!r}")


def dag_pool(rng: np.random.Generator, count: int, seen: set[str]) -> list[Dag]:
    """*count* dags of distinct fingerprints (also distinct from
    *seen*, which is updated), shapes in rotation.  Within each shape
    the sizes are the midpoints of equal slices of the shape's range on
    a log scale, the same for every seed; the seed shuffles them and
    pairs each with a stratified draw of the second parameter.

    Stratified sizes were tried first.  With a few dags per shape a
    slice spans a factor of about two in size, so the jitter within the
    top slices decided which dags set the tail: timed in-process, the
    p80 of ``serve-schedule``'s 50 misses spread by 17% over seeds 1-10,
    against 9% with midpoints."""
    shapes = list(SHAPES)
    draws = {}
    for k, shape in enumerate(shapes):
        n = len(range(k, count, len(shapes)))
        sizes = rng.permutation((np.arange(n) + 0.5) / n)
        draws[shape] = list(zip(sizes, stratified(rng, n)))
    pool = []
    for i in range(count):
        shape = shapes[i % len(shapes)]
        u, v = draws[shape].pop()
        lo, hi = SHAPES[shape]
        jobs = round(log_between(lo, hi, float(u)))
        bump = 0
        while (dag := shaped_dag(shape, jobs, float(v), bump)).fingerprint() in seen:
            bump += 1
        seen.add(dag.fingerprint())
        pool.append(dag)
    return pool
