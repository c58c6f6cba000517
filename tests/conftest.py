"""Shared fixtures: random allocation instances for the solver-oracle suites."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from baoc.allocator import AllocationProblem, Candidate, ProblemBlock
from baoc.config_space import BlockShape, enumerate_candidates

GRID = enumerate_candidates(BlockShape((64, 64)))  # 17 distinct configurations


def random_instance(rng: np.random.Generator, max_product: int = 300_000) -> AllocationProblem:
    """One random assignment instance with budgets spanning infeasible to slack.

    N <= 10 blocks, <= 8 candidates each, phi in [0, 3], integer memory in
    [0, 100] bytes, time ratios in [0.3, 1.5]. Some instances carry exclusion
    sets that overlap the candidate lists, so solvers must filter them.
    """
    n = int(rng.integers(2, 11))
    sizes = [int(rng.integers(2, 9)) for _ in range(n)]
    while math.prod(sizes) > max_product:
        sizes[int(np.argmax(sizes))] = 2

    blocks, cands, excluded = [], [], []
    for i in range(n):
        k = sizes[i]
        config_idx = rng.choice(len(GRID), size=k, replace=False)
        configs = [GRID[int(j)] for j in sorted(config_idx)]
        rows = tuple(
            Candidate(
                config=cfg,
                phi=float(rng.uniform(0.0, 3.0)),
                mem_bytes=int(rng.integers(0, 101)),
                time_ratio=float(rng.uniform(0.3, 1.5)),
            )
            for cfg in configs
        )
        banned: frozenset = frozenset()
        if rng.random() < 0.4 and k >= 3:
            n_banned = int(rng.integers(1, k - 1))
            banned_idx = rng.choice(k, size=n_banned, replace=False)
            banned = frozenset(configs[int(j)] for j in banned_idx)
        blocks.append(ProblemBlock(id=i, name=f"b{i}", shapes=()))
        cands.append(rows)
        excluded.append(banned)

    def usable_vals(i, attr):
        return [getattr(c, attr) for c in cands[i] if c.config not in excluded[i]]

    min_mem = sum(min(usable_vals(i, "mem_bytes")) for i in range(n))
    max_mem = sum(max(usable_vals(i, "mem_bytes")) for i in range(n))
    min_r = sum(min(usable_vals(i, "time_ratio")) for i in range(n)) / n
    max_r = sum(max(usable_vals(i, "time_ratio")) for i in range(n)) / n
    u_mem = rng.uniform(-0.1, 1.2)
    u_time = rng.uniform(-0.05, 1.1)
    return AllocationProblem.from_candidates(
        blocks=tuple(blocks),
        candidates=tuple(cands),
        mem_budget=int(round(min_mem + u_mem * (max_mem - min_mem))),
        time_budget=float(min_r + u_time * (max_r - min_r)),
        excluded=tuple(excluded),
    )


@pytest.fixture(scope="session")
def instance_rng() -> np.random.Generator:
    return np.random.default_rng(20240615)
