"""Shared fixtures: random allocation instances for the solver-oracle suites,
and trace layouts that `write_trace` no longer writes."""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from baoc.allocator import AllocationProblem, Candidate, ProblemBlock
from baoc.config_space import BlockShape, enumerate_candidates
from baoc.trace import BlockSpec, StepRecord

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


def _encode_vectors(step: int, vectors: dict[int, np.ndarray], last: dict[int, tuple[int, bytes]]) -> str:
    """One record's ``grads`` or ``params`` object in the version-3 layout, as JSON text.

    `last` maps a block id to the step and the little-endian bytes of the
    last vector written for it in this kind. A bit-identical vector becomes
    a reference to that step; any other vector is written as base64 and
    takes its place in `last`. The text is the one `json.dumps` gives for
    the object.
    """
    items = []
    for block_id, vec in vectors.items():
        data = np.asarray(vec, dtype="<f8").tobytes()
        prev = last.get(block_id)
        if prev is not None and prev[1] == data:
            items.append(f'"{block_id:d}": {prev[0]:d}')
        else:
            last[block_id] = (step, data)
            items.append(f'"{block_id:d}": "{base64.b64encode(data).decode("ascii")}"')
    return "{" + ", ".join(items) + "}"


def write_trace_v4(path: Path, specs: list[BlockSpec], records: list[StepRecord], sampling_ratio: float) -> None:
    """`records` as a version-4 trace: each record one JSON object, each new
    vector base64 text in it, each repeat a step reference; the layout
    `write_trace` wrote before version 5."""
    header = {"version": 4, "sampling_ratio": sampling_ratio, "blocks": [s.to_json_dict() for s in specs]}
    lines = [json.dumps(header)]
    last: dict[str, dict[int, tuple[int, bytes]]] = {"grads": {}, "params": {}}
    for rec in records:
        grads = _encode_vectors(rec.step, rec.grads, last["grads"])
        if rec.params is None:
            lines.append(f'{{"step": {rec.step:d}, "grads": {grads}}}')
        else:
            params = _encode_vectors(rec.step, rec.params, last["params"])
            lines.append(f'{{"step": {rec.step:d}, "grads": {grads}, "params": {params}}}')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def v5_records(path: Path) -> list[tuple[dict, str]]:
    """A version-5 trace's records as (JSON head, hex payload) pairs."""
    pairs = []
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        head, payload = line.split("\t")
        pairs.append((json.loads(head), payload))
    return pairs
