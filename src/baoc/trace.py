"""Sampled gradient/parameter traces: sampling, schema, JSONL round-trip.

A trace is JSON-Lines: the first line is a header object
``{"version": 1, "sampling_ratio": s, "blocks": [...]}`` and every further
line is one step record ``{"step": t, "grads": {...}, "params": {...}?}``.
Numbers are written in shortest round-trip decimal form, so writing and
re-reading a trace reproduces finite values bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .config_space import BlockShape

TRACE_VERSION = 1


class TraceParseError(ValueError):
    """Malformed trace content; the message names the offending line/record."""


def derive_seed(seed: int, stream_id: int) -> np.random.SeedSequence:
    """Stable per-stream key so per-block draws are independent of ordering."""
    return np.random.SeedSequence(seed, spawn_key=(stream_id,))


def sample_count(param_count: int, ratio: float) -> int:
    return max(1, math.ceil(ratio * param_count))


def sample_coordinates(param_count: int, ratio: float, seed: int | np.random.SeedSequence) -> list[int]:
    """Draw ceil(ratio * param_count) distinct flat indices, sorted ascending.

    Uniform without replacement from a counter-based generator, so the result
    is a pure function of (param_count, ratio, seed).
    """
    if param_count < 1:
        raise ValueError("param_count must be >= 1")
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"sampling ratio must be in (0, 1], got {ratio}")
    k = sample_count(param_count, ratio)
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.Philox(seq))
    idx = rng.choice(param_count, size=k, replace=False)
    return sorted(int(i) for i in idx)


@dataclass(frozen=True, slots=True)
class BlockSpec:
    """One traced parameter block and its fixed sampled coordinate set."""

    id: int
    name: str
    shape: BlockShape
    sample_indices: tuple[int, ...]
    module_kind: str = "other"

    def __post_init__(self) -> None:
        idx = self.sample_indices
        if not idx:
            raise ValueError(f"block {self.id}: needs at least one sampled index")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"block {self.id}: sample indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= self.shape.param_count:
            raise ValueError(
                f"block {self.id}: sample indices must lie in [0, {self.shape.param_count})"
            )

    @property
    def sample_size(self) -> int:
        return len(self.sample_indices)

    @classmethod
    def create(
        cls,
        id: int,
        name: str,
        dims: Sequence[int],
        sampling_ratio: float,
        seed: int,
        module_kind: str = "other",
    ) -> "BlockSpec":
        shape = BlockShape(tuple(int(d) for d in dims))
        indices = sample_coordinates(shape.param_count, sampling_ratio, derive_seed(seed, id))
        return cls(id=id, name=name, shape=shape, sample_indices=tuple(indices), module_kind=module_kind)

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "dims": list(self.shape.dims),
            "kind": self.module_kind,
            "sample_indices": list(self.sample_indices),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "BlockSpec":
        return cls(
            id=int(d["id"]),
            name=str(d["name"]),
            shape=BlockShape(tuple(int(x) for x in d["dims"])),
            sample_indices=tuple(int(i) for i in d["sample_indices"]),
            module_kind=str(d.get("kind", "other")),
        )


@dataclass(slots=True)
class StepRecord:
    """Sampled gradients (and optionally parameters) for one step."""

    step: int
    grads: dict[int, np.ndarray]
    params: dict[int, np.ndarray] | None = None


def _check_vectors(
    record_no: int, step: int, kind: str, vectors: dict[int, np.ndarray], specs_by_id: dict[int, BlockSpec]
) -> None:
    for block_id, vec in vectors.items():
        if block_id not in specs_by_id:
            raise TraceParseError(
                f"record {record_no} (step {step}): {kind} for unknown block id {block_id}"
            )
        expected = specs_by_id[block_id].sample_size
        if len(vec) != expected:
            raise TraceParseError(
                f"record {record_no} (step {step}): {kind} vector for block {block_id} "
                f"has length {len(vec)}, expected {expected}"
            )


def write_trace(
    path: str | Path | IO[str],
    specs: Sequence[BlockSpec],
    records: Iterable[StepRecord],
    sampling_ratio: float,
) -> None:
    """Write header + records as JSONL. Exclusive per file; last writer wins."""

    def _emit(fh: IO[str]) -> None:
        header = {
            "version": TRACE_VERSION,
            "sampling_ratio": sampling_ratio,
            "blocks": [s.to_json_dict() for s in specs],
        }
        fh.write(json.dumps(header) + "\n")
        for rec in records:
            obj: dict = {
                "step": rec.step,
                "grads": {str(b): np.asarray(v, dtype=np.float64).tolist() for b, v in rec.grads.items()},
            }
            if rec.params is not None:
                obj["params"] = {
                    str(b): np.asarray(v, dtype=np.float64).tolist() for b, v in rec.params.items()
                }
            fh.write(json.dumps(obj) + "\n")

    if hasattr(path, "write"):
        _emit(path)  # type: ignore[arg-type]
    else:
        with open(path, "w", encoding="utf-8") as fh:
            _emit(fh)


def read_trace(path: str | Path) -> tuple[list[BlockSpec], Iterator[StepRecord]]:
    """Parse the header eagerly and return a lazy stream of step records.

    The header is read and closed here; the record stream opens the file
    again only once it is first advanced. Length mismatches, unknown block
    ids, and non-monotone steps raise TraceParseError naming the offending
    record while streaming.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
    if not header_line.strip():
        raise TraceParseError("empty trace file: missing header line")
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"malformed header: {exc}") from None
    if not isinstance(header, dict) or "blocks" not in header:
        raise TraceParseError("malformed header: expected an object with a 'blocks' field")
    if header.get("version") != TRACE_VERSION:
        raise TraceParseError(f"unsupported trace version {header.get('version')!r}")
    ratio = header.get("sampling_ratio")
    try:
        specs = [BlockSpec.from_json_dict(b) for b in header["blocks"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceParseError(f"malformed header block entry: {exc}") from None
    if isinstance(ratio, (int, float)) and 0 < ratio <= 1:
        for spec in specs:
            expected = sample_count(spec.shape.param_count, float(ratio))
            if spec.sample_size != expected:
                raise TraceParseError(
                    f"header block {spec.id}: {spec.sample_size} sample indices, "
                    f"but sampling_ratio {ratio} implies {expected}"
                )
    specs_by_id = {s.id: s for s in specs}

    def _records() -> Iterator[StepRecord]:
        prev_step: int | None = None
        record_no = 0
        with open(path, "r", encoding="utf-8") as fh:
            fh.readline()  # header, parsed above
            for line in fh:
                if not line.strip():
                    continue
                record_no += 1
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceParseError(f"record {record_no}: malformed JSON: {exc}") from None
                try:
                    step = int(obj["step"])
                    raw_grads = obj["grads"]
                except (KeyError, TypeError, ValueError):
                    raise TraceParseError(f"record {record_no}: missing step or grads") from None
                if prev_step is not None and step <= prev_step:
                    raise TraceParseError(
                        f"record {record_no}: step {step} not greater than previous step {prev_step}"
                    )
                prev_step = step
                grads = {int(b): np.asarray(v, dtype=np.float64) for b, v in raw_grads.items()}
                _check_vectors(record_no, step, "grads", grads, specs_by_id)
                params = None
                if "params" in obj and obj["params"] is not None:
                    params = {int(b): np.asarray(v, dtype=np.float64) for b, v in obj["params"].items()}
                    _check_vectors(record_no, step, "params", params, specs_by_id)
                yield StepRecord(step=step, grads=grads, params=params)

    return specs, _records()
