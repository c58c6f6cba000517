"""Sampled gradient/parameter traces: sampling, schema, JSONL round-trip.

A trace is JSON-Lines: the first line is a header object
``{"version": 3, "sampling_ratio": s, "blocks": [...]}`` and every further
line is one step record ``{"step": t, "grads": {...}, "params": {...}?}``
whose ``grads``/``params`` objects map a block id to that block's sampled
vector. A record without ``params`` has no parameter sample at that step.

A vector is written as the base64 text of its little-endian float64 bytes,
so a file stays ASCII JSON (it can go to a text stream and be split into
lines) while reading and writing it skip decimal formatting and parsing;
round-trips are bit-exact.

Version 3 writes a vector that repeats as a reference: when a block's
vector is bit-identical to the last vector written for that block and kind
(``grads`` or ``params``), the value is the integer ``step`` of the record
that holds those bytes instead of the bytes again. A reference is valid only
when it names that step; a reader resolves it to the vector it decoded
there. A parameter sample that stays the same over a run is so written once;
a trace in which every vector changes (parameters that an optimizer moves at
each step) gets the version-2 records.

Version 2 is the same layout without references; version 1 writes each
vector as a JSON array of decimal numbers. Both are still read by the same
loop.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .config_space import BlockShape
from .documents import json_fraction, json_int, json_ints, json_str, naming, read

TRACE_VERSION = 3


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
    """One traced parameter block and its fixed sampled coordinate set.

    `sample_indices` may be given as any list or tuple of integers; it is
    stored as a tuple of Python ints.
    """

    id: int
    name: str
    shape: BlockShape
    sample_indices: tuple[int, ...]
    module_kind: str = "other"

    def __post_init__(self) -> None:
        try:
            idx = json_ints(self.sample_indices)
        except ValueError as exc:
            raise ValueError(f"block {self.id}: sample indices: {exc}") from None
        if not len(idx):
            raise ValueError(f"block {self.id}: needs at least one sampled index")
        if (np.diff(idx) <= 0).any():
            raise ValueError(f"block {self.id}: sample indices must be strictly increasing")
        if idx[0] < 0 or int(idx[-1]) >= self.shape.param_count:
            raise ValueError(
                f"block {self.id}: sample indices must lie in [0, {self.shape.param_count})"
            )
        # Specs compare with ==, so a list from a header is stored as a tuple. It is
        # built after the numpy checks have freed their arrays; built before them,
        # it raised the ingest peak RSS by about 1 MB through heap fragmentation.
        object.__setattr__(self, "sample_indices", tuple(self.sample_indices))

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
        return cls(id=id, name=name, shape=shape, sample_indices=indices, module_kind=module_kind)

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
        """A spec from its header entry; ValueError unless id, dims and indices
        are integers and the name and kind strings."""
        block_id = read(d, "id", json_int)
        with naming(f"block {block_id}: dims"):
            shape = BlockShape.from_json(d["dims"])
        return cls(
            id=block_id,
            name=read(d, "name", json_str),
            shape=shape,
            sample_indices=d["sample_indices"],
            module_kind=read(d, "kind", json_str, "other"),
        )


@dataclass(slots=True)
class StepRecord:
    """Sampled gradients (and optionally parameters) for one step."""

    step: int
    grads: dict[int, np.ndarray]
    params: dict[int, np.ndarray] | None = None


def _encode_vectors(step: int, vectors: dict[int, np.ndarray], last: dict[int, tuple[int, bytes]]) -> dict:
    """One record's ``grads`` or ``params`` object in the version-3 layout.

    `last` maps a block id to the step and the little-endian bytes of the
    last vector written for it in this kind. A bit-identical vector becomes
    a reference to that step; any other vector is written as base64 and
    takes its place in `last`.
    """
    out: dict[str, str | int] = {}
    for block_id, vec in vectors.items():
        data = np.asarray(vec, dtype="<f8").tobytes()
        prev = last.get(block_id)
        if prev is not None and prev[1] == data:
            out[str(block_id)] = prev[0]
        else:
            last[block_id] = (step, data)
            out[str(block_id)] = base64.b64encode(data).decode("ascii")
    return out


def _decode_vectors(
    record_no: int,
    step: int,
    kind: str,
    raw: object,
    specs_by_id: dict[int, BlockSpec],
    last: dict[int, tuple[int, np.ndarray]],
    references: bool,
) -> dict[int, np.ndarray]:
    """One record's ``grads``/``params`` object as read-only float64 vectors.

    A string value is base64 little-endian float64 (versions 2 and 3), a
    list is decimal numbers (version 1), and an integer, allowed only when
    `references` is set (version 3), is the step of the record that holds
    the vector. `last` maps a block id to the step and vector last decoded
    from text for this kind; a valid reference resolves to that same
    array. Every malformed case raises TraceParseError naming the record
    and, where there is one, the block.
    """
    where = f"record {record_no} (step {step})"
    if not isinstance(raw, dict):
        raise TraceParseError(f"{where}: {kind} must be an object mapping block ids to vectors")
    out: dict[int, np.ndarray] = {}
    for key, value in raw.items():
        try:
            block_id = int(key)
        except ValueError:
            raise TraceParseError(f"{where}: {kind} key {key!r} is not an integer block id") from None
        if block_id not in specs_by_id:
            raise TraceParseError(f"{where}: {kind} for unknown block id {block_id}")
        what = f"{where}: {kind} vector for block {block_id}"
        if type(value) is int:
            if not references:
                raise TraceParseError(f"{what} is a step reference, which only trace version 3 allows")
            prev = last.get(block_id)
            if prev is None:
                raise TraceParseError(f"{what} refers to step {value}, but no earlier record wrote one")
            if value != prev[0]:
                raise TraceParseError(
                    f"{what} refers to step {value}, but the last one was written at step {prev[0]}"
                )
            out[block_id] = prev[1]
            continue
        if isinstance(value, str):
            try:
                data = base64.b64decode(value, validate=True)
            except ValueError as exc:
                raise TraceParseError(f"{what} is not valid base64: {exc}") from None
            if len(data) % 8:
                raise TraceParseError(f"{what} has {len(data)} bytes, not a multiple of 8")
            vec = np.frombuffer(data, dtype="<f8")
        elif isinstance(value, list):
            try:
                vec = np.asarray(value, dtype=np.float64)
            except (TypeError, ValueError, OverflowError):
                raise TraceParseError(f"{what} is not an array of numbers") from None
            vec.flags.writeable = False
        else:
            raise TraceParseError(f"{what} is {json.dumps(value):.40}, not a vector or a step reference")
        if vec.ndim != 1:
            raise TraceParseError(f"{what} is not 1-D (shape {vec.shape})")
        expected = specs_by_id[block_id].sample_size
        if len(vec) != expected:
            raise TraceParseError(f"{what} has length {len(vec)}, expected {expected}")
        if not np.isfinite(vec).all():
            raise TraceParseError(f"{what} has a non-finite value")
        last[block_id] = (step, vec)
        out[block_id] = vec
    return out


def write_trace(
    path: str | Path | IO[str],
    specs: Sequence[BlockSpec],
    records: Iterable[StepRecord],
    sampling_ratio: float,
) -> None:
    """Write header + records as version-3 JSONL. Exclusive per file; last writer wins.

    Each vector is written as the base64 text of its little-endian float64
    bytes, so reading the file back gives bit-identical values. A vector
    whose bytes equal the last ones written for its block and kind is
    written as the step of the record that holds them (see the module
    docstring). Records must come in increasing step order, as the reader
    requires. `path` may be an open text stream, such as stdout.
    """

    def _emit(fh: IO[str]) -> None:
        header = {
            "version": TRACE_VERSION,
            "sampling_ratio": sampling_ratio,
            "blocks": [s.to_json_dict() for s in specs],
        }
        fh.write(json.dumps(header) + "\n")
        last: dict[str, dict[int, tuple[int, bytes]]] = {"grads": {}, "params": {}}
        for rec in records:
            obj: dict = {"step": rec.step, "grads": _encode_vectors(rec.step, rec.grads, last["grads"])}
            if rec.params is not None:
                obj["params"] = _encode_vectors(rec.step, rec.params, last["params"])
            fh.write(json.dumps(obj) + "\n")

    if hasattr(path, "write"):
        _emit(path)  # type: ignore[arg-type]
    else:
        with open(path, "w", encoding="utf-8") as fh:
            _emit(fh)


def read_trace(path: str | Path) -> tuple[list[BlockSpec], Iterator[StepRecord]]:
    """Parse the header eagerly and return a lazy stream of step records.

    Reads trace versions 1, 2 and 3 (see the module docstring). The header
    is read and closed here; the record stream opens the file again only
    once it is first advanced. The decoded vectors are read-only float64
    arrays; for versions 2 and 3 they are views of the decoded bytes. A
    version-3 reference yields the very array decoded at the step it names,
    so records that repeat a vector share one array; a record without
    ``params`` still gives ``params=None``. Malformed vectors and references
    (see `_decode_vectors`), unknown block ids and non-monotone steps raise
    TraceParseError naming the offending record while streaming.
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
    version = header.get("version")
    if type(version) is not int or not 1 <= version <= TRACE_VERSION:
        raise TraceParseError(f"unsupported trace version {version!r}")
    try:
        ratio = read(header, "sampling_ratio", json_fraction)
    except ValueError as exc:
        raise TraceParseError(f"malformed header: {exc}") from None
    try:
        specs = [BlockSpec.from_json_dict(b) for b in header["blocks"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceParseError(f"malformed header block entry: {exc}") from None
    for spec in specs:
        expected = sample_count(spec.shape.param_count, ratio)
        if spec.sample_size != expected:
            raise TraceParseError(
                f"header block {spec.id}: {spec.sample_size} sample indices, "
                f"but sampling_ratio {ratio} implies {expected}"
            )
    specs_by_id = {s.id: s for s in specs}
    references = version >= 3

    def _records() -> Iterator[StepRecord]:
        prev_step: int | None = None
        record_no = 0
        last: dict[str, dict[int, tuple[int, np.ndarray]]] = {"grads": {}, "params": {}}
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
                if not isinstance(obj, dict) or "step" not in obj or "grads" not in obj:
                    raise TraceParseError(f"record {record_no}: missing step or grads")
                try:
                    step = json_int(obj["step"])
                except ValueError:
                    raise TraceParseError(
                        f"record {record_no}: step {json.dumps(obj['step']):.40} is not a 64-bit integer"
                    ) from None
                raw_grads = obj["grads"]
                if prev_step is not None and step <= prev_step:
                    raise TraceParseError(
                        f"record {record_no}: step {step} not greater than previous step {prev_step}"
                    )
                prev_step = step
                grads = _decode_vectors(
                    record_no, step, "grads", raw_grads, specs_by_id, last["grads"], references
                )
                params = None
                if obj.get("params") is not None:
                    params = _decode_vectors(
                        record_no, step, "params", obj["params"], specs_by_id, last["params"], references
                    )
                yield StepRecord(step=step, grads=grads, params=params)

    return specs, _records()
