"""Sampled gradient/parameter traces: sampling, schema, line-oriented round-trip.

A trace is one ASCII line per object: the first line is a JSON header
``{"version": 5, "sampling_ratio": s, "blocks": [...]}`` and every further
line is one step record. A record's head is the JSON object
``{"step": t, "grads": {...}, "params": {...}?}`` whose ``grads``/``params``
objects map a block id to that block's sampled vector. A record without
``params`` has no parameter sample at that step.

Each header block entry holds the block's ``id``, ``name``, ``dims`` and
``kind`` and its sampled flat coordinates, in one of two forms:

- ``sample_seed``, ``sample_size`` and ``sample_sha256`` (version 4 and
  later): the coordinates are the ones `sample_coordinates` draws. That is
  ``sample_size`` distinct indices, uniform without replacement, from a
  Philox generator keyed by ``derive_seed(sample_seed, id)``, sorted
  ascending; ``sample_size`` is ``ceil(sampling_ratio * param_count)``.
  ``sample_sha256`` is the sha256 of the indices as little-endian int64.
  A spec made by `BlockSpec.create` (so every trace ``baoc simulate``
  writes) takes this form, a few dozen bytes however many coordinates.
- ``sample_indices``: the indices as a list of integers, for a spec built
  from explicit indices and for traces written by other tools.

The reader draws a seeded entry's indices again and compares their digest.
NumPy keeps the Philox bit stream stable across releases (NEP 19), but not
what `Generator.choice` makes of it. So a NumPy whose draw differs fails
with an error naming the block instead of diagnosing other coordinates
than the ones traced.

Version 5, the one `write_trace` writes, keeps the vectors' bytes out of
the JSON. A record line is the head, a tab, then the lowercase hex of the
little-endian float64 bytes of every new vector of the record,
concatenated in head order, grads before params. In the head a new vector
is ``null``; its length is the block's ``sample_size``, so the head and the
header say where each vector lies in the payload. A vector that repeats is
a reference, as in version 3. The head holds no tab (`json.dumps` escapes
one inside a string and writes no whitespace but spaces), so the first tab
ends it. Why hex outside the JSON, and what it costs, is in `write_trace`.

Version 3 writes a vector that repeats as a reference: when a block's
vector is bit-identical to the last vector written for that block and kind
(``grads`` or ``params``), the value is the integer ``step`` of the record
that holds those bytes instead of the bytes again. A reference is valid only
when it names that step; a reader resolves it to the vector it decoded
there. A parameter sample that stays the same over a run is so written once;
a trace in which every vector changes (parameters that an optimizer moves at
each step) gets no references.

Versions 2 to 4 write a record as one JSON object, each new vector as the
base64 text of its little-endian float64 bytes. Version 4 adds the seeded
block entry; its records are version 3's. Version 2 is the version-3 layout
without references; version 1 writes each vector as a JSON array of
decimal numbers. Versions 1-3 list every entry's ``sample_indices``.
Versions 1-4 are read by one loop, which tells an entry's form by its keys;
version 5 by its own. Every round-trip is bit-exact.

The reader takes the file as bytes and decodes each line (a version-5
line: its head) as UTF-8 itself, so a line that is not UTF-8 is an error
naming the header or the record.
"""

from __future__ import annotations

import binascii
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .config_space import BlockShape
from .documents import BadValue, json_count, json_fraction, json_int, json_ints, json_str, naming, read

TRACE_VERSION = 5
_SEEDED_KEYS = ("sample_seed", "sample_size", "sample_sha256")
#: Read buffer of the record stream, in bytes (see `read_trace`).
_RECORD_BUFFER = 1 << 20


class TraceParseError(ValueError):
    """Malformed trace content; the message names the offending line/record."""


def derive_seed(seed: int, stream_id: int) -> np.random.SeedSequence:
    """Stable per-stream key so per-block draws are independent of ordering."""
    return np.random.SeedSequence(seed, spawn_key=(stream_id,))


def sample_count(param_count: int, ratio: float) -> int:
    return max(1, math.ceil(ratio * param_count))


def _draw(param_count: int, size: int, seed: int | np.random.SeedSequence) -> np.ndarray:
    """`size` distinct flat indices below `param_count`, sorted ascending, as a
    read-only int64 array."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.Philox(seq))
    idx = rng.choice(param_count, size=size, replace=False).astype(np.int64, copy=False)
    idx.sort()
    idx.flags.writeable = False
    return idx


def sample_coordinates(param_count: int, ratio: float, seed: int | np.random.SeedSequence) -> np.ndarray:
    """Draw ceil(ratio * param_count) distinct flat indices, sorted ascending.

    Uniform without replacement from a counter-based generator, so the result
    is a pure function of (param_count, ratio, seed). It is a read-only int64
    array.
    """
    if param_count < 1:
        raise ValueError("param_count must be >= 1")
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"sampling ratio must be in (0, 1], got {ratio}")
    return _draw(param_count, sample_count(param_count, ratio), seed)


def indices_sha256(indices: np.ndarray) -> str:
    """The ``sample_sha256`` of a seeded header entry: sha256 of the indices as little-endian int64."""
    return hashlib.sha256(np.ascontiguousarray(indices, dtype="<i8")).hexdigest()


def _index_array(values: object) -> np.ndarray:
    """Sample indices as one read-only 1-D int64 array; a read-only int64
    array is kept as it is, a list or tuple is read by `json_ints`."""
    if not isinstance(values, np.ndarray):
        return json_ints(values)
    if values.ndim != 1 or values.dtype.kind not in "iu":
        raise ValueError(f"expected a 1-D integer array, got a {values.ndim}-D {values.dtype} array")
    if values.dtype == np.int64 and not values.flags.writeable:
        return values
    idx = values.astype(np.int64)
    idx.flags.writeable = False
    return idx


def _seed_value(value: object) -> int:
    if type(value) is int and 0 <= value < 2**63:
        return value
    raise BadValue("an integer >= 0", value)


@dataclass(frozen=True, slots=True, eq=False)
class BlockSpec:
    """One traced parameter block and its fixed sampled coordinate set.

    `sample_indices` may be given as a list, tuple or array of integers; it
    is held as one read-only int64 array, which the diagnostics and the
    simulator use as it is. `sample_seed` is the run seed the indices were
    drawn from, which `create` sets: a spec that has one writes the seed and
    a digest in its header entry instead of the indices (see the module
    docstring). Specs compare equal when their id, name, shape, kind and
    indices are, in whichever form the indices were written.
    """

    id: int
    name: str
    shape: BlockShape
    sample_indices: np.ndarray
    module_kind: str = "other"
    sample_seed: int | None = None

    def __post_init__(self) -> None:
        try:
            idx = _index_array(self.sample_indices)
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
        object.__setattr__(self, "sample_indices", idx)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockSpec):
            return NotImplemented
        return (self.id, self.name, self.shape, self.module_kind) == (
            other.id, other.name, other.shape, other.module_kind
        ) and np.array_equal(self.sample_indices, other.sample_indices)

    def __hash__(self) -> int:
        return hash((self.id, self.name, self.shape, self.module_kind, self.sample_size))

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
        return cls(id, name, shape, indices, module_kind, sample_seed=seed)

    def to_json_dict(self) -> dict:
        entry = {"id": self.id, "name": self.name, "dims": list(self.shape.dims), "kind": self.module_kind}
        if self.sample_seed is None:
            entry["sample_indices"] = self.sample_indices.tolist()
        else:
            entry["sample_seed"] = self.sample_seed
            entry["sample_size"] = self.sample_size
            entry["sample_sha256"] = indices_sha256(self.sample_indices)
        return entry

    @classmethod
    def from_json_dict(cls, d: dict) -> "BlockSpec":
        """A spec from its header entry, in either form (see the module docstring).

        ValueError unless id, dims and the indices or the seed and size are
        integers and the name, kind and digest strings; a seeded entry must
        not list indices too. A seeded entry whose indices, drawn again, do
        not give its ``sample_sha256`` raises TraceParseError naming the block.
        """
        block_id = read(d, "id", json_int)
        with naming(f"block {block_id}: dims"):
            shape = BlockShape.from_json(d["dims"])
        name = read(d, "name", json_str)
        kind = read(d, "kind", json_str, "other")
        seeded = [key for key in _SEEDED_KEYS if key in d]
        if "sample_indices" in d or not seeded:
            if seeded:
                raise ValueError(f"block {block_id}: has both 'sample_indices' and {seeded[0]!r}")
            return cls(block_id, name, shape, d["sample_indices"], kind)
        with naming(f"block {block_id}"):
            seed = read(d, "sample_seed", _seed_value)
            size = read(d, "sample_size", json_count)
            digest = read(d, "sample_sha256", json_str)
            if size > shape.param_count:
                raise ValueError(f"'sample_size' {size} exceeds the block's {shape.param_count} parameters")
        indices = _draw(shape.param_count, size, derive_seed(seed, block_id))
        drawn = indices_sha256(indices)
        if drawn != digest:
            raise TraceParseError(
                f"block {block_id}: 'sample_sha256' {digest[:12]}... does not match the {size} indices that "
                f"'sample_seed' {seed} draws here ({drawn[:12]}...), so they are not the coordinates traced"
            )
        return cls(block_id, name, shape, indices, kind, sample_seed=seed)


@dataclass(slots=True)
class StepRecord:
    """Sampled gradients (and optionally parameters) for one step."""

    step: int
    grads: dict[int, np.ndarray]
    params: dict[int, np.ndarray] | None = None


def _head_vectors(
    step: int, vectors: dict[int, np.ndarray], last: dict[int, tuple[int, bytes]], new: list[bytes]
) -> str:
    """One record's ``grads`` or ``params`` object in the version-5 head, as JSON text.

    `last` maps a block id to the step and the little-endian bytes of the
    last vector written for it in this kind. A bit-identical vector becomes
    a reference to that step; any other vector is written as ``null``, its
    bytes are appended to `new` (the record's payload, in head order) and it
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
            new.append(data)
            items.append(f'"{block_id:d}": null')
    return "{" + ", ".join(items) + "}"


def _vector_error(where: str, kind: str, block_id: int, problem: str) -> TraceParseError:
    return TraceParseError(f"{where}: {kind} vector for block {block_id} {problem}")


def _vector_items(
    where: str, kind: str, raw: object, specs_by_id: dict[int, BlockSpec]
) -> Iterator[tuple[int, object]]:
    """A record's ``grads``/``params`` object as (block id, value) pairs;
    TraceParseError naming `where` unless it is an object whose keys are
    known block ids."""
    if not isinstance(raw, dict):
        raise TraceParseError(f"{where}: {kind} must be an object mapping block ids to vectors")
    for key, value in raw.items():
        try:
            block_id = int(key)
        except ValueError:
            raise TraceParseError(f"{where}: {kind} key {key!r} is not an integer block id") from None
        if block_id not in specs_by_id:
            raise TraceParseError(f"{where}: {kind} for unknown block id {block_id}")
        yield block_id, value


def _referenced(
    where: str, kind: str, block_id: int, value: int, last: dict[int, tuple[int, np.ndarray]]
) -> np.ndarray:
    """The vector a step reference names: the last one decoded for this block
    and kind, which must have been written at step `value`."""
    prev = last.get(block_id)
    if prev is None:
        raise _vector_error(where, kind, block_id, f"refers to step {value}, but no earlier record wrote one")
    if value != prev[0]:
        raise _vector_error(
            where, kind, block_id, f"refers to step {value}, but the last one was written at step {prev[0]}"
        )
    return prev[1]


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

    A string value is base64 little-endian float64 (versions 2 to 4),
    a list is decimal numbers (version 1), and an integer, allowed only when
    `references` is set (versions 3 and later), is the step of the record
    that holds the vector. `last` maps a block id to the step and vector
    last decoded from text for this kind; a valid reference resolves to that
    same array. Every malformed case raises TraceParseError naming the
    record and, where there is one, the block.
    """
    where = f"record {record_no} (step {step})"
    out: dict[int, np.ndarray] = {}
    for block_id, value in _vector_items(where, kind, raw, specs_by_id):
        if type(value) is int:
            if not references:
                raise _vector_error(
                    where, kind, block_id, "is a step reference, which only trace versions 3 and later allow"
                )
            out[block_id] = _referenced(where, kind, block_id, value, last)
            continue
        if isinstance(value, str):
            try:
                data = binascii.a2b_base64(value, strict_mode=True)
            except ValueError as exc:
                raise _vector_error(where, kind, block_id, f"is not valid base64: {exc}") from None
            if len(data) % 8:
                raise _vector_error(where, kind, block_id, f"has {len(data)} bytes, not a multiple of 8")
            vec = np.frombuffer(data, dtype="<f8")
        elif isinstance(value, list):
            try:
                vec = np.asarray(value, dtype=np.float64)
            except (TypeError, ValueError, OverflowError):
                raise _vector_error(where, kind, block_id, "is not an array of numbers") from None
            vec.flags.writeable = False
        else:
            raise _vector_error(
                where, kind, block_id, f"is {json.dumps(value):.40}, not a vector or a step reference"
            )
        if vec.ndim != 1:
            raise _vector_error(where, kind, block_id, f"is not 1-D (shape {vec.shape})")
        expected = specs_by_id[block_id].sample_size
        if len(vec) != expected:
            raise _vector_error(where, kind, block_id, f"has length {len(vec)}, expected {expected}")
        if not np.isfinite(vec).all():
            raise _vector_error(where, kind, block_id, "has a non-finite value")
        last[block_id] = (step, vec)
        out[block_id] = vec
    return out


def write_trace(
    path: str | Path | IO[str],
    specs: Sequence[BlockSpec],
    records: Iterable[StepRecord],
    sampling_ratio: float,
) -> None:
    """Write the header and the records as a version-5 trace. Exclusive per file; last writer wins.

    A spec with a `sample_seed` is written as a seeded entry, any other
    with its `sample_indices` (see the module docstring). Each record is
    one line: its JSON head, a tab, then the lowercase hex of the
    little-endian float64 bytes of its new vectors, grads before params,
    in head order. A vector whose bytes equal the last ones written for
    its block and kind is written in the head as the step of the record
    that holds them; every other one is ``null`` in the head and its bytes
    go to the payload. So reading the file back gives bit-identical
    values.

    Hex, and outside the JSON, because that is what the reader decodes
    fastest: one `binascii.a2b_hex` call per record, several times as fast
    as `a2b_base64`, and a `json.loads` over a head of a few hundred bytes
    instead of over the vectors' text. On the `ingest` seed-0 trace,
    `read_trace` over every record went from 25 ms at version 4 to 9 ms
    (best of 7, Python 3.11, NumPy 2.4, one Xeon core). Hex inside the
    JSON strings saved only about 5 ms an `ingest` op, and base64 outside
    them about a tenth of the read. The cost is size: hex takes 2
    characters a byte where base64 takes 4 per 3, so the file is 1.5
    times version 4's (7,986,087 bytes against 5,328,063), and each sha256
    pass over it (`partition` and `allocate --blocks` each make one) takes
    about 2.4 ms more. Both commands hash on a second thread while they
    read the trace, so in `partition` that pass hides behind the decode.
    The file stays ASCII and one record per line, so it can go to a text
    stream, such as stdout, and be split into lines.

    Records must come in increasing step order, as the reader requires.
    `path` may be an open text stream, such as stdout.
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
            new: list[bytes] = []
            grads = _head_vectors(rec.step, rec.grads, last["grads"], new)
            if rec.params is None:
                head = f'{{"step": {rec.step:d}, "grads": {grads}}}'
            else:
                params = _head_vectors(rec.step, rec.params, last["params"], new)
                head = f'{{"step": {rec.step:d}, "grads": {grads}, "params": {params}}}'
            fh.write(f"{head}\t{b''.join(new).hex()}\n")

    if hasattr(path, "write"):
        _emit(path)  # type: ignore[arg-type]
    else:
        with open(path, "w", encoding="utf-8") as fh:
            _emit(fh)


def _json_line(line: bytes, where: str) -> object:
    """One trace line as JSON; TraceParseError naming `where` unless it is UTF-8 JSON."""
    try:
        return json.loads(line.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"{where}: not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"{where}: malformed JSON: {exc}") from None


def _record_step(obj: object, record_no: int, prev_step: int | None) -> int:
    """A record's step; TraceParseError naming the record unless `obj` is an
    object with ``step`` and ``grads`` whose step is a 64-bit integer above
    `prev_step`."""
    if not isinstance(obj, dict) or "step" not in obj or "grads" not in obj:
        raise TraceParseError(f"record {record_no}: missing step or grads")
    try:
        step = json_int(obj["step"])
    except ValueError:
        raise TraceParseError(
            f"record {record_no}: step {json.dumps(obj['step']):.40} is not a 64-bit integer"
        ) from None
    if prev_step is not None and step <= prev_step:
        raise TraceParseError(f"record {record_no}: step {step} not greater than previous step {prev_step}")
    return step


def _payload_error(where: str, new: list[tuple[str, int, int]], at: int, problem: str) -> TraceParseError:
    """The error for a fault at float `at` of a record's payload, naming the
    vector of `new` (kind, block id, length, in payload order) that holds it,
    or the record when it lies past them all."""
    for kind, block_id, size in new:
        if at < size:
            return _vector_error(where, kind, block_id, problem)
        at -= size
    return TraceParseError(f"{where}: payload {problem}")


def _decode_payload(where: str, payload: memoryview, new: list[tuple[str, int, int]]) -> np.ndarray:
    """A version-5 record's payload as one read-only float64 array holding
    the vectors of `new`, after checking that it is hex, that its length is
    theirs and that every value is finite."""
    try:
        data = binascii.a2b_hex(payload)
    except binascii.Error:
        bad = re.search(rb"[^0-9A-Fa-f]", payload)
        if bad is None:
            raise TraceParseError(f"{where}: payload has an odd number of hex digits ({len(payload)})") from None
        digit = bad.start()
        raise _payload_error(
            where, new, digit // 16, f"is not hex: payload digit {digit} is {bytes(payload[digit:digit + 1])!r}"
        ) from None
    need = 8 * sum(size for _, _, size in new)
    if len(data) < need:
        raise _payload_error(
            where, new, len(data) // 8,
            f"is cut short: the payload has {len(payload)} hex digits, the head's new vectors need {2 * need}",
        )
    if len(data) > need:
        raise TraceParseError(
            f"{where}: payload has {len(payload)} hex digits, more than the {2 * need} the head's new vectors need"
        )
    floats = np.frombuffer(data, dtype="<f8")
    if not np.isfinite(floats).all():
        raise _payload_error(where, new, int(np.flatnonzero(~np.isfinite(floats))[0]), "has a non-finite value")
    return floats


def _v5_records(path: str | Path, specs_by_id: dict[int, BlockSpec]) -> Iterator[StepRecord]:
    """The record stream of a version-5 trace (see `write_trace`)."""
    prev_step: int | None = None
    record_no = 0
    last: dict[str, dict[int, tuple[int, np.ndarray]]] = {"grads": {}, "params": {}}
    with open(path, "rb", buffering=_RECORD_BUFFER) as fh:
        fh.readline()  # header, parsed by `read_trace`
        for line in fh:
            if line.isspace():
                continue
            record_no += 1
            tab = line.find(b"\t")
            if tab < 0:
                raise TraceParseError(f"record {record_no}: no tab between the JSON head and the payload")
            obj = _json_line(line[:tab], f"record {record_no}")
            step = prev_step = _record_step(obj, record_no, prev_step)
            where = f"record {record_no} (step {step})"
            # Each kind's vectors in head order; a new one is None until the payload is decoded.
            vectors: dict[str, dict[int, np.ndarray | None]] = {}
            new: list[tuple[str, int, int]] = []
            for kind in ("grads", "params"):
                raw = obj.get(kind)
                if raw is None and kind == "params":
                    continue
                out = vectors[kind] = {}
                for block_id, value in _vector_items(where, kind, raw, specs_by_id):
                    if block_id in out:
                        raise _vector_error(where, kind, block_id, "is listed twice")
                    if value is None:
                        out[block_id] = None
                        new.append((kind, block_id, specs_by_id[block_id].sample_size))
                    elif type(value) is int:
                        out[block_id] = _referenced(where, kind, block_id, value, last[kind])
                    else:
                        raise _vector_error(
                            where, kind, block_id, f"is {json.dumps(value):.40}, not null or a step reference"
                        )
            end = len(line) - line.endswith(b"\n")
            end -= line[end - 1 : end] == b"\r"
            floats = _decode_payload(where, memoryview(line)[tab + 1 : end], new)
            offset = 0
            for kind, block_id, size in new:
                vec = floats[offset : offset + size]
                offset += size
                vectors[kind][block_id] = vec
                last[kind][block_id] = (step, vec)
            yield StepRecord(step=step, grads=vectors["grads"], params=vectors.get("params"))


def read_trace(path: str | Path) -> tuple[list[BlockSpec], Iterator[StepRecord]]:
    """Parse the header eagerly and return a lazy stream of step records.

    Reads trace versions 1 to 5 (see the module docstring). The header
    is read and closed here; the record stream opens the file again only
    once it is first advanced. Each line is read as bytes and decoded as
    UTF-8 (a version-5 line: its head). The decoded vectors are read-only
    float64 arrays; from version 2 on they are views of the decoded bytes.
    A reference yields the very array decoded at the step it names, so
    records that repeat a vector share one array; a record without
    ``params`` still gives ``params=None``. Malformed vectors, payloads and
    references (see `_decode_vectors` and `_decode_payload`), unknown block
    ids and non-monotone steps raise TraceParseError naming the offending
    record, and the block where there is one, while streaming.

    The record stream reads through a buffer of `_RECORD_BUFFER` bytes,
    which holds a typical record line: with the default 8 KiB buffer, a
    line of a few hundred KB took dozens of read calls, and those calls,
    not the bytes, were most of the time spent reading. A longer line
    still reads whole, in more calls.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
    if not header_line.strip():
        raise TraceParseError("empty trace file: missing header line")
    header = _json_line(header_line, "header")
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
            key = "sample_indices" if spec.sample_seed is None else "sample_size"
            raise TraceParseError(
                f"header block {spec.id}: {key!r} gives {spec.sample_size} samples, "
                f"but sampling_ratio {ratio} implies {expected}"
            )
    specs_by_id = {s.id: s for s in specs}
    if version == 5:
        return specs, _v5_records(path, specs_by_id)
    references = version >= 3

    def _records() -> Iterator[StepRecord]:
        prev_step: int | None = None
        record_no = 0
        last: dict[str, dict[int, tuple[int, np.ndarray]]] = {"grads": {}, "params": {}}
        with open(path, "rb", buffering=_RECORD_BUFFER) as fh:
            fh.readline()  # header, parsed above
            for line in fh:
                if not line.strip():
                    continue
                record_no += 1
                obj = _json_line(line, f"record {record_no}")
                step = prev_step = _record_step(obj, record_no, prev_step)
                grads = _decode_vectors(
                    record_no, step, "grads", obj["grads"], specs_by_id, last["grads"], references
                )
                params = None
                if obj.get("params") is not None:
                    params = _decode_vectors(
                        record_no, step, "params", obj["params"], specs_by_id, last["params"], references
                    )
                yield StepRecord(step=step, grads=grads, params=params)

    return specs, _records()
