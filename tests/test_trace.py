import base64
import dataclasses
import hashlib
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from baoc.config_space import BlockShape
from baoc.trace import (
    BlockSpec,
    StepRecord,
    TraceParseError,
    derive_seed,
    indices_sha256,
    read_trace,
    sample_coordinates,
    write_trace,
)
from conftest import v5_records


class TestSampleCoordinates:
    def test_count_from_ratio(self):
        assert len(sample_coordinates(5000, 0.001, seed=3)) == 5
        assert len(sample_coordinates(100, 0.001, seed=3)) == 1  # ceiling forces >= 1

    def test_deterministic(self):
        a = sample_coordinates(1000, 0.01, seed=7)
        b = sample_coordinates(1000, 0.01, seed=7)
        assert np.array_equal(a, b)

    def test_seed_changes_output(self):
        assert not np.array_equal(sample_coordinates(1000, 0.05, seed=1), sample_coordinates(1000, 0.05, seed=2))

    def test_ratio_validation(self):
        for ratio in (0.0, -0.1, 1.0001):
            with pytest.raises(ValueError):
                sample_coordinates(100, ratio, seed=0)

    def test_full_ratio(self):
        assert sample_coordinates(10, 1.0, seed=0).tolist() == list(range(10))

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(1, 100_000),
        ratio=st.floats(1e-5, 1.0, exclude_min=False, allow_nan=False),
        seed=st.integers(0, 2**31),
    )
    def test_size_distinctness_range(self, d, ratio, seed):
        idx = sample_coordinates(d, ratio, seed).tolist()
        assert len(idx) == max(1, math.ceil(ratio * d))
        assert len(set(idx)) == len(idx)
        assert idx == sorted(idx)
        assert 0 <= idx[0] and idx[-1] < d

    def test_derive_seed_stable(self):
        a = sample_coordinates(500, 0.02, derive_seed(9, 4))
        b = sample_coordinates(500, 0.02, derive_seed(9, 4))
        c = sample_coordinates(500, 0.02, derive_seed(9, 5))
        assert np.array_equal(a, b) and not np.array_equal(a, c)

    @pytest.mark.parametrize(
        "param_count, unit_id, size, first, last, digest",
        [
            (
                1024 * 1024, 1, 1049,
                [1914, 1944, 3126, 5730, 5916],
                [1041878, 1044514, 1044701, 1047398, 1047709],
                "3ac4cb1d4370863be5458b9baeaa2ac4b909763d1a5c6fb19c9f75ba850aeae0",
            ),
            (
                2816 * 1024, 6, 2884,
                [900, 2157, 2203, 2929, 4227],
                [2878961, 2879991, 2880083, 2881126, 2882104],
                "03eb4f4a82193f30423185cfa41d074b84b764eee382723b625808f319d7c97c",
            ),
        ],
    )
    def test_golden_draws_of_transformer_units(self, param_count, unit_id, size, first, last, digest):
        # A 1024 x 1024 attention matrix and a 2816 x 1024 FFN matrix at ratio 0.001, run seed 0.
        # A seeded trace header stores only the seed, so a NumPy whose Generator.choice draws other
        # indices must fail here by name, not only through the plan bytes.
        idx = sample_coordinates(param_count, 0.001, derive_seed(0, unit_id))
        assert len(idx) == size
        assert idx[:5].tolist() == first and idx[-5:].tolist() == last
        assert hashlib.sha256(idx.astype("<i8").tobytes()).hexdigest() == digest == indices_sha256(idx)

    def test_array_is_read_only_int64(self):
        idx = sample_coordinates(1000, 0.01, seed=7)
        assert idx.dtype == np.int64 and idx.ndim == 1 and not idx.flags.writeable


def _specs():
    return [
        BlockSpec(id=0, name="emb", shape=BlockShape((50,)), sample_indices=(1, 4, 9, 20, 33), module_kind="embedding"),
        BlockSpec(id=1, name="ffn", shape=BlockShape((6, 6)), sample_indices=(0, 7, 14, 21), module_kind="ffn"),
    ]


def _records():
    rng = np.random.default_rng(0)
    out = []
    for t in (1, 2, 3):
        out.append(
            StepRecord(
                step=t,
                grads={0: rng.standard_normal(5), 1: rng.standard_normal(4)},
                params={0: rng.standard_normal(5), 1: rng.standard_normal(4)} if t != 2 else None,
            )
        )
    return out


class TestRoundTrip:
    def test_write_read_identity(self, tmp_path):
        path = tmp_path / "t.jsonl"
        specs, records = _specs(), _records()
        write_trace(path, specs, records, sampling_ratio=0.1)
        got_specs, stream = read_trace(path)
        got = list(stream)
        assert got_specs == specs
        assert [r.step for r in got] == [1, 2, 3]
        for orig, back in zip(records, got):
            for b in (0, 1):
                assert np.array_equal(orig.grads[b], back.grads[b])
            if orig.params is None:
                assert back.params is None
            else:
                for b in (0, 1):
                    assert np.array_equal(orig.params[b], back.params[b])

    def test_empty_record_stream(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, _specs(), [], sampling_ratio=0.1)
        specs, stream = read_trace(path)
        assert len(specs) == 2
        assert list(stream) == []

    def test_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(a, _specs(), _records(), sampling_ratio=0.1)
        specs, stream = read_trace(a)
        write_trace(b, specs, list(stream), sampling_ratio=0.1)
        assert a.read_bytes() == b.read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(values=arrays(np.float64, st.integers(1, 64), elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(values=np.array([-0.0, 0.0, 5e-324, -2.5e-310, np.finfo(np.float64).tiny,
                              np.finfo(np.float64).max, -np.finfo(np.float64).max]))
    def test_finite_vectors_round_trip_bit_exactly(self, values):
        spec = BlockSpec(id=0, name="w", shape=BlockShape((len(values),)), sample_indices=tuple(range(len(values))))
        records = [StepRecord(step=1, grads={0: values}, params={0: values[::-1]})]
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp, "a.jsonl"), Path(tmp, "b.jsonl")
            write_trace(a, [spec], records, sampling_ratio=1.0)
            specs, stream = read_trace(a)
            (back,) = list(stream)
            assert back.grads[0].tobytes() == values.tobytes()
            assert back.params[0].tobytes() == values[::-1].tobytes()
            write_trace(b, specs, [back], sampling_ratio=1.0)
            assert a.read_bytes() == b.read_bytes()

    def test_line_longer_than_the_read_buffer(self, tmp_path):
        # 200,000 samples make a record line of about 3.2 MB, three times the record stream's buffer.
        spec = BlockSpec.create(0, "w", (1000, 1000), 0.2, seed=5)
        rng = np.random.default_rng(6)
        records = [StepRecord(step=t, grads={0: rng.standard_normal(spec.sample_size)}) for t in (1, 2, 3)]
        path = tmp_path / "t.jsonl"
        write_trace(path, [spec], records, sampling_ratio=0.2)
        lines = path.read_bytes().split(b"\n")
        assert len(lines[1]) > 2 * 10**6
        _, stream = read_trace(path)
        back = list(stream)
        assert [r.step for r in back] == [1, 2, 3]
        for orig, got in zip(records, back):
            assert got.grads[0].tobytes() == orig.grads[0].tobytes()

    def test_last_line_without_a_newline(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = _records()
        write_trace(path, _specs(), records, sampling_ratio=0.1)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        _, stream = read_trace(path)
        back = list(stream)
        assert [r.step for r in back] == [1, 2, 3]
        for orig, got in zip(records, back):
            for b in (0, 1):
                assert got.grads[b].tobytes() == orig.grads[b].tobytes()
        assert back[2].params[1].tobytes() == records[2].params[1].tobytes()

    def test_vectors_are_read_only(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, _specs(), _records(), sampling_ratio=0.1)
        _, stream = read_trace(path)
        vec = next(stream).grads[0]
        stream.close()
        with pytest.raises(ValueError, match="read-only"):
            vec[0] = 1.0

    def test_handcrafted_values(self, tmp_path):
        path = tmp_path / "t.jsonl"
        header = {
            "version": 1,
            "sampling_ratio": 0.5,
            "blocks": [{"id": 0, "name": "w", "dims": [4], "kind": "other", "sample_indices": [0, 2]}],
        }
        lines = [
            json.dumps(header),
            json.dumps({"step": 1, "grads": {"0": [0.25, -1.5]}}),
            json.dumps({"step": 5, "grads": {"0": [1e-300, 3.141592653589793]}}),
        ]
        path.write_text("\n".join(lines) + "\n")
        specs, stream = read_trace(path)
        got = list(stream)
        assert specs[0].sample_indices.tolist() == [0, 2]
        assert got[0].grads[0].tolist() == [0.25, -1.5]
        assert got[1].grads[0].tolist() == [1e-300, 3.141592653589793]
        assert got[1].params is None


class TestParseErrors:
    def _write(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def _header(self, version=1):
        return json.dumps(
            {
                "version": version,
                "sampling_ratio": 0.5,
                "blocks": [{"id": 0, "name": "w", "dims": [4], "kind": "other", "sample_indices": [0, 2]}],
            }
        )

    def test_wrong_grads_length_names_block_and_record(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                self._header(),
                json.dumps({"step": 1, "grads": {"0": [0.1, 0.2]}}),
                json.dumps({"step": 2, "grads": {"0": [0.1, 0.2, 0.3]}}),
            ],
        )
        _, stream = read_trace(path)
        with pytest.raises(TraceParseError, match=r"record 2.*block 0"):
            list(stream)

    def test_non_monotone_steps(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                self._header(),
                json.dumps({"step": 3, "grads": {"0": [0.1, 0.2]}}),
                json.dumps({"step": 3, "grads": {"0": [0.1, 0.2]}}),
            ],
        )
        _, stream = read_trace(path)
        with pytest.raises(TraceParseError, match="record 2"):
            list(stream)

    @pytest.mark.parametrize("text", ['"1"', "2.9", "3.0", "true", "null", "9223372036854775808"])
    def test_step_not_an_integer(self, tmp_path, text):
        path = self._write(tmp_path, [self._header(), '{"step": %s, "grads": {"0": [0.1, 0.2]}}' % text])
        _, stream = read_trace(path)
        with pytest.raises(TraceParseError, match=r"record 1: step .* is not a 64-bit integer") as err:
            list(stream)
        assert text in str(err.value)

    @pytest.mark.parametrize("record", ['{"grads": {"0": [0.1, 0.2]}}', '{"step": 1}', '[1, 2]', '"step"'])
    def test_missing_step_or_grads(self, tmp_path, record):
        path = self._write(tmp_path, [self._header(), record])
        _, stream = read_trace(path)
        with pytest.raises(TraceParseError, match="record 1: missing step or grads"):
            list(stream)

    def test_unknown_block_id(self, tmp_path):
        path = self._write(
            tmp_path,
            [self._header(), json.dumps({"step": 1, "grads": {"9": [0.1, 0.2]}})],
        )
        _, stream = read_trace(path)
        with pytest.raises(TraceParseError, match="unknown block id 9"):
            list(stream)

    def test_malformed_header(self, tmp_path):
        path = self._write(tmp_path, ["{not json"])
        with pytest.raises(TraceParseError, match="header"):
            read_trace(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceParseError, match="missing header"):
            read_trace(path)

    def test_wrong_version(self, tmp_path):
        path = self._write(tmp_path, [json.dumps({"version": 99, "sampling_ratio": 0.5, "blocks": []})])
        with pytest.raises(TraceParseError, match="version"):
            read_trace(path)

    def test_sample_count_inconsistent_with_ratio(self, tmp_path):
        header = json.dumps(
            {
                "version": 1,
                "sampling_ratio": 0.25,
                "blocks": [{"id": 0, "name": "w", "dims": [4], "kind": "other", "sample_indices": [0, 1, 2]}],
            }
        )
        path = self._write(tmp_path, [header])
        with pytest.raises(TraceParseError, match="sampling_ratio"):
            read_trace(path)

    @pytest.mark.parametrize("ratio", ["0.5", True, None, -3, 1.5, ...])
    def test_sampling_ratio_is_a_number_in_the_unit_interval(self, tmp_path, ratio):
        header = json.loads(self._header())
        if ratio is ...:
            del header["sampling_ratio"]
        else:
            header["sampling_ratio"] = ratio
        path = self._write(tmp_path, [json.dumps(header)])
        with pytest.raises(TraceParseError, match="malformed header: .*'sampling_ratio'"):
            read_trace(path)

    def test_malformed_record_json(self, tmp_path):
        path = self._write(tmp_path, [self._header(), "{broken"])
        _, stream = read_trace(path)
        with pytest.raises(TraceParseError, match="record 1"):
            list(stream)

    def _second_record_error(self, tmp_path, bad_record, version=1):
        """Stream a good record 1 then `bad_record` (raw JSON text) as record 2."""
        good = json.dumps({"step": 1, "grads": {"0": [0.1, 0.2]}})
        path = self._write(tmp_path, [self._header(version), good, bad_record])
        _, stream = read_trace(path)
        with pytest.raises(TraceParseError, match=r"record 2 \(step 2\)") as err:
            list(stream)
        return str(err.value)

    @pytest.mark.parametrize("kind", ["grads", "params"])
    def test_vectors_not_an_object(self, tmp_path, kind):
        record = {"step": 2, "grads": {"0": [0.1, 0.2]}, kind: [0.1, 0.2]}
        message = self._second_record_error(tmp_path, json.dumps(record))
        assert f"{kind} must be an object" in message

    def test_block_key_not_an_integer(self, tmp_path):
        message = self._second_record_error(tmp_path, json.dumps({"step": 2, "grads": {"w0": [0.1, 0.2]}}))
        assert "'w0' is not an integer block id" in message

    def test_vector_not_one_dimensional(self, tmp_path):
        message = self._second_record_error(tmp_path, json.dumps({"step": 2, "grads": {"0": [[0.1], [0.2]]}}))
        assert "block 0 is not 1-D" in message

    @pytest.mark.parametrize("text", ["[NaN, 0.2]", "[0.1, Infinity]", "[0.1, -Infinity]", "[null, 0.2]"])
    def test_non_finite_decimal_value(self, tmp_path, text):
        message = self._second_record_error(tmp_path, '{"step": 2, "grads": {"0": %s}}' % text)
        assert "block 0 has a non-finite value" in message

    def test_non_finite_base64_value(self, tmp_path):
        vec = base64.b64encode(np.array([0.1, np.nan], dtype="<f8").tobytes()).decode("ascii")
        message = self._second_record_error(tmp_path, json.dumps({"step": 2, "grads": {"0": vec}}), version=2)
        assert "block 0 has a non-finite value" in message

    @pytest.mark.parametrize(
        "vec, reason",
        [
            ("not base64!", "is not valid base64"),
            ("AAAA", "has 3 bytes, not a multiple of 8"),
            (base64.b64encode(bytes(12)).decode("ascii"), "has 12 bytes, not a multiple of 8"),
        ],
    )
    def test_bad_base64_vector(self, tmp_path, vec, reason):
        message = self._second_record_error(tmp_path, json.dumps({"step": 2, "grads": {"0": vec}}), version=2)
        assert f"block 0 {reason}" in message


class TestBlockSpec:
    def test_index_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            BlockSpec(id=0, name="w", shape=BlockShape((10,)), sample_indices=(3, 3))
        with pytest.raises(ValueError, match=r"\[0, 10\)"):
            BlockSpec(id=0, name="w", shape=BlockShape((10,)), sample_indices=(4, 10))
        with pytest.raises(ValueError, match="at least one"):
            BlockSpec(id=0, name="w", shape=BlockShape((10,)), sample_indices=())

    def test_create_uses_ratio(self):
        spec = BlockSpec.create(3, "w", (40, 50), 0.001, seed=11)
        assert spec.sample_size == math.ceil(0.001 * 2000)
        assert spec.shape.param_count == 2000


def _b64(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


class TestVersion3References:
    def _records(self):
        """Block 0's params repeat, change, repeat and go missing; block 1's never change."""
        rng = np.random.default_rng(1)
        p0, p0_new, p1 = rng.standard_normal(5), rng.standard_normal(5), rng.standard_normal(4)
        params = [{0: p0, 1: p1}, {0: p0.copy(), 1: p1}, None, {0: p0_new, 1: p1.copy()}, {0: p0_new, 1: p1}, None]
        return [
            StepRecord(step=t, grads={0: rng.standard_normal(5), 1: rng.standard_normal(4)}, params=p)
            for t, p in zip((2, 3, 5, 6, 9, 10), params)
        ]

    def test_record_lines_are_the_json_dumps_text(self, tmp_path):
        # write_trace joins each record line from its parts; it must be the text json.dumps gives.
        path = tmp_path / "t.jsonl"
        write_trace(path, _specs(), [*self._records(), StepRecord(step=11, grads={})], sampling_ratio=0.1)
        lines = path.read_text().splitlines()
        assert len(lines) == 8
        assert lines[0] == json.dumps(json.loads(lines[0]))
        heads, payloads = zip(*(line.split("\t") for line in lines[1:]))
        assert all(head == json.dumps(json.loads(head)) for head in heads)
        assert all(re.fullmatch("[0-9a-f]*", payload) for payload in payloads) and payloads[-1] == ""

    def test_repeats_become_references_and_round_trip(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        records = self._records()
        write_trace(a, _specs(), records, sampling_ratio=0.1)
        assert json.loads(a.read_text().splitlines()[0])["version"] == 5
        lines = v5_records(a)

        def params(block):
            return [head["params"][block] if "params" in head else "absent" for head, _ in lines]

        assert params("1") == [None, 2, "absent", 2, 2, "absent"]
        assert params("0") == [None, 2, "absent", None, 6, "absent"]
        assert all(v is None for head, _ in lines for v in head["grads"].values())
        for (head, payload), rec in zip(lines, records):
            new = [rec.grads[int(b)] for b in head["grads"]]
            new += [rec.params[int(b)] for b, v in head.get("params", {}).items() if v is None]
            assert payload == b"".join(np.asarray(v, dtype="<f8").tobytes() for v in new).hex()

        specs, stream = read_trace(a)
        got = list(stream)
        for orig, back in zip(records, got):
            for block in (0, 1):
                assert back.grads[block].tobytes() == orig.grads[block].tobytes()
            if orig.params is None:
                assert back.params is None
            else:
                for block in (0, 1):
                    assert back.params[block].tobytes() == orig.params[block].tobytes()
        assert got[1].params[1] is got[0].params[1] and got[4].params[0] is got[3].params[0]
        with pytest.raises(ValueError, match="read-only"):
            got[1].params[0][0] = 1.0

        write_trace(b, specs, got, sampling_ratio=0.1)
        assert a.read_bytes() == b.read_bytes()

    def test_repeated_gradient_is_a_reference_too(self, tmp_path):
        path = tmp_path / "t.jsonl"
        grad = np.array([0.5, -1.0, 2.0, 0.0])
        records = [StepRecord(step=t, grads={1: grad}) for t in (1, 2, 3)]
        write_trace(path, _specs()[1:], records, sampling_ratio=0.1)
        lines = v5_records(path)
        assert [head["grads"]["1"] for head, _ in lines] == [None, 1, 1]
        assert [payload for _, payload in lines] == [grad.astype("<f8").tobytes().hex(), "", ""]
        _, stream = read_trace(path)
        assert [rec.grads[1].tolist() for rec in stream] == [grad.tolist()] * 3

    def test_signed_zero_is_not_a_repeat(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = [StepRecord(step=t, grads={1: np.array([z, 1.0, 2.0, 3.0])}) for t, z in ((1, 0.0), (2, -0.0))]
        write_trace(path, _specs()[1:], records, sampling_ratio=0.1)
        _, stream = read_trace(path)
        assert [np.signbit(rec.grads[1][0]) for rec in stream] == [False, True]


class TestReferenceErrors:
    def _error(self, tmp_path, records, version=3):
        header = {
            "version": version,
            "sampling_ratio": 0.5,
            "blocks": [
                {"id": 0, "name": "w", "dims": [4], "kind": "other", "sample_indices": [0, 2]},
                {"id": 1, "name": "v", "dims": [4], "kind": "other", "sample_indices": [1, 3]},
            ],
        }
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in [header, *records]) + "\n")
        _, stream = read_trace(path)
        with pytest.raises(TraceParseError) as err:
            list(stream)
        return str(err.value)

    def test_reference_to_a_step_without_that_blocks_vector(self, tmp_path):
        records = [
            {"step": 1, "grads": {"0": _b64([0.1, 0.2])}},
            {"step": 2, "grads": {"0": 1, "1": 1}},
        ]
        message = self._error(tmp_path, records)
        assert message.startswith("record 2 (step 2): grads vector for block 1 refers to step 1")
        assert "no earlier record wrote one" in message

    def test_params_reference_to_a_step_that_wrote_only_grads(self, tmp_path):
        records = [
            {"step": 1, "grads": {"0": _b64([0.1, 0.2])}},
            {"step": 2, "grads": {"0": 1}, "params": {"0": 1}},
        ]
        message = self._error(tmp_path, records)
        assert message.startswith("record 2 (step 2): params vector for block 0 refers to step 1")

    def test_reference_to_a_stale_step(self, tmp_path):
        records = [
            {"step": 1, "grads": {"0": _b64([0.1, 0.2])}},
            {"step": 4, "grads": {"0": _b64([0.3, 0.4])}},
            {"step": 7, "grads": {"0": 1}},
        ]
        message = self._error(tmp_path, records)
        assert message == (
            "record 3 (step 7): grads vector for block 0 refers to step 1, "
            "but the last one was written at step 4"
        )

    def test_reference_to_its_own_step(self, tmp_path):
        message = self._error(tmp_path, [{"step": 3, "grads": {"0": 3}}])
        assert message.startswith("record 1 (step 3): grads vector for block 0 refers to step 3")

    @pytest.mark.parametrize("value", [True, False, None, 1.0, {"step": 1}])
    def test_value_that_is_no_vector_or_reference(self, tmp_path, value):
        records = [
            {"step": 1, "grads": {"0": _b64([0.1, 0.2])}},
            {"step": 2, "grads": {"0": value}},
        ]
        message = self._error(tmp_path, records)
        assert message.startswith("record 2 (step 2): grads vector for block 0 is ")
        assert message.endswith("not a vector or a step reference")

    @pytest.mark.parametrize("version", [1, 2])
    def test_reference_before_version_3(self, tmp_path, version):
        first = [0.1, 0.2] if version == 1 else _b64([0.1, 0.2])
        records = [{"step": 1, "grads": {"0": first}}, {"step": 2, "grads": {"0": 1}}]
        message = self._error(tmp_path, records, version=version)
        assert message == (
            "record 2 (step 2): grads vector for block 0 is a step reference, "
            "which only trace versions 3 and later allow"
        )


class TestStrictHeaderIntegers:
    def _entry(self, **change):
        return {"id": 0, "name": "w", "dims": [4, 4], "kind": "other", "sample_indices": [0, 5, 9]} | change

    def test_indices_are_one_read_only_int64_array(self):
        spec = BlockSpec.from_json_dict(self._entry())
        assert spec.sample_indices.tolist() == [0, 5, 9]
        assert spec.sample_indices.dtype == np.int64 and not spec.sample_indices.flags.writeable
        assert spec.shape.dims == (4, 4) and all(type(d) is int for d in spec.shape.dims)
        assert spec == BlockSpec(id=0, name="w", shape=BlockShape((4, 4)), sample_indices=[0, 5, 9])

    @pytest.mark.parametrize(
        "change, reason",
        [
            ({"dims": [2.5, 4]}, "dims: 2.5 is not an integer"),
            ({"dims": [4.0, 4]}, "dims: 4.0 is not an integer"),
            ({"dims": ["7", 4]}, "dims: '7' is not an integer"),
            ({"dims": [[4], 4]}, "dims: [4] is not an integer"),
            ({"dims": [[4, 4]]}, "dims: [4, 4] is not an integer"),
            ({"dims": 16}, "dims: expected a list of integers, got int"),
            ({"sample_indices": [0, 5.5, 9]}, "sample indices: 5.5 is not an integer"),
            ({"sample_indices": [0, "5", 9]}, "sample indices: '5' is not an integer"),
            ({"dims": [True, 4]}, "dims: True is not an integer"),
            ({"sample_indices": [True, False]}, "sample indices: True is not an integer"),
            ({"sample_indices": [0, False, 9]}, "sample indices: False is not an integer"),
            ({"sample_indices": [0, None]}, "sample indices: None is not an integer"),
            ({"sample_indices": [0, 2**64]}, "sample indices: expected integers in the 64-bit range"),
            ({"sample_indices": "0 5 9"}, "sample indices: expected a list of integers, got str"),
            ({"sample_indices": [0, 9, 5]}, "strictly increasing"),
            ({"sample_indices": [0, 5, 16]}, "must lie in [0, 16)"),
        ],
    )
    def test_non_integer_values_are_rejected(self, tmp_path, change, reason):
        with pytest.raises(ValueError, match=re.escape(reason)):
            BlockSpec.from_json_dict(self._entry(**change))
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"version": 3, "sampling_ratio": 0.2, "blocks": [self._entry(**change)]}) + "\n")
        with pytest.raises(TraceParseError, match=r"malformed header block entry: block 0: .*" + re.escape(reason)):
            read_trace(path)

    @pytest.mark.parametrize("block_id, shown", [(0.7, "0.7"), (0.0, "0.0"), ("0", '"0"'), (True, "true"), ([0], "[0]")])
    def test_non_integer_id_is_rejected(self, tmp_path, block_id, shown):
        reason = f"'id' must be a 64-bit integer, got {shown}"
        with pytest.raises(ValueError, match=re.escape(reason)):
            BlockSpec.from_json_dict(self._entry(id=block_id))
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"version": 3, "sampling_ratio": 0.2, "blocks": [self._entry(id=block_id)]}) + "\n")
        with pytest.raises(TraceParseError, match=re.escape(f"malformed header block entry: {reason}")):
            read_trace(path)


class TestSeededEntries:
    """Version-4 header entries that hold the sampler's seed instead of the indices."""

    def test_created_spec_writes_its_seed_and_reads_back_equal(self, tmp_path):
        spec = BlockSpec.create(3, "w", (40, 50), 0.01, seed=11, module_kind="ffn")
        entry = spec.to_json_dict()
        assert entry == {
            "id": 3, "name": "w", "dims": [40, 50], "kind": "ffn",
            "sample_seed": 11, "sample_size": 20, "sample_sha256": indices_sha256(spec.sample_indices),
        }
        back = BlockSpec.from_json_dict(entry)
        assert back == spec and back.sample_seed == 11
        assert back.sample_indices.dtype == np.int64 and not back.sample_indices.flags.writeable
        path = tmp_path / "t.jsonl"
        write_trace(path, [spec], [], sampling_ratio=0.01)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["version"] == 5 and header["blocks"] == [entry]
        specs, _ = read_trace(path)
        assert specs == [spec] and specs[0].to_json_dict() == entry

    def test_spec_from_a_list_writes_its_indices(self):
        spec = BlockSpec(id=0, name="w", shape=BlockShape((10,)), sample_indices=[1, 4, 9])
        assert spec.sample_seed is None
        assert spec.to_json_dict()["sample_indices"] == [1, 4, 9]
        assert not any(key in spec.to_json_dict() for key in ("sample_seed", "sample_size", "sample_sha256"))
        assert spec.sample_indices.dtype == np.int64 and not spec.sample_indices.flags.writeable

    def test_forms_compare_equal(self):
        seeded = BlockSpec.create(0, "w", (30, 30), 0.05, seed=2)
        listed = dataclasses.replace(seeded, sample_seed=None)
        assert listed == seeded and hash(listed) == hash(seeded)
        assert "sample_indices" in listed.to_json_dict() and "sample_seed" in seeded.to_json_dict()
        assert BlockSpec.from_json_dict(listed.to_json_dict()) == BlockSpec.from_json_dict(seeded.to_json_dict())
        moved = BlockSpec(0, "w", BlockShape((30, 30)), seeded.sample_indices + 1)
        assert moved != seeded

    def test_writable_array_is_copied(self):
        given = np.array([2, 5, 7])
        spec = BlockSpec(id=0, name="w", shape=BlockShape((10,)), sample_indices=given)
        given[0] = 0
        assert spec.sample_indices.tolist() == [2, 5, 7] and not spec.sample_indices.flags.writeable

    @pytest.mark.parametrize(
        "values, reason",
        [
            (np.array([1.0, 2.0]), "expected a 1-D integer array, got a 1-D float64 array"),
            (np.array([[1, 2]]), "expected a 1-D integer array, got a 2-D int64 array"),
            (np.array([True, False]), "expected a 1-D integer array, got a 1-D bool array"),
        ],
    )
    def test_array_that_holds_no_indices(self, values, reason):
        with pytest.raises(ValueError, match=re.escape(f"block 0: sample indices: {reason}")):
            BlockSpec(id=0, name="w", shape=BlockShape((10,)), sample_indices=values)

    def test_digest_mismatch_names_the_block(self):
        entry = BlockSpec.create(5, "w", (40, 50), 0.01, seed=11).to_json_dict()
        entry["sample_sha256"] = "0" * 64
        with pytest.raises(TraceParseError, match=r"^block 5: 'sample_sha256' 000000000000\.\.\. does not match the 20 indices"):
            BlockSpec.from_json_dict(entry)

    def test_size_larger_than_the_block(self):
        entry = BlockSpec.create(5, "w", (4,), 1.0, seed=11).to_json_dict() | {"sample_size": 5}
        with pytest.raises(ValueError, match=re.escape("block 5: 'sample_size' 5 exceeds the block's 4 parameters")):
            BlockSpec.from_json_dict(entry)


class TestNonUtf8Lines:
    def _trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, _specs(), _records(), sampling_ratio=0.1)
        return path, path.read_bytes().split(b"\n")

    def test_record_names_its_number(self, tmp_path):
        path, lines = self._trace(tmp_path)
        lines[2] = lines[2].replace(b'"step"', b'"st\xffep"')
        path.write_bytes(b"\n".join(lines))
        _, stream = read_trace(path)
        assert next(stream).step == 1
        with pytest.raises(TraceParseError, match=r"^record 2: not UTF-8: 'utf-8' codec can't decode byte 0xff"):
            next(stream)

    def test_header(self, tmp_path):
        path, lines = self._trace(tmp_path)
        lines[0] = lines[0].replace(b'"emb"', b'"e\xe9mb"')
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(TraceParseError, match=r"^header: not UTF-8: 'utf-8' codec can't decode byte 0xe9"):
            read_trace(path)


def _hex(values):
    return np.asarray(values, dtype="<f8").tobytes().hex()


class TestVersion5Records:
    """Version-5 record lines: a JSON head, a tab, the hex of the new vectors."""

    HEADER = {
        "version": 5,
        "sampling_ratio": 0.5,
        "blocks": [
            {"id": 0, "name": "w", "dims": [4], "kind": "other", "sample_indices": [0, 2]},
            {"id": 1, "name": "v", "dims": [4], "kind": "other", "sample_indices": [1, 3]},
        ],
    }
    FIRST = json.dumps({"step": 1, "grads": {"0": None, "1": None}, "params": {"0": None}}) + "\t" + _hex(
        [0.1, 0.2, 0.3, 0.4, 1.0, 2.0]
    )

    def _stream(self, tmp_path, second, newline="\n"):
        """Read a trace of the good record 1 then `second` (a line without its newline)."""
        path = tmp_path / "t.jsonl"
        lines = [json.dumps(self.HEADER), self.FIRST, second]
        path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode())
        return read_trace(path)[1]

    def _error(self, tmp_path, second) -> str:
        stream = self._stream(tmp_path, second)
        assert next(stream).step == 1
        with pytest.raises(TraceParseError) as err:
            next(stream)
        return str(err.value)

    @staticmethod
    def _line(head, payload):
        return json.dumps(head) + "\t" + payload

    def test_round_trip_with_a_reference(self, tmp_path):
        second = self._line({"step": 2, "grads": {"1": None, "0": None}, "params": {"0": 1}}, _hex([5, 6, 7, 8]))
        first, rec = list(self._stream(tmp_path, second))
        assert first.grads[0].tolist() == [0.1, 0.2] and first.params[0].tolist() == [1.0, 2.0]
        assert list(rec.grads) == [1, 0]
        assert rec.grads[1].tolist() == [5, 6] and rec.grads[0].tolist() == [7, 8]
        assert rec.params[0] is first.params[0]
        with pytest.raises(ValueError, match="read-only"):
            rec.grads[0][0] = 1.0

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_line_ends(self, newline, tmp_path):
        second = self._line({"step": 2, "grads": {"0": None}}, _hex([5, 6]))
        records = list(self._stream(tmp_path, second, newline))
        assert [r.step for r in records] == [1, 2] and records[1].grads[0].tolist() == [5, 6]
        assert records[1].params is None

    @pytest.mark.parametrize(
        "head, payload, message",
        [
            (
                {"step": 2, "grads": {"0": None, "1": None}}, _hex([1, 2, 3, 4])[:40] + "g" + _hex([1, 2, 3, 4])[41:],
                "record 2 (step 2): grads vector for block 1 is not hex: payload digit 40 is b'g'",
            ),
            (
                {"step": 2, "grads": {"0": None}}, _hex([1, 2]) + "0",
                "record 2 (step 2): payload has an odd number of hex digits (33)",
            ),
            (
                {"step": 2, "grads": {"0": None}}, _hex([1, 2]) + "  ",
                "record 2 (step 2): payload is not hex: payload digit 32 is b' '",
            ),
            (
                {"step": 2, "grads": {"0": None, "1": None}}, _hex([1, 2, 3]),
                "record 2 (step 2): grads vector for block 1 is cut short: "
                "the payload has 48 hex digits, the head's new vectors need 64",
            ),
            (
                {"step": 2, "grads": {"0": None}, "params": {"1": None}}, _hex([1, 2]),
                "record 2 (step 2): params vector for block 1 is cut short: "
                "the payload has 32 hex digits, the head's new vectors need 64",
            ),
            (
                {"step": 2, "grads": {"0": None}}, _hex([1, 2, 3]),
                "record 2 (step 2): payload has 48 hex digits, more than the 32 the head's new vectors need",
            ),
            (
                {"step": 2, "grads": {"0": None, "1": None}}, _hex([1, 2, 3, np.nan]),
                "record 2 (step 2): grads vector for block 1 has a non-finite value",
            ),
            (
                {"step": 2, "grads": {"0": None}, "params": {"0": 1, "1": None}}, _hex([1, 2, -np.inf, 4]),
                "record 2 (step 2): params vector for block 1 has a non-finite value",
            ),
            (
                {"step": 2, "grads": {"9": None}}, _hex([1, 2]),
                "record 2 (step 2): grads for unknown block id 9",
            ),
            (
                {"step": 2, "grads": {"0": None}, "params": {"1": 1}}, _hex([1, 2]),
                "record 2 (step 2): params vector for block 1 refers to step 1, but no earlier record wrote one",
            ),
            (
                {"step": 2, "grads": {"0": 2}}, "",
                "record 2 (step 2): grads vector for block 0 refers to step 2, "
                "but the last one was written at step 1",
            ),
            (
                {"step": 1, "grads": {"0": None}}, _hex([1, 2]),
                "record 2: step 1 not greater than previous step 1",
            ),
            (
                {"step": 2, "grads": {"0": _b64([1, 2])}}, "",
                'record 2 (step 2): grads vector for block 0 is "AAAAAAAA8D8AAAAAAAAAQA==", '
                "not null or a step reference",
            ),
            (
                {"step": 2, "grads": {"0": None, "00": None}}, _hex([1, 2, 3, 4]),
                "record 2 (step 2): grads vector for block 0 is listed twice",
            ),
            (
                {"step": 2, "grads": [0.1, 0.2]}, "",
                "record 2 (step 2): grads must be an object mapping block ids to vectors",
            ),
        ],
    )
    def test_malformed_record_names_it_and_its_block(self, head, payload, message, tmp_path):
        assert self._error(tmp_path, self._line(head, payload)) == message

    def test_missing_tab(self, tmp_path):
        message = self._error(tmp_path, json.dumps({"step": 2, "grads": {}}))
        assert message == "record 2: no tab between the JSON head and the payload"

    def test_head_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "t.jsonl"
        second = b'{"step": 2, "gr\xffads": {"0": null}}\t' + _hex([1, 2]).encode()
        path.write_bytes(b"\n".join([json.dumps(self.HEADER).encode(), self.FIRST.encode(), second]) + b"\n")
        _, stream = read_trace(path)
        assert next(stream).step == 1
        with pytest.raises(TraceParseError, match=r"^record 2: not UTF-8: 'utf-8' codec can't decode byte 0xff"):
            next(stream)

    def test_malformed_head(self, tmp_path):
        message = self._error(tmp_path, '{"step": 2, "grads": \t' + _hex([1, 2]))
        assert message.startswith("record 2: malformed JSON: ")
