"""Differential tests: the orjson trace reader against the stdlib one.

:mod:`tests.scenarios.reference_trace` keeps the reader the trace
layer shipped before it decoded with orjson.  A single-service trace
and a two-member fleet trace are loaded by both, and everything the
replay consumes must agree bit for bit: the header, the fault, fix,
absorb and summary records, and every snapshot rebuilt from a tick.
A Hypothesis property pins the decoder pair on the values a trace
holds, so a different orjson release is checked wherever the suite
runs.  The last tests cover the two inputs where the pair differs:
non-finite floats, which the writer refuses, and integers beyond 64
bits, which the reader refuses in the header.
"""

from __future__ import annotations

import dataclasses
import math
import re
import struct

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fleet.campaign import run_fleet_campaign
from repro.scenarios.runner import replay_campaign, run_scenario
from repro.scenarios.trace import load_trace
from repro.scenarios.trace import (
    TraceRecorder,
    _dumps,
    snapshot_from_payload,
    tick_payload,
)
from repro.simulator.service import TickSnapshot
from tests.scenarios.reference_trace import (
    reference_load_trace,
    reference_snapshot,
)


def _bits(value):
    """A comparison key that tells -0.0 from 0.0, ``1`` from ``1.0``,
    and compares arrays by dtype, shape and bytes."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return ("dict", [(k, _bits(v)) for k, v in value.items()])
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, [_bits(v) for v in value])
    if dataclasses.is_dataclass(value):
        return (
            type(value).__name__,
            [
                (f.name, _bits(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ],
        )
    return (type(value).__name__, value)


@pytest.fixture(scope="module")
def single_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "retry_storm.jsonl"
    run_scenario("retry_storm", seed=3, n_episodes=2, record_path=str(path))
    return str(path)


@pytest.fixture(scope="module")
def fleet_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "fleet.jsonl"
    run_fleet_campaign(
        n_services=2,
        episodes_per_service=2,
        seed=1,
        workers=1,
        scenario="black_friday",
        record_path=str(path),
    )
    return str(path)


@pytest.fixture(params=["single", "fleet"])
def trace(request):
    return request.getfixturevalue(f"{request.param}_trace")


class TestMatchesReferenceReader:
    def test_header_and_records(self, trace):
        header, members = load_trace(trace)
        ref_header, ref_members = reference_load_trace(trace)
        assert _bits(header) == _bits(ref_header)
        assert sorted(members) == sorted(ref_members)
        for index, member in members.items():
            ref = ref_members[index]
            assert member.faults == ref.faults
            assert _bits(member.fixes) == _bits(ref.fixes)
            assert _bits(member.absorbs) == _bits(ref.absorbs)
            assert (member.injected, member.undetected) == (
                ref.injected,
                ref.undetected,
            )
            payloads = [tick_payload(raw) for raw in member.ticks]
            assert _bits(payloads) == _bits(ref.ticks)
        # Neither trace may pass vacuously.
        assert all(m.ticks and m.faults and m.fixes for m in members.values())
        if header["kind"] == "fleet":
            assert len(members) == 2
            assert all(m.absorbs for m in members.values())

    def test_rebuilt_snapshots_match_field_by_field(self, trace):
        header, members = load_trace(trace)
        ref_header, ref_members = reference_load_trace(trace)
        callers, callees = header["caller_names"], header["callee_names"]
        for index, member in members.items():
            snapshots = [
                snapshot_from_payload(payload, callers, callees)
                for payload in map(tick_payload, member.ticks)
            ]
            expected = [
                reference_snapshot(
                    payload,
                    ref_header["caller_names"],
                    ref_header["callee_names"],
                )
                for payload in ref_members[index].ticks
            ]
            assert len(snapshots) == len(expected)
            for snapshot, ref in zip(snapshots, expected):
                for field in dataclasses.fields(TickSnapshot):
                    got = getattr(snapshot, field.name)
                    want = getattr(ref, field.name)
                    if isinstance(want, np.ndarray):
                        assert got.dtype == want.dtype == np.float64
                        assert np.array_equal(got, want)
                    assert _bits(got) == _bits(want), field.name
                # Ticks the service was down carry no call matrix.
                traced = snapshot.call_matrix is not None
                assert snapshot.caller_names == (callers if traced else [])
                assert snapshot.callee_names == (callees if traced else [])
            assert any(s.call_matrix is not None for s in snapshots)
            # Every snapshot owns its name lists.
            for name, shared in (
                ("caller_names", callers),
                ("callee_names", callees),
            ):
                owned = {id(getattr(s, name)) for s in snapshots}
                assert len(owned) == len(snapshots)
                assert id(shared) not in owned


class TestSnapshotPayloads:
    @pytest.fixture
    def payload(self, single_trace):
        _, members = load_trace(single_trace)
        return tick_payload(members[0].ticks[0])

    def test_absent_fields_take_their_defaults(self, payload):
        for name in ("timeouts", "per_type_latency_ms", "call_matrix"):
            del payload[name]
        snapshot = snapshot_from_payload(payload, ["a"], ["b"])
        expected = reference_snapshot(payload, ["a"], ["b"])
        assert _bits(snapshot) == _bits(expected)
        assert snapshot.timeouts == 0
        assert snapshot.call_matrix is None
        assert snapshot.caller_names == []
        other = snapshot_from_payload(payload, ["a"], ["b"])
        assert snapshot.per_type_latency_ms == {}
        assert other.per_type_latency_ms is not snapshot.per_type_latency_ms

    def test_unknown_key_raises(self, payload):
        payload["bogus"] = 1
        with pytest.raises(TypeError):
            reference_snapshot(payload, [], [])
        with pytest.raises(TypeError, match="bogus"):
            snapshot_from_payload(payload, [], [])

    def test_missing_required_field_raises(self, payload):
        del payload["latency_ms"]
        with pytest.raises(TypeError):
            reference_snapshot(payload, [], [])
        with pytest.raises(TypeError, match="latency_ms"):
            snapshot_from_payload(payload, [], [])


# Every number a trace holds: finite doubles (signed zeros and
# subnormals included) and the integers orjson keeps as integers.
_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
)


@settings(max_examples=500)
@example([0.0, -0.0, 5e-324, -2.2250738585072014e-308])
# repr switches to exponent notation at 1e16 and below 1e-4.
@example([1.7976931348623157e308, 0.1, 1e16, 1e-7, -1.5e300])
@example([-(2**63), 2**64 - 1, 0, -1])
@given(st.lists(_numbers, min_size=1))
def test_writer_numbers_survive_orjson_with_identical_bits_and_type(values):
    decoded = orjson.loads(_dumps({"v": values}))["v"]
    assert _bits(decoded) == _bits(values)


class TestWhereTheDecodersDiffer:
    @pytest.mark.parametrize(
        "fields",
        [
            {"latency_ms": math.nan},
            {"error_rate": math.inf},
            {"web_queue": -math.inf},
            {"call_matrix": np.array([[1.0, math.nan]])},
        ],
        ids=["nan", "inf", "-inf", "matrix-nan"],
    )
    def test_recorder_refuses_non_finite_floats(self, tmp_path, fields):
        snapshot = TickSnapshot(
            tick=0,
            available=True,
            request_counts={},
            total_requests=0,
            errors=0,
            error_rate=0.0,
            latency_ms=0.0,
        )
        for name, value in fields.items():
            setattr(snapshot, name, value)
        recorder = TraceRecorder(str(tmp_path / "t.jsonl"))
        with pytest.raises(ValueError, match="not JSON compliant"):
            recorder.tick(0, snapshot)

    @pytest.mark.parametrize(
        "header, field",
        [
            ({"seed": 2**70 + 12345}, "seed"),
            ({"seed": 1, "threshold": 2**64}, "threshold"),
            ({"member_seeds": [7, -(2**63) - 1]}, "member_seeds[1]"),
        ],
        ids=["seed", "threshold", "member_seeds"],
    )
    def test_loader_refuses_header_integers_beyond_64_bits(
        self, tmp_path, header, field
    ):
        path = str(tmp_path / "t.jsonl")
        recorder = TraceRecorder(path)
        recorder.set_header(kind="fleet", **header)
        recorder.close()
        with pytest.raises(ValueError, match=re.escape(field)):
            load_trace(path)

    def test_loader_keeps_64_bit_header_integers(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        recorder = TraceRecorder(path)
        seeds = [-(2**63), 2**64 - 1]
        recorder.set_header(
            kind="fleet", seed=2**64 - 1, threshold=3, member_seeds=seeds
        )
        recorder.close()
        header, _ = load_trace(path)
        assert _bits(header["member_seeds"]) == _bits(seeds)
        assert _bits(header["seed"]) == _bits(2**64 - 1)

    def test_replay_refuses_a_seed_beyond_64_bits(self, tmp_path):
        path = str(tmp_path / "big_seed.jsonl")
        run_scenario(
            "retry_storm", seed=2**70 + 12345, n_episodes=1, record_path=path
        )
        with pytest.raises(ValueError, match="header field seed"):
            replay_campaign(path)
