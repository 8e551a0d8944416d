"""A trace streams through record and replay one line at a time.

The loader keeps tick records as raw lines and the replay decodes each
one when it reaches it, so a replay decodes every line exactly once,
holds one undecoded copy of the trace's ticks, and raises at a
malformed tick.  Tick records the writer did not produce (keys in
another order) take the decoding path and replay the same.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import tracemalloc

import orjson
import pytest

from repro.fleet.campaign import run_fleet_campaign
from repro.scenarios import (
    format_scenario,
    load_trace,
    replay_campaign,
    replay_fleet_campaign,
    run_scenario,
    trace_sha256,
)
from repro.scenarios import trace as trace_module
from repro.scenarios.trace import ReplayService, _FixCursor

SCENARIO = "black_friday"
SEED = 3


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """``black_friday`` seed 3 recorded at 2 and 6 episodes (about
    3.2 and 5.5 MB), keyed by episode count, with the recorder's
    SHA-256 of each."""
    folder = tmp_path_factory.mktemp("traces")
    recorded = {}
    for episodes in (2, 6):
        path = str(folder / f"{SCENARIO}-{episodes}.jsonl")
        run = run_scenario(
            SCENARIO, seed=SEED, n_episodes=episodes, record_path=path
        )
        recorded[episodes] = (path, run.trace_sha256)
    return recorded


@pytest.fixture(scope="module")
def trace(traces):
    return traces[2][0]


@pytest.fixture(scope="module")
def fleet_trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("traces") / "fleet.jsonl")
    run_fleet_campaign(
        n_services=2,
        episodes_per_service=2,
        seed=1,
        workers=1,
        scenario=SCENARIO,
        record_path=path,
    )
    return path


def _lines(path: str) -> list[bytes]:
    with open(path, "rb") as handle:
        return handle.readlines()


def _replay_stats(result) -> tuple:
    return (
        result.injected,
        result.undetected,
        result.total_ticks,
        [
            (
                r.event_id,
                r.fault_kinds,
                r.injected_at,
                r.detected_at,
                r.recovered_at,
                r.successful_fix,
                r.escalated,
                r.outcomes,
                [(app.kind, app.target) for app in r.applications],
            )
            for r in result.reports
        ],
    )


class _CountingDecoder:
    """Stands in for the trace module's ``orjson`` and counts decodes."""

    def __init__(self) -> None:
        self.calls = 0

    def loads(self, raw):
        self.calls += 1
        return orjson.loads(raw)


@pytest.mark.parametrize("fixture", ["trace", "fleet_trace"])
def test_replay_decodes_every_line_exactly_once(
    monkeypatch, request, fixture
):
    path = request.getfixturevalue(fixture)
    lines = [raw for raw in _lines(path) if not raw.isspace()]
    decoder = _CountingDecoder()
    monkeypatch.setattr(trace_module, "orjson", decoder)
    if fixture == "trace":
        replay_campaign(path)
    else:
        assert len(replay_fleet_campaign(path)) == 2
    assert decoder.calls == len(lines)


def test_loader_keeps_tick_records_undecoded(monkeypatch, trace):
    decoder = _CountingDecoder()
    monkeypatch.setattr(trace_module, "orjson", decoder)
    _, members = load_trace(trace)
    ticks = members[0].ticks
    assert ticks and all(type(raw) is bytes for raw in ticks)
    assert decoder.calls == len(_lines(trace)) - len(ticks)


def _replay_peak(path: str) -> int:
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        replay_campaign(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()


def test_replay_memory_grows_by_about_one_byte_per_trace_byte(traces):
    small, large = traces[2][0], traces[6][0]
    replay_campaign(small)  # lazy imports and first-use caches
    added_bytes = os.path.getsize(large) - os.path.getsize(small)
    added_peak = _replay_peak(large) - _replay_peak(small)
    # Decoding every tick up front grew the peak by about 4.4 bytes
    # per trace byte; keeping raw lines grows it by about 1.0.
    assert added_peak / added_bytes < 1.5


def test_recorded_and_hashed_digests_match_the_file_bytes(traces):
    for path, recorded_sha in traces.values():
        with open(path, "rb") as handle:
            expected = hashlib.sha256(handle.read()).hexdigest()
        # Both traces span several 1 MiB hashing blocks.
        assert os.path.getsize(path) > 3 << 20
        assert recorded_sha == expected
        assert trace_sha256(path) == expected


def test_tick_records_with_unsorted_keys_replay_identically(tmp_path, trace):
    rewritten = str(tmp_path / "unsorted.jsonl")
    with open(trace) as src, open(rewritten, "w") as dst:
        for line in src:
            record = json.loads(line)
            reordered = dict(reversed(list(record.items())))
            dst.write(json.dumps(reordered, separators=(",", ":")) + "\n")
    _, members = load_trace(rewritten)
    assert members[0].ticks[0].startswith(b'{"type":"tick","s":')
    original = replay_campaign(trace)
    replayed = replay_campaign(rewritten)
    assert _replay_stats(replayed.result) == _replay_stats(original.result)
    assert format_scenario(replayed) == format_scenario(original)


def _tick_line_indexes(lines: list[bytes]) -> list[int]:
    return [i for i, raw in enumerate(lines) if raw.startswith(b'{"member":')]


def test_truncated_tick_line_makes_replay_raise(tmp_path, trace):
    lines = _lines(trace)
    ticks = _tick_line_indexes(lines)
    middle = ticks[len(ticks) // 2]
    lines[middle] = lines[middle][: len(lines[middle]) // 2] + b"\n"
    broken = tmp_path / "truncated.jsonl"
    broken.write_bytes(b"".join(lines))
    with pytest.raises(ValueError):
        replay_campaign(str(broken))


def test_malformed_tick_raises_when_the_replay_reaches_it(tmp_path, trace):
    lines = _lines(trace)
    ticks = _tick_line_indexes(lines)
    bad = len(ticks) // 2
    line = lines[ticks[bad]]
    # Prefix and suffix stay canonical; the body no longer parses.
    assert line.count(b'"latency_ms":') == 1
    lines[ticks[bad]] = line.replace(b'"latency_ms":', b'"latency_ms"::')
    broken = str(tmp_path / "malformed.jsonl")
    with open(broken, "wb") as handle:
        handle.write(b"".join(lines))

    header, members = load_trace(broken)
    service = ReplayService(
        members[0].ticks,
        _FixCursor(members[0].fixes),
        caller_names=header["caller_names"],
        callee_names=header["callee_names"],
        beans=header["beans"],
    )
    for expected_tick in range(bad):
        assert service.step().tick == expected_tick
    with pytest.raises(ValueError):
        service.step()
    with pytest.raises(ValueError):
        replay_campaign(broken)
