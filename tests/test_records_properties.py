"""Property tests of the record path: rendering, parsing and the cached hash."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bellsim.protocol as protocol
from bellsim.directions import max_violation_triple
from bellsim.errors import ValidationError
from bellsim.protocol import RECORDS_HEADER, ExperimentConfig, RecordBatch, run_experiment

N_CONTEXTS = {"temporal": 3, "chsh": 4}
INT64 = st.integers(-(2 ** 63), 2 ** 63 - 1)


def reference_csv(batch: RecordBatch) -> bytes:
    # the np.char renderer the byte renderer replaced
    suffixes = []
    for code, tag in enumerate(batch.tags):
        sx, sy = batch.slots[code]
        for b1 in (0, 1):
            for b2 in (0, 1):
                suffixes.append(f",{tag},{sx},{sy},{b1 * 2 - 1},{b2 * 2 - 1}\n")
    lookup = np.array(suffixes)
    key = (
        batch.codes.astype(np.int64) * 4
        + (batch.s1 > 0).astype(np.int64) * 2
        + (batch.s2 > 0).astype(np.int64)
    )
    rows = np.char.add(batch.trial.astype("U20"), lookup[key])
    return (RECORDS_HEADER + "\n" + "".join(rows.tolist())).encode("ascii")


@st.composite
def batches(draw, min_size=0, any_trials=False):
    kind = draw(st.sampled_from(sorted(N_CONTEXTS)))
    n = draw(st.integers(min_size, 120))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    trial = column(INT64) if any_trials else range(n)
    return RecordBatch(
        kind,
        np.array(trial, dtype=np.int64),
        np.array(column(st.integers(0, N_CONTEXTS[kind] - 1)), dtype=np.uint8),
        np.array(column(st.sampled_from([-1, 1])), dtype=np.int8),
        np.array(column(st.sampled_from([-1, 1])), dtype=np.int8),
    )


CHUNKS = st.integers(1, 9)


@settings(max_examples=100, deadline=None)
@given(batch=batches(any_trials=True), chunk=CHUNKS)
def test_renderer_matches_reference(batch, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "_CHUNK", chunk)
        assert batch.to_csv_bytes() == reference_csv(batch)


@settings(max_examples=40, deadline=None)
@given(batch=batches(min_size=1), chunk=CHUNKS)  # a file without rows reads as temporal
def test_round_trip_for_every_line_end(batch, chunk):
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(protocol, "_CHUNK", chunk)
        path = Path(tmp) / "records.csv"
        batch.write_csv(path)
        canonical = path.read_bytes()
        for line_end in (b"\n", b"\r\n", b"\r"):
            path.write_bytes(canonical.replace(b"\n", line_end))
            loaded = RecordBatch.from_csv(path)
            assert loaded == batch
            assert loaded.sha256() == batch.sha256()


def _respells_a_line_end(old: bytes, pos: int, value: int) -> bool:
    # CR reads as LF, and int() ignores whitespace after the last field of a file
    return (old[pos] == ord("\n") and value == ord("\r")) or (
        pos == len(old) - 1 and bytes([value]).isspace())


@settings(max_examples=150, deadline=None)
@given(batch=batches(min_size=1), data=st.data())
def test_one_changed_byte_is_rejected_or_changes_the_hash(batch, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        batch.write_csv(path)
        old = path.read_bytes()
        pos = data.draw(st.integers(0, len(old) - 1), label="pos")
        value = data.draw(st.integers(0, 255).filter(lambda v: v != old[pos]), label="value")
        assume(not _respells_a_line_end(old, pos, value))
        path.write_bytes(old[:pos] + bytes([value]) + old[pos + 1:])
        try:
            loaded = RecordBatch.from_csv(path)
        except ValidationError as exc:
            assert re.search(r"records line \d+:", str(exc)), exc
        else:
            assert loaded.sha256() != batch.sha256()


def test_hash_is_rendered_once(tmp_path, monkeypatch):
    calls = []
    render = protocol._render_rows

    def counting(*args):
        calls.append(args[1].size)
        return render(*args)

    monkeypatch.setattr(protocol, "_render_rows", counting)
    monkeypatch.setattr(protocol, "_CHUNK", 300)
    config = ExperimentConfig(mode="qm_sequential", directions=max_violation_triple(),
                              n_trials=1000, selector_seed=1, outcome_seed=2)
    path = tmp_path / "records.csv"

    written = run_experiment(config)
    written.write_csv(path)
    assert calls == [300, 300, 300, 100]
    digest = written.sha256()
    assert len(calls) == 4

    loaded = RecordBatch.from_csv(path)  # renders once more, to compare with the file
    assert len(calls) == 8
    assert loaded.sha256() == digest
    assert len(calls) == 8

    fresh = run_experiment(config)
    assert fresh.sha256() == fresh.sha256() == digest
    assert len(calls) == 12


@pytest.mark.parametrize("column", ["trial", "codes", "s1", "s2"])
def test_columns_are_read_only(column):
    batch = run_experiment(ExperimentConfig(mode="qm_sequential", directions=max_violation_triple(),
                                            n_trials=10, selector_seed=1, outcome_seed=2))
    digest = batch.sha256()
    with pytest.raises(ValueError):
        getattr(batch, column)[0] = 1
    assert batch.sha256() == digest
