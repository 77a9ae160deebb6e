"""Property tests of the record path: rendering, parsing and the cached hash."""

import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bellsim.protocol as protocol
from bellsim.directions import max_violation_triple, tsirelson_quadruple
from bellsim.errors import ValidationError
from bellsim.protocol import RECORDS_HEADER, ExperimentConfig, RecordBatch, RecordReader, run_experiment, write_run
from bellsim.selector import GEOMETRIES

N_CONTEXTS = {"temporal": 3, "chsh": 4}


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
def batches(draw, min_size=0):
    kind = draw(st.sampled_from(sorted(N_CONTEXTS)))
    n = draw(st.integers(min_size, 120))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    return RecordBatch(
        kind,
        np.array(column(st.integers(0, N_CONTEXTS[kind] - 1)), dtype=np.uint8),
        np.array(column(st.sampled_from([-1, 1])), dtype=np.int8),
        np.array(column(st.sampled_from([-1, 1])), dtype=np.int8),
    )


CHUNKS = st.integers(1, 9)


@settings(max_examples=100, deadline=None)
@given(batch=batches(), chunk=CHUNKS)
def test_renderer_matches_reference(batch, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "_STEP", chunk)
        assert batch.to_csv_bytes() == reference_csv(batch)


@pytest.mark.parametrize("kind", sorted(N_CONTEXTS))
@pytest.mark.parametrize("lo", [0, 7, 99_990, 10 ** 8 - 5, 2 ** 32 - 5, 10 ** 12 - 3, 10 ** 15 - 2])
def test_render_rows_across_digit_widths(kind, lo):
    # trials lo..lo+9 cross a digit width (at 10**8 from one digit word to two, at 2**32 to 64-bit trials)
    codes = np.arange(10, dtype=np.uint8) % N_CONTEXTS[kind]
    s1 = np.where(np.arange(10) % 2, 1, -1).astype(np.int8)
    s2 = -s1
    got = protocol._render_rows(kind, lo, protocol._outcome_key(codes, s1, s2))
    tags, slots = GEOMETRIES[kind]
    assert got == "".join(f"{lo + i},{tags[c]},{slots[c][0]},{slots[c][1]},{a},{b}\n"
                          for i, (c, a, b) in enumerate(zip(codes, s1, s2))).encode()


@settings(max_examples=40, deadline=None)
@given(batch=batches(min_size=1), chunk=CHUNKS)  # a file without rows reads as temporal
def test_round_trip_for_every_line_end(batch, chunk):
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(protocol, "_STEP", chunk)
        path = Path(tmp) / "records.csv"
        batch.write_csv(path)
        canonical = path.read_bytes()
        for line_end in (b"\n", b"\r\n", b"\r"):
            path.write_bytes(canonical.replace(b"\n", line_end))
            loaded = RecordBatch.from_csv(path)
            assert loaded == batch
            assert loaded.sha256() == batch.sha256()


@settings(max_examples=150, deadline=None)
@given(batch=batches(min_size=1), data=st.data())
def test_one_changed_byte_is_rejected_or_changes_the_hash(batch, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        batch.write_csv(path)
        old = path.read_bytes()
        pos = data.draw(st.integers(0, len(old) - 1), label="pos")
        value = data.draw(st.integers(0, 255).filter(lambda v: v != old[pos]), label="value")
        assume(not (old[pos] == ord("\n") and value == ord("\r")))  # CR reads as LF
        path.write_bytes(old[:pos] + bytes([value]) + old[pos + 1:])
        try:
            loaded = RecordBatch.from_csv(path)
        except ValidationError as exc:
            assert re.search(r"records line \d+:", str(exc)), exc
        else:
            assert loaded.sha256() != batch.sha256()


def test_hash_is_rendered_once(tmp_path, monkeypatch):
    # writing renders each step once, and reading renders nothing, also where it refuses a step
    calls = []
    render = protocol._render_rows

    def counting(*args):
        calls.append(args[2].size)  # (kind, lo, key)
        return render(*args)

    monkeypatch.setattr(protocol, "_render_rows", counting)
    monkeypatch.setattr(protocol, "_STEP", 300)
    config = ExperimentConfig(mode="qm_sequential", directions=max_violation_triple(),
                              n_trials=1000, selector_seed=1, outcome_seed=2)
    path = tmp_path / "records.csv"

    written = run_experiment(config)
    written.write_csv(path)
    assert calls == [300, 300, 300, 100]
    digest = written.sha256()
    assert len(calls) == 4

    loaded = RecordBatch.from_csv(path)  # checked where it lies, not rendered again
    assert loaded.sha256() == digest
    assert len(calls) == 4

    path.write_bytes(path.read_bytes().replace(b"\n400,", b"\n+400,"))  # trial 400 in another spelling
    with pytest.raises(ValidationError, match="^records line 402: not in canonical form$"):
        RecordReader.read(path)
    assert len(calls) == 4

    fresh = run_experiment(config)
    assert fresh.sha256() == fresh.sha256() == digest
    assert len(calls) == 8


# steps start near these trials, so that their rows cross a digit width, 2**32 or the 9-digit windows
LO_NEAR = (0, 9, 10 ** 4 - 3, 10 ** 8 - 3, 2 ** 32 - 2, 10 ** 12)
EDITS = ("none", "substitute", "insert", "delete", "plus", "zero", "space", "swap", "trial", "cr")


def edited_step(rows: list[bytes], lo: int, data) -> bytes:
    """A step's rows after one edit drawn from EDITS: a byte or field spelled otherwise, rows moved, a CR left in."""
    edit = data.draw(st.sampled_from(EDITS), label="edit")
    i = data.draw(st.integers(0, len(rows) - 1), label="row")
    if edit in ("substitute", "insert", "delete"):
        pos = data.draw(st.integers(0, len(rows[i]) - 1), label="pos")
        value = bytes([data.draw(st.integers(0, 255), label="value")])
        new = {"substitute": value, "insert": value + rows[i][pos:pos + 1], "delete": b""}[edit]
        rows[i] = rows[i][:pos] + new + rows[i][pos + 1:]
    elif edit in ("plus", "zero", "space"):
        fields = rows[i].split(b",")
        f = data.draw(st.integers(0, len(fields) - 1), label="field")
        fields[f] = {"plus": b"+", "zero": b"0", "space": b" "}[edit] + fields[f]
        rows[i] = b",".join(fields)
    elif edit == "swap":
        j = data.draw(st.integers(0, len(rows) - 1), label="other row")
        rows[i], rows[j] = rows[j], rows[i]
    elif edit == "trial":
        rows[i] = str(lo + i + data.draw(st.sampled_from([-1, 1]))).encode() + rows[i][rows[i].index(b","):]
    elif edit == "cr":
        rows[i] = rows[i][:-1] + b"\r\n"
    return b"".join(rows)


def spelled_keys(step: bytes) -> np.ndarray:
    # the _outcome_key values that the rows of a step spell, each row six valid fields
    rows = [row.split(b",") for row in step[:-1].split(b"\n")]
    return np.array([protocol._ROWS[(tag.decode(), int(sx), int(sy))][1] * 4 + (int(v1) > 0) * 2 + (int(v2) > 0)
                     for _, tag, sx, sy, v1, v2 in rows], dtype=np.uint8)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(N_CONTEXTS)), data=st.data())
def test_in_place_check_accepts_exactly_what_rendering_gives(kind, data):
    m = data.draw(st.integers(1, 300), label="rows")
    lo = max(data.draw(st.sampled_from(LO_NEAR), label="near") + data.draw(st.integers(-m, 3), label="offset"), 0)
    keys = data.draw(st.lists(st.integers(0, 4 * N_CONTEXTS[kind] - 1), min_size=m, max_size=m), label="keys")
    key = np.array(keys, dtype=np.uint8)
    step = edited_step(bytes(protocol._render_rows(kind, lo, key)).splitlines(keepends=True), lo, data)
    ends = np.flatnonzero(np.frombuffer(step, np.uint8) == ord("\n")).astype(np.int32)
    assume(ends.size)
    step = step[:ends[-1] + 1]  # a step ends at its last newline
    try:
        protocol._parse_lines(step, lo + 2, kind)
        accepted = True
    except ValidationError:
        accepted = False
    # the drawn keys, and those the rows spell if the line parser accepts them
    candidates = [np.resize(key, ends.size), *([spelled_keys(step)] if accepted else [])]
    canonical = []
    for candidate in candidates:
        rendered = protocol._render_rows(kind, lo, candidate)
        assert protocol._rows_are_canonical(step, kind, lo, ends, candidate) == (rendered == step)
        canonical.append(rendered == step)
    assert accepted == any(canonical)  # the line parser accepts exactly the canonical rows


@pytest.mark.parametrize("kind,lo", [("temporal", 10 ** 8 - 6), ("chsh", 95)])  # rows that cross a digit width
def test_in_place_check_rejects_every_substituted_byte(kind, lo):
    key = np.arange(12, dtype=np.uint8) % (4 * N_CONTEXTS[kind])
    step = bytes(protocol._render_rows(kind, lo, key))
    ends = np.flatnonzero(np.frombuffer(step, np.uint8) == ord("\n")).astype(np.int32)
    assert protocol._rows_are_canonical(step, kind, lo, ends, key)
    for pos in range(len(step)):
        for value in {step[pos] ^ 1, ord("-"), ord("0"), ord(","), ord("\r")} - {step[pos], ord("\n")}:
            edited = step[:pos] + bytes([value]) + step[pos + 1:]
            assert not protocol._rows_are_canonical(edited, kind, lo, ends, key), (pos, value)


def record_path_outputs(config: ExperimentConfig, threads: int, tmp: Path) -> list:
    """What the record path gives for a config: written bytes and hashes, and what reading them back gives."""
    run_path, crlf_path = tmp / "run.csv", tmp / "crlf.csv"
    run_hash = write_run(config, run_path, threads=threads)
    batch = run_experiment(config, threads=threads)
    batch.write_csv(tmp / "batch.csv")
    crlf_path.write_bytes(run_path.read_bytes().replace(b"\n", b"\r\n"))
    outputs = [run_path.read_bytes(), run_hash, (tmp / "batch.csv").read_bytes(), batch.sha256(),
               RecordBatch(batch.kind, batch.codes, batch.s1, batch.s2).sha256()]  # rendered afresh
    for path in (run_path, crlf_path):
        loaded, reader = RecordBatch.from_csv(path), RecordReader.read(path)
        outputs += [(loaded.kind, loaded.codes.tolist(), loaded.s1.tolist(), loaded.s2.tolist(),
                     loaded.sha256(), loaded.outcome_counts().tolist()),
                    (reader.kind, len(reader), reader.sha256(), reader.outcome_counts().tolist())]
    return outputs


@settings(max_examples=25, deadline=None)
@given(chunk=st.integers(1, 40), step=st.integers(1, 60), n_trials=st.integers(1, 200),
       chsh=st.booleans(), threads=st.sampled_from([1, 3]))
@example(chunk=12, step=5, n_trials=200, chsh=False, threads=3)  # a step that does not divide a span
@example(chunk=5, step=12, n_trials=200, chsh=True, threads=3)  # a step larger than a span
@example(chunk=7, step=1, n_trials=50, chsh=False, threads=1)  # one row a step
def test_span_and_step_sizes_change_no_output(chunk, step, n_trials, chsh, threads):
    extra = dict(mode="qm_singlet", directions=tsirelson_quadruple()) if chsh else {}
    config = ExperimentConfig(**{**dict(mode="qm_sequential", directions=max_violation_triple(),
                                        n_trials=n_trials, selector_seed=9, outcome_seed=10), **extra})
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "_usable_cpus", lambda: threads)  # the pool, and its rendering workers, on any host
        whole = record_path_outputs(config, threads, Path(tmp))  # one span and one step at these sizes
        mp.setattr(protocol, "_CHUNK", chunk)
        mp.setattr(protocol, "_STEP", step)
        assert record_path_outputs(config, threads, Path(tmp)) == whole


# --- the streamed reader, with _STEP patched small ---------------------------------


@pytest.fixture
def reads(monkeypatch):
    """Every (size, bytes) read from the files that from_csv opens."""
    log = []

    class Logged(io.BufferedReader):
        def read(self, size=-1):
            data = super().read(size)
            log.append((size, data))
            return data

    def logged_open(path, mode):
        return Logged(io.FileIO(path, mode)) if mode == "rb" else open(path, mode)

    monkeypatch.setattr(protocol, "open", logged_open, raising=False)
    return log


@pytest.fixture
def streamed(monkeypatch):
    """Fail any load that calls the line parser, which only explains a refused step."""
    def refused(*args):
        raise AssertionError("a step was refused")

    monkeypatch.setattr(protocol, "_parse_lines", refused)


def small_chunk_batch(monkeypatch, tmp_path, chunk=7, n_trials=500, **overrides):
    monkeypatch.setattr(protocol, "_STEP", chunk)
    config = dict(mode="qm_sequential", directions=max_violation_triple(), n_trials=n_trials,
                  selector_seed=3, outcome_seed=4)
    config.update(overrides)
    batch = run_experiment(ExperimentConfig(**config))
    path = tmp_path / "records.csv"
    batch.write_csv(path)
    return batch, path


def assert_loads_as(path, batch):
    loaded = RecordBatch.from_csv(path)
    assert loaded == batch
    assert loaded.sha256() == batch.sha256()
    assert np.array_equal(loaded.outcome_counts(), batch.outcome_counts())


@pytest.mark.parametrize("chunk,n_trials", [(11, 2000), (9, 2000), (64, 5000)])
def test_crlf_split_across_a_read_boundary(monkeypatch, tmp_path, reads, streamed, chunk, n_trials):
    batch, path = small_chunk_batch(monkeypatch, tmp_path, chunk=chunk, n_trials=n_trials)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert_loads_as(path, batch)
    assert any(data.endswith(b"\r") for _, data in reads[:-1])  # its LF came with the next read


@pytest.mark.parametrize("kind", ["temporal", "chsh"])
def test_crlf_file_takes_one_read_per_step(monkeypatch, tmp_path, reads, streamed, kind):
    extra = {} if kind == "temporal" else dict(mode="qm_singlet", directions=tsirelson_quadruple())
    batch, path = small_chunk_batch(monkeypatch, tmp_path, **extra)  # 500 rows in 72 steps of 7
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert_loads_as(path, batch)
    assert len(reads) <= 72 + 1  # and one more that finds the end


@pytest.mark.parametrize("kind,width", [("temporal", 14), ("chsh", 16)])
def test_steps_after_the_first_are_sized_by_the_files_kind(monkeypatch, tmp_path, streamed, kind, width):
    # a step's read and newline search take what _STEP canonical rows can: of either kind until line 2 has
    # named the file's kind (a CHSH tail is 16 bytes), then of that kind (a temporal tail is at most 14)
    extra = {} if kind == "temporal" else dict(mode="qm_singlet", directions=tsirelson_quadruple())
    batch, path = small_chunk_batch(monkeypatch, tmp_path, **extra)  # 500 rows in steps of 7
    assert protocol._TAIL_WIDTH[kind] == width
    with open(path, "rb") as f:
        reader = protocol.RecordReader(f)
        assert reader._step_size() == 7 * (1 + 16)
        for _ in reader:
            assert reader._step_size() == 7 * (len(str(reader.n + 6)) + width)
    assert reader.sha256() == batch.sha256()


def test_mixed_line_ends_load_on_the_streamed_path(monkeypatch, tmp_path, streamed):
    batch, path = small_chunk_batch(monkeypatch, tmp_path)  # 500 rows in steps of 7
    lines = path.read_bytes().split(b"\n")  # the header, 500 rows and an empty last piece
    assert len(lines) == 502
    # CRLF up to trial 148, a lone CR after trial 149 (the third row of its step), then LF
    path.write_bytes(b"\r\n".join(lines[:150]) + b"\r\n" + lines[150] + b"\r" + b"\n".join(lines[151:]))
    assert_loads_as(path, batch)


def test_slots_of_no_context_cite_their_line(monkeypatch, tmp_path):
    _, path = small_chunk_batch(monkeypatch, tmp_path)
    lines = path.read_bytes().split(b"\n")
    row = next(i for i in range(300, 500) if b",AB,1,2," in lines[i])
    lines[row] = lines[row].replace(b",AB,1,2,", b",AB,1,9,")
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValidationError, match=rf"^records line {row + 1}: unknown context/slot combination$"):
        RecordBatch.from_csv(path)


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(st.sampled_from([b"\r", b"\n", b"\r\n", b"0", b","]), max_size=40),
       sizes=st.lists(st.integers(1, 8), min_size=1))
def test_reads_of_any_size_map_line_ends_as_the_whole_file(pieces, sizes):
    data = b"".join(pieces)
    reader = protocol.RecordReader(io.BytesIO(data))
    for i in range(len(data) + 2):  # each fill reads at least once until the end
        reader._fill(len(reader._buf) + sizes[i % len(sizes)])
    assert reader._eof
    assert reader._buf == data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")


def test_counts_before_any_step_are_a_validation_error():
    with pytest.raises(ValidationError, match="^records: no step read yet$"):
        protocol.RecordReader(io.BytesIO(b"")).outcome_counts()


def test_the_reader_answers_for_the_rows_read_so_far(monkeypatch, tmp_path):
    batch, path = small_chunk_batch(monkeypatch, tmp_path)  # 500 rows in steps of 7
    with open(path, "rb") as f:
        reader = protocol.RecordReader(f)
        steps = iter(reader)
        next(steps)
        assert len(reader) == reader.outcome_counts().sum() == 7
        for _ in steps:
            pass
    assert len(reader) == reader.outcome_counts().sum() == 500
    assert (reader.kind, reader.tags, reader.sha256()) == (batch.kind, batch.tags, batch.sha256())


def test_the_count_table_is_added_to_in_place(monkeypatch, tmp_path):
    # one table for the whole file: a new table per step would be one more allocation per step
    batch, path = small_chunk_batch(monkeypatch, tmp_path)
    with open(path, "rb") as f:
        reader = protocol.RecordReader(f)
        tables = [reader._counts for _ in reader]
    assert len(tables) == 72 and all(table is tables[0] for table in tables)
    assert np.array_equal(reader.outcome_counts(), batch.outcome_counts())


@pytest.mark.parametrize("kind", ["temporal", "chsh"])
def test_lone_cr_as_the_last_byte(monkeypatch, tmp_path, reads, streamed, kind):
    extra = {} if kind == "temporal" else dict(mode="qm_singlet", directions=tsirelson_quadruple())
    batch, path = small_chunk_batch(monkeypatch, tmp_path, **extra)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    assert_loads_as(path, batch)
    (_, last), (_, end) = reads[-2:]
    assert last.endswith(b"\r") and end == b""  # the CR waited for the read that found the end


def test_file_without_a_final_newline_is_refused(monkeypatch, tmp_path, assert_refused):
    # the canonical form ends each row, the last one too, in a newline
    _, path = small_chunk_batch(monkeypatch, tmp_path)  # 500 rows in steps of 7
    assert_refused(path.read_bytes()[:-1], "records line 501: not in canonical form")


def test_non_canonical_row_in_the_last_chunk(monkeypatch, tmp_path, assert_refused):
    _, path = small_chunk_batch(monkeypatch, tmp_path)
    head, last = path.read_bytes()[:-1].rsplit(b"\n", 1)
    trial, rest = last.split(b",", 1)
    records = head + b"\n" + trial + b"," + rest.replace(b",1", b",+1") + b"\n"
    assert b"+1" in records
    assert_refused(records, "records line 501: not in canonical form")


def test_bad_row_in_a_later_chunk_cites_its_line(monkeypatch, tmp_path):
    _, path = small_chunk_batch(monkeypatch, tmp_path)
    lines = path.read_bytes().split(b"\n")
    lines[300] = lines[300].rsplit(b",", 1)[0] + b",2"  # line 301, chunk 43 of 72
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValidationError, match=r"^records line 301: outcomes must be \+1 or -1$"):
        RecordBatch.from_csv(path)


@pytest.mark.parametrize("row", [b"", b"7", b"7,", b"7,AB", b"7,AB,1,2,-1"])
def test_a_short_row_first_in_a_step_cites_its_line(monkeypatch, tmp_path, row):
    # the canonical path's outcome and slot reads may leave such a row; the check refuses what they give
    _, path = small_chunk_batch(monkeypatch, tmp_path)
    lines = path.read_bytes().split(b"\n")
    lines[8] = row  # line 9, trial 7: the first row of the second step
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValidationError, match=r"^records line 9: expected 6 fields, got \d$"):
        RecordReader.read(path)


def test_a_long_line_is_read_on_only_to_cite_it(monkeypatch, tmp_path, reads):
    monkeypatch.setattr(protocol, "_STEP", 4)
    path = tmp_path / "records.csv"
    # trial 0 after 2 MB of spaces, far longer than any canonical row
    path.write_bytes(f"{RECORDS_HEADER}\n{' ' * 2_000_000}0,AB,1,2,1,-1\n1,BC,2,3,-1,1\n".encode())
    with pytest.raises(ValidationError, match="^records line 2: not in canonical form$"):
        RecordBatch.from_csv(path)
    assert len(reads[0][1]) < 200  # one step's worth first
    assert all(size != -1 for size, _ in reads)  # the file is never read whole ...
    assert len(reads) < 40  # ... and the long line in reads that double in size


def test_rows_longer_than_canonical_are_refused_out_of_one_read(monkeypatch, tmp_path, reads, assert_refused):
    # with every slot and outcome signed ("+1", "+3") each row is longer than any canonical row, so the step's
    # read holds fewer than a step of rows: the first of them is cited without reading on
    _, path = small_chunk_batch(monkeypatch, tmp_path, mode="qm_singlet", directions=tsirelson_quadruple())
    header, rows = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header + b"\n" + re.sub(rb",([0-9])", rb",+\1", rows))
    with pytest.raises(ValidationError, match="^records line 2: not in canonical form$"):
        RecordReader.read(path)
    assert len(reads) == 1 and len(reads[0][1]) < 7 * 40
    assert_refused(path.read_bytes(), "records line 2: not in canonical form")


@pytest.fixture
def parser_calls(monkeypatch):
    """The file line that each call of the line-by-line parser starts at."""
    calls = []
    parse = protocol._parse_lines

    def logged(data, line, kind):
        calls.append(line)
        return parse(data, line, kind)

    monkeypatch.setattr(protocol, "_parse_lines", logged)
    return calls


@pytest.mark.parametrize("row", [499, 250, 0])
def test_only_the_step_that_differs_is_parsed_line_by_line(monkeypatch, tmp_path, parser_calls, assert_refused,
                                                            row):
    _, path = small_chunk_batch(monkeypatch, tmp_path)  # 500 rows in steps of 7
    lines = path.read_bytes().split(b"\n")
    lines[row + 1] = b"0" + lines[row + 1]  # a leading zero: a valid value, not in canonical form
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValidationError, match=rf"^records line {row + 2}: not in canonical form$"):
        RecordReader.read(path)
    first = row - row % 7
    assert parser_calls == [first + 2]  # the file's line of the step's first row; the header never reaches it
    assert_refused(path.read_bytes(), f"records line {row + 2}: not in canonical form")


def test_a_row_past_the_read_is_explained_after_the_rows_before_it(monkeypatch, tmp_path, parser_calls,
                                                                  assert_refused):
    _, path = small_chunk_batch(monkeypatch, tmp_path, n_trials=60)  # steps of 7
    lines = path.read_bytes().split(b"\n")
    lines[3] = b" " * 100 + lines[3]  # trial 2, longer than a step of canonical rows
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValidationError, match="^records line 4: not in canonical form$"):
        RecordReader.read(path)
    assert parser_calls == [2, 4]  # the whole rows of the step's read, then the row after them, read on to its end
    assert_refused(path.read_bytes(), "records line 4: not in canonical form")


def test_canonical_file_is_never_read_whole(monkeypatch, tmp_path, reads, streamed):
    batch, path = small_chunk_batch(monkeypatch, tmp_path, n_trials=3000)

    def slurp(self):
        raise AssertionError("read the whole file")

    monkeypatch.setattr(Path, "read_bytes", slurp)
    assert_loads_as(path, batch)
    assert max(len(data) for _, data in reads) < 7 * 40  # one step of 7 rows at most
    assert all(size != -1 for size, _ in reads)


@pytest.mark.parametrize("column", ["trial", "codes", "s1", "s2"])
def test_columns_are_read_only(column):
    batch = run_experiment(ExperimentConfig(mode="qm_sequential", directions=max_violation_triple(),
                                            n_trials=10, selector_seed=1, outcome_seed=2))
    digest = batch.sha256()
    with pytest.raises(ValueError):
        getattr(batch, column)[0] = 1
    assert batch.sha256() == digest
