import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim import protocol
from bellsim.directions import max_violation_triple, tsirelson_quadruple
from bellsim.errors import IntegrityError, ValidationError
from bellsim.hidden_variables import FiniteHVModel
from bellsim.protocol import (
    ExperimentConfig,
    RecordBatch,
    analyze_records,
    run_experiment,
)
from bellsim.randomness import (
    _CERT_LAYOUT,
    BitCounts,
    certification_to_jsonable,
    certify,
    extract_bits,
    monobit_test,
    runs_test,
    stream_bits,
    write_bits,
)


def qm_run(n_trials=2000, outcome_seed=2):
    cfg = ExperimentConfig(mode="qm_sequential", directions=max_violation_triple(),
                           n_trials=n_trials, selector_seed=1, outcome_seed=outcome_seed)
    return run_experiment(cfg)


def constant_run(n_trials=200):
    cfg = ExperimentConfig(mode="hv:const.json", directions=max_violation_triple(),
                           n_trials=n_trials, selector_seed=1, outcome_seed=2)
    return run_experiment(cfg, model=FiniteHVModel([1.0], [[1, 1, 1]]))


class TestExtractBits:
    def test_single_record_mapping(self):
        batch = RecordBatch("temporal", np.array([0]), np.array([1]), np.array([-1]))
        bits = extract_bits(batch)
        assert bits.tolist() == [1, 0]

    def test_interleaving_order(self):
        batch = RecordBatch("temporal", np.array([0, 2]), np.array([-1, 1]), np.array([1, 1]))
        assert extract_bits(batch).tolist() == [0, 1, 1, 1]

    def test_length_is_two_per_trial(self):
        records = qm_run(500)
        bits = extract_bits(records)
        assert len(bits) == 1000

    def test_constant_model_is_all_ones(self):
        bits = extract_bits(constant_run())
        assert np.all(bits == 1)

    def test_empty_records_rejected(self):
        empty = RecordBatch("temporal", np.array([], dtype=np.uint8), np.array([], dtype=np.int8),
                            np.array([], dtype=np.int8))
        with pytest.raises(ValidationError):
            extract_bits(empty)


class TestMonobit:
    def test_alternating_is_perfectly_balanced(self):
        bits = np.tile([0, 1], 500)
        assert monobit_test(bits) == 1.0

    def test_all_ones_fails_hard(self):
        assert monobit_test(np.ones(1000, dtype=np.uint8)) < 1e-10

    @pytest.mark.parametrize("bits", [np.zeros(99, dtype=np.uint8), []])
    def test_short_input_rejected(self, bits):
        with pytest.raises(ValidationError, match=f"got {len(bits)}"):
            monobit_test(bits)

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError):
            monobit_test(np.full(200, 2, dtype=np.uint8))

    def test_two_dimensional_bits_rejected(self):
        with pytest.raises(ValidationError, match="bits must be a 1-d sequence"):
            monobit_test(np.zeros((2, 100), dtype=np.uint8))

    def test_p_value_range_and_determinism(self, rng):
        bits = rng.integers(0, 2, size=5000).astype(np.uint8)
        p = monobit_test(bits)
        assert 0.0 <= p <= 1.0
        assert monobit_test(bits) == p


class TestRunsTest:
    def test_alternating_has_too_many_runs(self):
        result = runs_test(np.tile([0, 1], 500))
        assert result.applicable
        assert result.n_runs == 1000
        assert result.p_value < 1e-10

    def test_all_ones_is_not_applicable(self):
        result = runs_test(np.ones(1000, dtype=np.uint8))
        assert not result.applicable
        assert result.p_value is None

    @pytest.mark.parametrize("bits", [np.array([0, 1, 0], dtype=np.uint8), []])
    def test_short_input_is_not_applicable(self, bits):
        result = runs_test(bits)
        assert not result.applicable and result.reason == f"needs at least 100 bits, got {len(bits)}"

    def test_random_bits_pass(self, rng):
        bits = rng.integers(0, 2, size=20_000).astype(np.uint8)
        result = runs_test(bits)
        assert result.applicable and result.p_value >= 0.01


class TestBitCounts:
    @pytest.mark.parametrize("step", [1, 63, 64, 65, 500])
    def test_counts_of_steps_equal_the_counts_of_the_whole(self, rng, step):
        bits = rng.integers(0, 2, 1000).astype(np.uint8)
        stepped = BitCounts()
        for lo in range(0, bits.size, step):
            stepped.add(bits[lo:lo + step])
        whole = BitCounts.of(bits)
        assert stepped == whole
        assert whole.transitions == np.count_nonzero(np.diff(bits))
        assert monobit_test(stepped) == monobit_test(bits)
        assert runs_test(stepped) == runs_test(bits)


class TestCertify:
    def test_quantum_run_certifies(self):
        records = qm_run(60_000)
        report = analyze_records(records, mode="qm_sequential")
        cert = certify(records, report)
        assert report.bell.verdict == "violation"
        assert cert.certified
        assert not cert.conspiracy_caveat
        assert cert.n_bits == 120_000

    def test_conspiracy_run_certifies_with_caveat(self):
        cfg = ExperimentConfig(mode="conspiracy:qm-mimic", directions=max_violation_triple(),
                               n_trials=60_000, selector_seed=4, outcome_seed=5)
        records = run_experiment(cfg)
        report = analyze_records(records, mode="conspiracy:qm-mimic")
        cert = certify(records, report)
        assert cert.certified  # the formal rule fires...
        assert cert.conspiracy_caveat  # ...but the caveat is mandatory

    def test_the_tsirelson_chsh_violation_certifies_nothing(self):
        """A violation is necessary for a certificate, not sufficient: this strongest CHSH violation certifies
        nothing, because the two raw bits of a pair disagree in about 85% of the trials of three of the four
        contexts, and the runs test sees it.  ROADMAP.md's item 6 (certify only the entropy the violation
        supports) is expected to change this verdict on purpose."""
        records = run_experiment(ExperimentConfig("qm_singlet", tsirelson_quadruple(), 60_000, 7, 8))
        report = analyze_records(records, mode="qm_singlet")
        cert = certify(records, report)
        assert report.bell.verdict == cert.bell_verdict == "violation"
        assert report.bell.value > 2.8
        assert not cert.certified
        assert cert.monobit_p >= 0.01 and cert.runs_p < 0.01
        assert cert.runs_total > 70_000  # against about 60 000 for independent bits

    def test_constant_model_never_certifies(self):
        records = constant_run()
        report = analyze_records(records, mode="hv:const.json")
        cert = certify(records, report)
        assert report.bell.verdict == "consistent"
        assert not cert.certified
        assert cert.monobit_p < 0.01 and not cert.runs_applicable

    def test_no_violation_no_certificate_even_with_good_bits(self):
        # sign model: bits look fine but the bound is not violated
        cfg = ExperimentConfig(mode="hv:sign-model", directions=max_violation_triple(),
                               n_trials=60_000, selector_seed=4, outcome_seed=5)
        records = run_experiment(cfg)
        report = analyze_records(records, mode="hv:sign-model")
        cert = certify(records, report)
        assert report.bell.verdict != "violation"
        assert cert.monobit_p >= 0.01
        assert not cert.certified

    def test_verdict_flip_is_monotone(self):
        # a downgraded verdict is one the records do not give: the re-check refuses it
        records = qm_run(60_000)
        report = analyze_records(records, mode="qm_sequential")
        assert certify(records, report).certified
        downgraded = report._replace(bell=report.bell._replace(verdict="consistent"))
        with pytest.raises(IntegrityError, match="report bell"):
            certify(records, downgraded)

    def test_hand_set_violation_fails_the_recheck(self):
        # the sign model saturates the bound: B = 1.00307 here, inconclusive
        cfg = ExperimentConfig(mode="hv:sign-model", directions=max_violation_triple(),
                               n_trials=200_000, selector_seed=1, outcome_seed=2)
        records = run_experiment(cfg)
        report = analyze_records(records, mode="hv:sign-model")
        assert report.bell.verdict == "inconclusive"
        forged = report._replace(bell=report.bell._replace(verdict="violation"))
        with pytest.raises(IntegrityError, match="report bell"):
            certify(records, forged)

    def test_hash_mismatch_is_integrity_error(self):
        records = qm_run(2000)
        report = analyze_records(records, mode="qm_sequential")
        other = qm_run(2000, outcome_seed=3)
        with pytest.raises(IntegrityError):
            certify(other, report)

    def test_jsonable_fields(self):
        # certification.json reads back through its own layout: every key in print order, each value of its type
        runs = [(qm_run(60_000), "qm_sequential"), (constant_run(), "hv:const.json")]
        docs = [certification_to_jsonable(certify(records, analyze_records(records, mode=mode)))
                for records, mode in runs]
        for doc in docs:
            assert list(doc) == list(_CERT_LAYOUT)
            assert protocol._read(doc, _CERT_LAYOUT, "it", "certification") == doc
            assert doc["significance_floor"] == 0.01
        certified, skipped = docs
        assert certified["certified"] and certified["runs_applicable"] and certified["runs_skip_reason"] is None
        assert isinstance(certified["runs_p"], float) and isinstance(certified["runs_total"], int)
        assert not skipped["certified"] and not skipped["runs_applicable"]
        assert skipped["runs_p"] is None and skipped["runs_total"] is None
        assert skipped["runs_skip_reason"].startswith("ones proportion")
        with pytest.raises(ValidationError, match=r"^malformed certification: 'runs_total' must be a JSON integer or "
                                                  r"null, got 1\.5$"):
            protocol._read({**certified, "runs_total": 1.5}, _CERT_LAYOUT, "it", "certification")


class TestBitsFile:
    def test_sixty_four_bits_per_line(self, tmp_path):
        bits = extract_bits(qm_run(100))
        path = tmp_path / "bits.txt"
        write_bits(bits, path)
        lines = path.read_text().splitlines()
        assert len(lines) == math.ceil(200 / 64)
        assert all(set(line) <= {"0", "1"} for line in lines)
        assert all(len(line) == 64 for line in lines[:-1])
        assert "".join(lines) == "".join(str(b) for b in bits.tolist())

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65])
    def test_every_line_ends_in_a_newline_and_no_bits_give_one(self, tmp_path, n):
        bits = [i % 3 % 2 for i in range(n)]
        write_bits(bits, tmp_path / "bits.txt")
        chars = "".join(map(str, bits))
        expected = "".join(chars[i:i + 64] + "\n" for i in range(0, n, 64)) or "\n"
        assert (tmp_path / "bits.txt").read_bytes() == expected.encode()


@settings(max_examples=200, deadline=None)
@given(outcomes=st.lists(st.tuples(st.booleans(), st.booleans()), max_size=300),
       cuts=st.lists(st.integers(0, 300), max_size=12))
@example(outcomes=[(True, False), (False, False), (True, True)] * 40, cuts=list(range(120)))  # 1-trial steps
@example(outcomes=[(False, True), (True, True), (False, False)] * 100, cuts=list(range(0, 300, 32)))  # whole lines
@example(outcomes=[(True, False)] * 97, cuts=[])  # one step for everything
@example(outcomes=[], cuts=[0, 0])  # no trials: a lone newline
def test_stream_bits_of_any_split_writes_what_write_bits_writes(outcomes, cuts):
    # a step's first line ends where the whole string's line does, however the trials were cut into steps
    s1 = np.array([1 if up else -1 for up, _ in outcomes], dtype=np.int8)
    s2 = np.array([1 if up else -1 for _, up in outcomes], dtype=np.int8)
    n = len(outcomes)
    edges = [0, *sorted(min(cut, n) for cut in cuts), n]
    f = io.BytesIO()
    counts = stream_bits([(lo, None, s1[lo:hi], s2[lo:hi]) for lo, hi in zip(edges, edges[1:])], f)
    bits = [int(up) for pair in outcomes for up in pair]
    with tempfile.TemporaryDirectory() as tmp:
        write_bits(bits, Path(tmp) / "bits.txt")
        assert f.getvalue() == (Path(tmp) / "bits.txt").read_bytes()
    assert counts == BitCounts.of(bits)
