"""Bit extraction from trial records and certification of the output.

Certification is conditional: the bits count as random only when the run's
inequality verdict is a violation AND the empirical frequency and runs
tests both clear the 0.01 significance floor.  A contextual ("conspiracy")
backend can fake the violation, so reports from such runs carry a mandatory
caveat flag.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .protocol import (_BELL_LAYOUT, _BOOLEAN, _INTEGER, _NUMBER, _POSITIVE, _STRING, AnalysisReport, RecordBatch,
                       RecordReader, _nullable, _written, check_report, read_label)

EXTRACTION_RULE = "s1s2-interleaved-v1"
SIGNIFICANCE_FLOOR = 0.01
MIN_BITS = 100


class RunsTestResult(NamedTuple):
    """Runs-test outcome; not applicable when the frequency precondition fails."""

    applicable: bool
    p_value: float | None
    n_runs: int | None
    reason: str | None = None


# certification.json's layout: each key in print order with its type; CertificationReport is built from it
_CERT_LAYOUT = {"certified": _BOOLEAN, "bell_verdict": _BELL_LAYOUT["verdict"], "bell_value": _NUMBER,
                "monobit_p": _NUMBER, "runs_applicable": _BOOLEAN, "runs_p": _nullable(_NUMBER),
                "runs_total": _nullable(_INTEGER), "runs_skip_reason": _nullable(_STRING), "n_bits": _INTEGER,
                "records_sha256": _STRING, "extraction_rule": _STRING, "significance_floor": _POSITIVE,
                "conspiracy_caveat": _BOOLEAN}
CertificationReport = namedtuple("CertificationReport", _CERT_LAYOUT)
CertificationReport.__doc__ = "Certification verdict for one extracted bit string: certification.json's keys."


def _bits_of(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    # per trial s1 then s2, +1 -> 1, -1 -> 0
    bits = np.empty(2 * s1.size, dtype=np.uint8)
    bits[0::2] = s1 > 0
    bits[1::2] = s2 > 0
    return bits


def extract_bits(records: RecordBatch) -> np.ndarray:
    """Bits from outcomes in trial order, as a uint8 array: per trial s1 then s2, +1 -> 1, -1 -> 0."""
    if len(records) == 0:
        raise ValidationError("cannot extract bits from an empty record set")
    return _bits_of(records.s1, records.s2)


def _as_bit_array(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValidationError("bits must be a 1-d sequence of 0/1")
    if arr.size and not np.all((arr == 0) | (arr == 1)):
        raise ValidationError("bits must contain only 0 and 1")
    return arr


@dataclass
class BitCounts:
    """All that the frequency and runs tests read of a bit string, counted a step at a time.

    ``transitions`` counts the adjacent pairs that differ, also the pair
    across two steps, for which the last bit of a step is kept.
    """

    n: int = 0
    ones: int = 0
    transitions: int = 0
    last: int | None = None

    def add(self, bits: np.ndarray) -> None:
        """Count the next bits of the string (a uint8 array of 0/1)."""
        if not bits.size:
            return
        self.n += bits.size
        self.ones += int(np.count_nonzero(bits))
        self.transitions += int(np.count_nonzero(bits[1:] != bits[:-1]))
        if self.last is not None and int(bits[0]) != self.last:
            self.transitions += 1
        self.last = int(bits[-1])

    @classmethod
    def of(cls, bits) -> "BitCounts":
        """The counts of a whole bit string (a sequence of 0/1)."""
        counts = cls()
        counts.add(_as_bit_array(bits))
        return counts


def monobit_test(bits) -> float:
    """Frequency test: p = erfc(|#ones - #zeros| / sqrt(2n)); ``bits`` may also be their BitCounts."""
    counts = bits if isinstance(bits, BitCounts) else BitCounts.of(bits)
    n = counts.n
    if n < MIN_BITS:
        raise ValidationError(f"monobit test needs at least {MIN_BITS} bits, got {n}")
    s = 2 * counts.ones - n
    return math.erfc(abs(s) / math.sqrt(2.0 * n))


def runs_test(bits) -> RunsTestResult:
    """Runs test: total runs V against its expectation 2n*pi*(1-pi).

    Requires at least MIN_BITS bits and a ones proportion pi with
    |pi - 1/2| < 2/sqrt(n); otherwise the test is reported not applicable
    (the frequency test already fails such sequences).  ``bits`` may also be
    their BitCounts.
    """
    counts = bits if isinstance(bits, BitCounts) else BitCounts.of(bits)
    n = counts.n
    if n < MIN_BITS:
        return RunsTestResult(False, None, None, f"needs at least {MIN_BITS} bits, got {n}")
    pi = counts.ones / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return RunsTestResult(False, None, None, f"ones proportion {pi:.6f} too far from 1/2")
    v = 1 + counts.transitions
    p = math.erfc(abs(v - 2.0 * n * pi * (1.0 - pi)) / (2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)))
    return RunsTestResult(True, p, v)


def certify(records: RecordBatch, report: AnalysisReport) -> CertificationReport:
    """Certify the bits of a run, keyed to the inequality verdict of its report.

    The bits are extracted with :func:`extract_bits` and judged by
    :func:`certify_counts`.
    """
    return certify_counts(BitCounts.of(extract_bits(records)), records, report)


def certify_counts(counts: BitCounts, records: RecordBatch | RecordReader,
                   report: AnalysisReport) -> CertificationReport:
    """Certify a bit string from its counts, keyed to the inequality verdict of its run's report.

    ``records`` (a batch, or a reader read to its end) are those the bits came from;
    first :func:`~bellsim.protocol.check_report` raises IntegrityError unless
    they give every field of the report and a geometry its mode label
    allows, the hash first.  Certified means: verdict is a violation and
    both statistical tests reach p >= 0.01.  The caveat flag is set unless
    :func:`~bellsim.protocol.read_label` reads the label as a mode that is
    not contextual: else certification rests entirely on no-conspiracy.
    """
    check_report(report, records)
    p_mono = monobit_test(counts)
    runs = runs_test(counts)
    certified = (
        report.bell.verdict == "violation"
        and p_mono >= SIGNIFICANCE_FLOOR
        and runs.applicable
        and runs.p_value >= SIGNIFICANCE_FLOOR
    )
    return CertificationReport(
        certified=certified, bell_verdict=report.bell.verdict, bell_value=report.bell.value, monobit_p=p_mono,
        runs_applicable=runs.applicable, runs_p=runs.p_value, runs_total=runs.n_runs, runs_skip_reason=runs.reason,
        n_bits=counts.n, records_sha256=report.records_sha256, extraction_rule=EXTRACTION_RULE,
        significance_floor=SIGNIFICANCE_FLOOR, conspiracy_caveat=read_label(report.mode)[1])


def certification_to_jsonable(cert: CertificationReport) -> dict:
    return _written(cert, _CERT_LAYOUT)


def _bit_lines(bits: np.ndarray, start: int) -> np.ndarray:
    """bits.txt's chars of bits that begin at bit ``start`` of the string: a newline after each 64th bit of it."""
    return np.insert(bits + ord("0"), np.arange(64 - start % 64, bits.size + 1, 64), ord("\n"))


def _end_bit_lines(f, n: int) -> None:
    # the newline that ends a last line of fewer than 64 of the n bits, or a file of no bits
    if n % 64 or not n:
        f.write(b"\n")


def write_bits(bits, path) -> None:
    """Write bits (a sequence of 0/1) as ASCII '0'/'1' lines, 64 bits per line; no bits give a lone newline."""
    bits = _as_bit_array(bits)
    with open(path, "wb") as f:
        f.write(_bit_lines(bits, 0))
        _end_bit_lines(f, bits.size)


def stream_bits(steps, f) -> BitCounts:
    """Extract, count and write the bits of (lo, codes, s1, s2) record steps, one step at a time.

    The bytes written to the open binary file ``f`` are those
    :func:`write_bits` writes for the whole run; the counts are those
    :func:`monobit_test` and :func:`runs_test` read.
    """
    counts = BitCounts()
    for lo, _, s1, s2 in steps:
        bits = _bits_of(s1, s2)
        counts.add(bits)
        f.write(_bit_lines(bits, 2 * lo))
    _end_bit_lines(f, counts.n)
    return counts
