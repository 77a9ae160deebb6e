"""Bit extraction from trial records and certification of the output.

Certification is conditional: the bits count as random only when the run's
inequality verdict is a violation AND the empirical frequency and runs
tests both clear the 0.01 significance floor.  A contextual ("conspiracy")
backend can fake the violation, so reports from such runs carry a mandatory
caveat flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .protocol import AnalysisReport, RecordBatch, RecordSummary, _json_float, check_report

EXTRACTION_RULE = "s1s2-interleaved-v1"
SIGNIFICANCE_FLOOR = 0.01
MIN_BITS = 100


@dataclass(frozen=True)
class RunsTestResult:
    """Runs-test outcome; not applicable when the frequency precondition fails."""

    applicable: bool
    p_value: float | None
    n_runs: int | None
    reason: str | None = None


@dataclass(frozen=True)
class CertificationReport:
    """Certification verdict for one extracted bit string."""

    certified: bool
    bell_verdict: str
    bell_value: float
    monobit_p: float
    runs: RunsTestResult
    n_bits: int
    records_sha256: str
    extraction_rule: str
    conspiracy_caveat: bool
    significance_floor: float = SIGNIFICANCE_FLOOR


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


def certify_counts(counts: BitCounts, records: RecordBatch | RecordSummary,
                   report: AnalysisReport) -> CertificationReport:
    """Certify a bit string from its counts, keyed to the inequality verdict of its run's report.

    ``records`` (a batch or its summary) are those the bits came from;
    first :func:`~bellsim.protocol.check_report` raises IntegrityError unless
    they give every field of the report but its mode, the hash first.
    Certified means: verdict is a violation and both statistical tests
    reach p >= 0.01.  The caveat flag is set unless the report's mode kind
    names a non-contextual backend (qm_sequential, qm_singlet or hv): else
    certification rests entirely on the no-conspiracy assumption.
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
        certified=certified,
        bell_verdict=report.bell.verdict,
        bell_value=report.bell.value,
        monobit_p=p_mono,
        runs=runs,
        n_bits=counts.n,
        records_sha256=report.records_sha256,
        extraction_rule=EXTRACTION_RULE,
        conspiracy_caveat=report.mode.partition(":")[0] not in ("qm_sequential", "qm_singlet", "hv"),
    )


def certification_to_jsonable(cert: CertificationReport) -> dict:
    return {
        "certified": cert.certified,
        "bell_verdict": cert.bell_verdict,
        "bell_value": _json_float(cert.bell_value),
        "monobit_p": _json_float(cert.monobit_p),
        "runs_applicable": cert.runs.applicable,
        "runs_p": _json_float(cert.runs.p_value) if cert.runs.p_value is not None else None,
        "runs_total": cert.runs.n_runs,
        "runs_skip_reason": cert.runs.reason,
        "n_bits": cert.n_bits,
        "records_sha256": cert.records_sha256,
        "extraction_rule": cert.extraction_rule,
        "significance_floor": cert.significance_floor,
        "conspiracy_caveat": cert.conspiracy_caveat,
    }


class _BitLines:
    """bits.txt written a step at a time: 64 bits a line, a partial line carried into the next step."""

    WIDTH = 64

    def __init__(self, f):
        self._f = f
        self._rest = np.empty(0, dtype=np.uint8)  # the chars of a line not yet full
        self._lines = 0

    def write(self, bits: np.ndarray) -> None:
        width = self.WIDTH
        chars = np.concatenate((self._rest, (bits > 0).view(np.uint8) + ord("0")))
        full = chars.size // width
        lines = np.empty((full, width + 1), dtype=np.uint8)
        lines[:, :width] = chars[:full * width].reshape(full, width)
        lines[:, width] = ord("\n")
        self._f.write(lines)
        self._rest = chars[full * width:].copy()
        self._lines += full

    def finish(self) -> None:
        """End the file: the partial last line, or a lone newline if there were no bits."""
        if self._rest.size or not self._lines:
            self._f.write(self._rest.tobytes() + b"\n")


def write_bits(bits, path) -> None:
    """Write bits (a sequence of 0/1) as ASCII '0'/'1' lines, 64 bits per line; no bits give a lone newline."""
    with open(path, "wb") as f:
        lines = _BitLines(f)
        lines.write(_as_bit_array(bits))
        lines.finish()


def stream_bits(steps, f) -> BitCounts:
    """Extract, count and write the bits of (lo, codes, s1, s2) record steps, one step at a time.

    The bytes written to the open binary file ``f`` are those
    :func:`write_bits` writes for the whole run; the counts are those
    :func:`monobit_test` and :func:`runs_test` read.
    """
    counts, lines = BitCounts(), _BitLines(f)
    for _, _, s1, s2 in steps:
        bits = _bits_of(s1, s2)
        counts.add(bits)
        lines.write(bits)
    lines.finish()
    return counts
