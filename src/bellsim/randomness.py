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

from .errors import IntegrityError, ValidationError
from .protocol import AnalysisReport, RecordBatch, _json_float

EXTRACTION_RULE = "s1s2-interleaved-v1"
SIGNIFICANCE_FLOOR = 0.01
MIN_BITS = 100


@dataclass(frozen=True)
class BitString:
    """Extracted bits plus the provenance needed to tie them to a records file."""

    bits: np.ndarray  # uint8 array of 0/1 in extraction order
    records_sha256: str
    extraction_rule: str = EXTRACTION_RULE

    def __len__(self) -> int:
        return self.bits.size


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


def extract_bits(records: RecordBatch) -> BitString:
    """Bits from outcomes in trial order: per trial s1 then s2, +1 -> 1, -1 -> 0."""
    if len(records) == 0:
        raise ValidationError("cannot extract bits from an empty record set")
    bits = np.empty(2 * len(records), dtype=np.uint8)
    bits[0::2] = records.s1 > 0
    bits[1::2] = records.s2 > 0
    return BitString(bits, records.sha256())


def _as_bit_array(bits) -> np.ndarray:
    arr = bits.bits if isinstance(bits, BitString) else np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValidationError("bits must be a 1-d sequence of 0/1")
    if arr.size and not np.all((arr == 0) | (arr == 1)):
        raise ValidationError("bits must contain only 0 and 1")
    return arr


def monobit_test(bits) -> float:
    """Frequency test: p = erfc(|#ones - #zeros| / sqrt(2n))."""
    arr = _as_bit_array(bits)
    n = arr.size
    if n < MIN_BITS:
        raise ValidationError(f"monobit test needs at least {MIN_BITS} bits, got {n}")
    s = 2 * int(np.count_nonzero(arr)) - n
    return math.erfc(abs(s) / math.sqrt(2.0 * n))


def runs_test(bits) -> RunsTestResult:
    """Runs test: total runs V against its expectation 2n*pi*(1-pi).

    Requires at least MIN_BITS bits and a ones proportion pi with
    |pi - 1/2| < 2/sqrt(n); otherwise the test is reported not applicable
    (the frequency test already fails such sequences).
    """
    arr = _as_bit_array(bits)
    n = arr.size
    if n < MIN_BITS:
        return RunsTestResult(False, None, None, f"needs at least {MIN_BITS} bits, got {n}")
    pi = int(np.count_nonzero(arr)) / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return RunsTestResult(False, None, None, f"ones proportion {pi:.6f} too far from 1/2")
    v = 1 + int(np.count_nonzero(np.diff(arr)))
    p = math.erfc(abs(v - 2.0 * n * pi * (1.0 - pi)) / (2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)))
    return RunsTestResult(True, p, v)


def certify(records: RecordBatch, report: AnalysisReport) -> CertificationReport:
    """Certify the bits of a run, keyed to the inequality verdict of its report.

    The bits are extracted with :func:`extract_bits` and judged by
    :func:`certify_bits`.
    """
    return certify_bits(extract_bits(records), report)


def certify_bits(bits: BitString, report: AnalysisReport) -> CertificationReport:
    """Certify extracted bits, keyed to the inequality verdict of their run's report.

    The report must have been produced from exactly the records the bits
    came from (checked by hash).  Certified means: verdict is a violation
    and both statistical tests reach p >= 0.01.  Conspiracy-mode runs keep a
    caveat flag set: the violation is then produced by a contextual model
    and certification rests entirely on the no-conspiracy assumption.
    """
    records_hash = bits.records_sha256
    if records_hash != report.records_sha256:
        raise IntegrityError(
            f"records hash {records_hash[:12]}... does not match the report's "
            f"{report.records_sha256[:12]}..."
        )
    p_mono = monobit_test(bits)
    runs = runs_test(bits)
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
        n_bits=len(bits),
        records_sha256=records_hash,
        extraction_rule=bits.extraction_rule,
        conspiracy_caveat=report.mode.startswith("conspiracy"),
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


def write_bits(bits: BitString, path) -> None:
    """Write bits as ASCII '0'/'1' lines, 64 bits per line; no bits give a lone newline."""
    width = 64
    chars = (bits.bits > 0).view(np.uint8) + ord("0")
    full = chars.size // width
    lines = np.empty((full, width + 1), dtype=np.uint8)
    lines[:, :width] = chars[:full * width].reshape(full, width)
    lines[:, width] = ord("\n")
    rest = chars[full * width:]
    with open(path, "wb") as f:
        f.write(lines)
        if rest.size or not full:
            f.write(rest.tobytes() + b"\n")
