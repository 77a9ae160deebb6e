"""Experiment orchestration: configs, trial records, estimators and verdicts.

A run is fully determined by (mode, directions, n_trials, selector_seed,
outcome_seed): the selector stream fixes the context of every trial (a
span of trials continues it from the state its first trial needs), each
trial's outcome randomness is derived from its index, and the backend
samplers are pure, so records are bit-identical across re-runs,
chunkings and thread counts.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import math
import os
import sys
from collections import deque, namedtuple
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from .directions import Direction3
from .errors import InsufficientDataError, IntegrityError, ValidationError
from .selector import (
    GEOMETRIES,
    GEOMETRY_OF_COUNT,
    SLOT_COUNT,
    ContextSet,
    context_codes,
    state_after,
    trial_uniforms,
    validate_seed,
)

RECORDS_HEADER = "trial,context,slot_x,slot_y,s1,s2"
SELECTOR_ALGORITHM = "splitmix64"

# trials per simulation span of a run on more than one thread, where longer spans keep the pool's
# queue short; a run on one thread simulates spans of _STEP trials, so a streamed one holds one step
_CHUNK = 1 << 16
# rows per record step, rendered or read and checked at once: the buffers of a step (about 1.9 MB)
# stay near the size of a core's L2 cache, where those of a whole span would not
_STEP = 1 << 14


def round12(x: float) -> float:
    """Round to 12 significant decimal digits (the printed precision)."""
    return float(f"{x:.12g}")


def _json_float(x):
    if x is None or not math.isfinite(x):
        return None
    return round12(float(x))


SIGN_MODEL_NAME = "sign-model"  # the built-in models a mode can name, as hv:sign-model and conspiracy:qm-mimic
QM_MIMIC_NAME = "qm-mimic"


def read_json(path, what: str):
    """The JSON document in a UTF-8 file; anything else is a ValidationError naming the file as ``what``."""
    try:
        data = Path(path).read_bytes()
    except ValueError as exc:  # a name with a NUL byte, which no file can have; other failures are OSErrors
        raise ValidationError(f"{what} file {str(path)!r}: {exc}") from None
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, an integer of over 4300 digits, too deep
        raise ValidationError(f"{what} file {path}: invalid JSON ({exc})") from None


def write_json(doc, path) -> None:
    """Write a JSON document as bellsim writes every JSON file: 2-space indent, final newline."""
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_number(x) -> bool:
    # a float, or an integer within float range: float() and math.isfinite raise OverflowError beyond it
    return _is_real(x) and (isinstance(x, float) or abs(x) <= sys.float_info.max)


# a JSON type: what a value must be, as a refusal names it, and the test it must pass (int(), float() and str()
# would read 6000.9, "0.5" and true); a number is read with float(), null staying None, and written by _json_float
_JSONType = namedtuple("_JSONType", "must_be test number", defaults=[False])

_STRING = _JSONType("a JSON string", lambda x: isinstance(x, str))
_INTEGER = _JSONType("a JSON integer", lambda x: _is_real(x) and isinstance(x, int))
_NUMBER = _JSONType("a JSON number", _is_number, True)
_OBJECT = _JSONType("a JSON object", lambda x: isinstance(x, Mapping))
_BOOLEAN = _JSONType("a JSON boolean", lambda x: isinstance(x, bool))
# compared with the largest float: math.isfinite raises OverflowError on an integer beyond float range
_POSITIVE = _JSONType("a positive finite number", lambda x: _is_real(x) and 0 < x <= sys.float_info.max, True)


def _nullable(kind: _JSONType) -> _JSONType:
    # kind, or null
    return _JSONType(f"{kind.must_be} or null", lambda x: x is None or kind.test(x), kind.number)


# --- configuration --------------------------------------------------------------


class _Mode(NamedTuple):
    # classes are named as "module.Class" and imported by make_sampler, so reading records loads no backend
    geometries: tuple[str, ...]  # the geometries the mode runs
    contextual: bool  # its outcomes may depend on the context, so a certificate rests on no-conspiracy alone
    sampler: str  # its sampler when no model is given
    builtin: str | None = None  # the model name that selects that sampler; None: the mode takes no model
    model_type: str | None = None  # the model a model file must hold
    model_sampler: str | None = None  # that model's sampler


# a mode is written as its kind, or as kind:<model> where the row names a built-in model
_MODES = {
    "qm_sequential": _Mode(("temporal",), False, "quantum.SequentialSampler"),
    "qm_singlet": _Mode(("chsh",), False, "quantum.SingletSampler"),
    "hv": _Mode(("temporal", "chsh"), False, "hidden_variables.SignModelSampler", SIGN_MODEL_NAME,
                "hidden_variables.FiniteHVModel", "hidden_variables.FiniteModelSampler"),
    "conspiracy": _Mode(("temporal",), True, "hidden_variables.QmMimicSampler", QM_MIMIC_NAME,
                        "hidden_variables.ContextualFiniteModel", "hidden_variables.ContextualModelSampler"),
}


def _backend_class(name: str) -> type:
    # a _MODES row's "module.Class", its module imported now
    module, _, cls = name.partition(".")
    return getattr(importlib.import_module(f".{module}", __package__), cls)


def parse_mode(mode: str, name: str = "config key 'mode'") -> tuple[str, str | None]:
    """Split a mode string into (kind, model argument); else a ValidationError naming it."""
    if not isinstance(mode, str):
        raise ValidationError(f"{name} must be a string, got {type(mode).__name__}")
    kind, sep, arg = mode.partition(":")
    row = _MODES.get(kind)
    if row is not None and (arg if row.builtin else not sep):
        return kind, arg or None
    *first, last = (k if r.builtin is None else f"{k}:<model>" for k, r in _MODES.items())
    raise ValidationError(f"{name} must be {', '.join(first)} or {last}, got {mode!r}")


def read_label(label: str, name: str = "config key 'mode'") -> tuple[tuple[str, ...], bool]:
    """A report's mode label as the record geometries it allows and whether its certificate rests on no-conspiracy
    alone: a mode's row gives both; a geometry allows itself and names no backend, so it does."""
    if isinstance(label, str) and label in GEOMETRIES:
        return (label,), True
    row = _MODES[parse_mode(label, name)[0]]
    return row.geometries, row.contextual


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment bit-for-bit."""

    mode: str
    directions: tuple[Direction3, ...]
    n_trials: int
    selector_seed: int
    outcome_seed: int
    sigma_threshold: float = 5.0
    selector_algorithm: str = SELECTOR_ALGORITHM

    def __post_init__(self):
        kind, _ = parse_mode(self.mode)
        for i, d in enumerate(self.directions):
            if not isinstance(d, Direction3):
                raise ValidationError(f"config key 'directions'[{i}] must be a unit 3-vector")
        geometries, n = _MODES[kind].geometries, len(self.directions)
        if GEOMETRY_OF_COUNT.get(n) not in geometries:
            counts = " or ".join(str(SLOT_COUNT[g]) for g in geometries)
            raise ValidationError(f"config key 'directions': {kind} mode needs {counts} directions, got {n}")
        if not isinstance(self.n_trials, int) or isinstance(self.n_trials, bool):
            raise ValidationError("config key 'n_trials' must be an integer")
        if self.n_trials < 1:
            raise ValidationError(f"config key 'n_trials' must be >= 1, got {self.n_trials}")
        for key in ("selector_seed", "outcome_seed"):  # stored parsed, so "0xAB" and 0xAB are one config
            object.__setattr__(self, key, validate_seed(getattr(self, key), key))
        check_sigma_threshold(self.sigma_threshold, "config key 'sigma_threshold'")
        if self.selector_algorithm != SELECTOR_ALGORITHM:
            raise ValidationError(
                f"config key 'selector_algorithm': only {SELECTOR_ALGORITHM!r} is available, "
                f"got {self.selector_algorithm!r}"
            )

    @property
    def geometry(self) -> str:
        """The geometry of the direction count: 'temporal' (settings in turn) or 'chsh' (settings in pairs)."""
        return GEOMETRY_OF_COUNT[len(self.directions)]

    def context_set(self) -> ContextSet:
        return ContextSet(self.geometry, self.directions)

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ExperimentConfig":
        if not isinstance(doc, Mapping):
            raise ValidationError("config must be a JSON object")
        keys = fields(cls)
        unknown = set(doc) - {key.name for key in keys}
        if unknown:
            raise ValidationError(f"unknown config key {sorted(unknown)[0]!r}")
        for key in keys:
            if key.default is MISSING and key.name not in doc:
                raise ValidationError(f"missing required config key {key.name!r}")
        raw_dirs = doc["directions"]
        if not isinstance(raw_dirs, (list, tuple)):
            raise ValidationError("config key 'directions' must be a list of 3-vectors")
        directions = []
        for i, v in enumerate(raw_dirs):
            # float() would read "0.5" and true
            if not isinstance(v, (list, tuple)) or len(v) != 3 or not all(map(_is_real, v)):
                raise ValidationError(f"config key 'directions'[{i}] must be a list of 3 numbers, got {v!r}")
            try:
                directions.append(Direction3(*map(float, v)))
            except (OverflowError, ValidationError) as exc:  # an integer beyond float range
                raise ValidationError(f"config key 'directions'[{i}]: {exc}") from None
        return cls(**{**doc, "directions": tuple(directions)})

    def to_jsonable(self) -> dict:
        doc = {key.name: getattr(self, key.name) for key in fields(self)}
        return {**doc, "directions": [[d.x, d.y, d.z] for d in self.directions]}


def check_sigma_threshold(k, name: str = "sigma_threshold") -> float:
    """k as a float if it is a positive finite number; else a ValidationError naming it."""
    if not _POSITIVE.test(k):
        raise ValidationError(f"{name} must be {_POSITIVE.must_be}, got {k!r}")
    return float(k)


def check_threads(threads, name: str = "thread count") -> int:
    """threads if it is a positive int; else a ValidationError naming it."""
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
        raise ValidationError(f"{name} must be a positive integer, got {threads!r}")
    return threads


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call, as on macOS and Windows
        return os.cpu_count() or 1


def threads_used(threads) -> int:
    """The threads a run asked for ``threads`` uses: the count, checked, and no more than the usable CPUs."""
    return min(check_threads(threads), _usable_cpus())


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(read_json(path, "config"))


@functools.cache
def _reuse_step_memory() -> None:
    """Let the C allocator keep, for the next record step or simulation span, the memory each frees.

    Each allocates about 2 MB of temporaries, none above 1 MB, and frees them
    before the next.  By default glibc returns such memory and faults it in
    again: about 26 000 minor faults and 0.08 s per 3 M-trial `analyze`.
    Blocks up to 4 MB now come from the heap, which keeps up to 64 MB free at
    its top; larger ones, such as a caller's own arrays, are still returned.
    Process-wide and made once; a C library without ``mallopt`` is left as it is.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD (malloc.h)
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


# --- trial records ----------------------------------------------------------------


# (context, slot_x, slot_y) -> (record kind, context code); the kinds share no row
_ROWS = {(tag, *slot): (kind, code)
         for kind, (tags, slots) in GEOMETRIES.items() for code, (tag, slot) in enumerate(zip(tags, slots))}


# by record kind and _outcome_key, the bytes of a row after its trial: the one place that spells a row out
_TAIL_ROWS = {kind: [f",{tag},{sx},{sy},{v1},{v2}\n".encode()
                     for tag, (sx, sy) in zip(tags, slots) for v1 in (-1, 1) for v2 in (-1, 1)]
              for kind, (tags, slots) in GEOMETRIES.items()}
_HEADER_LINE = (RECORDS_HEADER + "\n").encode("ascii")
# trial 0 plus a tail names the kind; within a kind the slot digits name the context
_KIND_OF_ROW0 = {b"0" + tail: kind for kind, tails in _TAIL_ROWS.items() for tail in tails}
_MIN_ROW = min(len(row) for row in _KIND_OF_ROW0)  # the shortest canonical row of either kind
_TAIL_WIDTH = {kind: max(map(len, tails)) for kind, tails in _TAIL_ROWS.items()}  # the longest tail of each kind
_TAIL_WIDTH[None] = max(_TAIL_WIDTH.values())  # of either kind


def _read_only(values, dtype=None) -> np.ndarray:
    # a read-only view of values as an array: tables are built once, then read by several threads at once
    col = np.asarray(values, dtype=dtype).view()
    col.flags.writeable = False
    return col


def _signs(positive: np.ndarray) -> np.ndarray:
    """+1 where the bool array is True, else -1, as int8 outcomes: 2 * positive - 1."""
    return (positive.view(np.int8) << 1) - 1


def _slot_table(slots: tuple[tuple[int, int], ...]) -> np.ndarray:
    # context code by slot_x byte << 8 | slot_y byte; 255 where no context has those slots
    codes = np.full(1 << 16, 255, dtype=np.uint8)
    for code, (sx, sy) in enumerate(slots):
        codes[ord(str(sx)) << 8 | ord(str(sy))] = code
    return _read_only(codes)


_CODE_OF_SLOTS = {kind: _slot_table(slots) for kind, (_, slots) in GEOMETRIES.items()}


def _outcome_key(codes: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    # code * 4 + (s1 > 0) * 2 + (s2 > 0): a trial's row in the tail and count tables
    key = codes << 2
    key |= (s1 > 0).view(np.uint8) << 1
    key |= (s2 > 0).view(np.uint8)
    return key


def _count_table(n_contexts: int, key: np.ndarray) -> np.ndarray:
    # the (n_contexts x 4) outcome counts of the trials with these _outcome_key values
    return _read_only(np.bincount(key, minlength=4 * n_contexts).reshape(n_contexts, 4), np.int64)


# by _outcome_key, each tail's bytes before its newline and the words _render_rows writes and _rows_are_canonical
# compares, its first and last 8 bytes: tails are 12 to 16 bytes long, so the two cover every byte of a tail
_TAIL_WORDS = {kind: (np.array([len(t) - 1 for t in tails], np.int32),
                      np.frombuffer(b"".join(t[:8] for t in tails), "<u8"),
                      np.frombuffer(b"".join(t[-8:] for t in tails), "<u8")) for kind, tails in _TAIL_ROWS.items()}


@functools.cache
def _digits4() -> np.ndarray:
    # "0000".."9999" as little-endian words, built by the first step that needs them
    table = np.zeros((10,) * 4 + (8,), np.uint8)
    for k in range(4):  # the k-th digit varies along axis k
        table[..., k] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape((10,) + (1,) * (3 - k))
    return _read_only(table.view("<u8").ravel())


def _digit_words(x: np.ndarray) -> np.ndarray:
    # the 8 ASCII digits of each x < 10^8, zero-padded, as little-endian words
    hi = x // 10 ** 4
    word = _digits4().take(x - hi * 10 ** 4)
    word <<= 32
    word += _digits4().take(hi)
    return word


def _digit_counts(lo: int, m: int) -> np.ndarray:
    # the number of digits of each trial lo..lo+m-1
    width = np.full(m, len(str(lo)), np.uint8)
    for d in range(len(str(lo)), len(str(lo + m - 1))):
        width[10 ** d - lo:] += 1
    return width


def _render_rows(kind: str, lo: int, key: np.ndarray) -> bytearray:
    """Canonical CSV rows of trials lo..lo+m-1, given their m >= 1 _outcome_key values.

    The mirror of _rows_are_canonical: rows end where their summed lengths put them, and the check's words are
    written through its window view, digits first, so the tail words cover what a short trial's digit word adds.
    """
    width = _digit_counts(lo, key.size)
    before, first, last = _TAIL_WORDS[kind]
    to_newline = before.take(key)  # each tail's bytes before its newline
    ends = np.cumsum(to_newline + width + 1, dtype=np.int32) - 1  # each row's newline
    tail = ends - to_newline  # each tail's first byte
    buf = bytearray(int(ends[-1]) + 1)
    win = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))
    trial = np.arange(lo, lo + key.size, dtype=np.uint32 if lo + key.size <= 1 << 32 else np.uint64)
    big = max(10 ** 8 - lo, 0)  # the rows from here on have 9 to 16 digits (no file has 10^16 rows)
    if big < key.size:
        win[tail[big:] - 8] = _digit_words(trial[big:] % 10 ** 8)
        trial[big:] //= 10 ** (width[big:] - 8).astype(np.uint64)  # their first 8 digits
    shift = 64 - 8 * np.minimum(width, 8)  # leaves a word's digits in its low bytes, NUL above them
    win[tail - width] = _digit_words(trial) >> shift
    win[tail] = first.take(key)
    win[ends - 7] = last.take(key)
    return buf


def _differs(windows: np.ndarray, words: np.ndarray, shift=0) -> int:
    # how many windows differ from their words in their low 64 - shift bits, counted in place: the difference is
    # 0 in those bits exactly where they are equal, as a borrow only runs up
    windows -= words
    windows <<= shift
    return np.count_nonzero(windows)


def _rows_are_canonical(buf, kind: str, lo: int, ends: np.ndarray, key: np.ndarray) -> bool:
    """Whether buf up to its newline at ends[-1] (one per _outcome_key value) equals _render_rows(kind, lo, key).

    Each row must start one past the previous newline and be as long as its digits and tail; then 8-byte windows
    must hold _render_rows's words: the tail's first and last 8 bytes, the trial's first 8 digits (fewer, masked)
    at the row's start, and from 9 digits on its last 8 just before the tail.  Differences are counted (subtraction,
    count_nonzero): numpy's comparison and reduction loops would add their code pages to a stage's peak RSS.
    """
    m = key.size
    width = _digit_counts(lo, m)
    before, first, last = _TAIL_WORDS[kind]
    tail = ends - before.take(key)  # each tail's first byte
    start = tail - width
    if start[0] != 0 or np.count_nonzero(start[1:] - 1 - ends[:-1]):
        return False
    # every window now lies inside its own row: one overlapping view of the bytes, read without a copy
    win = np.ndarray((int(ends[-1]) - 6,), "<u8", buf, strides=(1,))
    if _differs(win[tail], first.take(key)) or _differs(win[ends - 7], last.take(key)):
        return False
    trial = np.arange(lo, lo + m, dtype=np.uint32 if lo + m <= 1 << 32 else np.uint64)
    big = max(10 ** 8 - lo, 0)  # the rows from here on have 9 to 16 digits (no file has 10^16 rows)
    if big < m and _differs(win[tail[big:] - 8], _digit_words(trial[big:] % 10 ** 8)):
        return False
    trial[big:] //= 10 ** (width[big:] - 8).astype(np.uint64)  # their first 8 digits
    shift = 64 - 8 * width  # keeps a window's digits: it wraps past 8 digits, whose rows keep all 8 bytes
    shift[big:] = 0
    digits = _digit_words(trial)
    digits >>= shift
    return not _differs(win[start], digits, shift)


_CRLF = int.from_bytes(b"\r\n", "little")
_WORDS = 1 << 16  # byte pairs compared at a time, so the comparison masks stay small


def _crlf_count(data: bytes) -> int:
    # "\r\n" pairs, counted as 2-byte words at even and at odd offsets (no two pairs overlap)
    n = 0
    for offset in (0, 1):
        words = np.frombuffer(data, "<u2", count=(len(data) - offset) // 2, offset=offset)
        for i in range(0, words.size, _WORDS):
            n += int(np.count_nonzero(words[i:i + _WORDS] == _CRLF))
    return n


def _to_lf(data: bytes) -> bytes:
    """data with each CRLF and each lone CR read as LF, but a CR that ends it dropped.

    Whether a final CR ends a line on its own depends on the byte after it.
    """
    if b"\r" not in data:
        return data
    held = data.endswith(b"\r")
    pairs = _crlf_count(data)
    if pairs:
        lf = data.translate(None, b"\r")
        if len(data) - len(lf) == pairs + held:  # each CR but a final one was that of a CRLF
            return lf
    return data[:len(data) - held].replace(b"\r\n", b"\n").replace(b"\r", b"\n")


class RecordReader:
    """The rows of an open records file, checked and yielded one step at a time.

    Iterating yields each step as (lo, codes, s1, s2), the columns of trials
    lo..lo+m-1, while the SHA-256 of the rows and the outcome-count table are
    kept up to date.  Only one step's bytes are held.  After the last step the
    reader answers ``kind``, ``tags``, ``len()``, ``sha256()`` and
    ``outcome_counts()`` as a :class:`RecordBatch` of the same records does,
    so :func:`analyze_records` and :func:`check_report` take either.

    The header is checked and hashed once, out of the first read.  A step is
    the next _STEP lines, or the rest of the file, read with one read of what
    _STEP canonical rows of the file's kind can take (of either kind until
    line 2 has named it), also with CRLF line ends; line ends are mapped to LF
    as they are read (a CR that ends a read waits for the next byte).  Each
    row's outcomes and slots are read back from its newline and its trial is
    taken to be its index, and the step is accepted only if its bytes,
    checked where they lie, are the canonical form; it renders nothing, and
    hashes the bytes it accepts.  Any other step is refused: the line parser
    cites the file's line of its first row that is not canonical.
    """

    def __init__(self, f):
        _reuse_step_memory()
        _digits4()  # built before a step's buffers, so that they do not fragment the heap around it
        self._f = f
        self._buf, self._eof = b"", False  # LF-mapped bytes not yet in a step
        self._held = False  # the last read ended in a CR, which _to_lf dropped
        self._digest = hashlib.sha256()
        self._counts: np.ndarray | None = None  # allocated at the first step, then added to in place
        self.kind: str | None = None
        self.n = 0

    def _fill(self, size: int) -> None:
        # read until the buffer holds `size` bytes or the file ends; a read asks for the missing
        # bytes and one more per row they can hold, for a CRLF file's CRs, so one read fills a
        # step, and the LF-mapped pieces are joined once
        pieces = [self._buf] if self._buf else []
        have = len(self._buf)
        while have < size and not self._eof:
            missing = size - have
            raw = self._f.read(missing + missing // _MIN_ROW + 1)
            self._eof = not raw
            if self._held and not raw.startswith(b"\n"):  # that CR ended a line on its own
                pieces.append(b"\n")
                have += 1
            self._held = raw.endswith(b"\r")
            pieces.append(_to_lf(raw))
            have += len(pieces[-1])
        self._buf = b"".join(pieces)

    def _step_size(self) -> int:
        # the most bytes that the next _STEP canonical rows can take: rows of the file's kind once line 2 has
        # named it, else of either kind
        return _STEP * (len(str(self.n + _STEP - 1)) + _TAIL_WIDTH[self.kind])

    def _step_ends(self) -> np.ndarray:
        # the positions of the newlines in the step's read, at most _STEP of them; int32 positions halve the
        # index arrays of the check
        size = self._step_size()
        self._fill(size)
        body = np.frombuffer(self._buf, np.uint8, count=min(size, len(self._buf)))
        return np.flatnonzero(body == ord("\n"))[:_STEP].astype(np.int32)

    def _canonical_step(self, ends: np.ndarray):
        """(kind, codes, s1, s2) of the step's rows, hashed and counted, if they are canonical; else None."""
        end = int(ends[-1]) + 1 if ends.size else 0
        if not end or (ends.size < _STEP and not (self._eof and end == len(self._buf))):
            return None  # a row runs past the read, or the file ends in a line without a newline
        body = np.frombuffer(self._buf, np.uint8, count=end)
        kind = self.kind if self.n else _KIND_OF_ROW0.get(body[:ends[0] + 1].tobytes())
        if kind is None:
            return None
        # take, as int32 positions slow fancy indexing down; in a short row a read may land in another row or
        # clip to byte 0, which is safe: the check accepts only a key whose rendered rows are the step's bytes
        s2_neg = body.take(ends - 2, mode="clip") == ord("-")
        comma2 = ends - 2 - s2_neg
        s1_neg = body.take(comma2 - 2, mode="clip") == ord("-")
        comma1 = comma2 - 2 - s1_neg
        slots = body.take(comma1 - 3, mode="clip").astype(np.uint16) << 8 | body.take(comma1 - 1, mode="clip")
        codes = _CODE_OF_SLOTS[kind].take(slots)
        if codes.max() == 255:
            return None
        s1, s2 = 1 - 2 * s1_neg.view(np.int8), 1 - 2 * s2_neg.view(np.int8)
        key = _outcome_key(codes, s1, s2)
        if not _rows_are_canonical(self._buf, kind, self.n, ends, key):
            return None
        self._digest.update(memoryview(self._buf)[:end])
        counts = _count_table(len(GEOMETRIES[kind][0]), key)
        if self._counts is None:
            self._counts = np.zeros_like(counts)
        self._counts += counts
        return kind, codes, s1, s2

    def _refuse(self, ends: np.ndarray):
        """Raise the ValidationError that cites the step's first row that is not canonical.

        The whole rows of the step's read are explained first; if they are all canonical, the row after them
        runs past the read or ends the file without a newline, and it is read on to its newline or the end.
        """
        end = int(ends[-1]) + 1 if ends.size else 0
        kind = _parse_lines(self._buf[:end], self.n + 2, self.kind)
        while (stop := self._buf.find(b"\n", end)) < 0 and not self._eof:
            self._fill(2 * len(self._buf))
        _parse_lines(self._buf[end:stop + 1 or None], self.n + 2 + ends.size, kind)

    def __iter__(self):
        self._fill(len(_HEADER_LINE) + self._step_size())  # the header and the first step in one read
        # the header line, or the whole file if it is the header without a newline
        if not self._buf.startswith(_HEADER_LINE) and self._buf != _HEADER_LINE[:-1]:
            raise ValidationError(f"records line 1: expected header {RECORDS_HEADER!r}")
        self._digest.update(_HEADER_LINE)
        self._buf = self._buf[len(_HEADER_LINE):]
        if not self._buf:
            raise ValidationError("records line 2: no trial rows")
        while True:
            ends = self._step_ends()
            if not self._buf:
                return
            self.kind, codes, s1, s2 = self._canonical_step(ends) or self._refuse(ends)
            self._buf = self._buf[int(ends[-1]) + 1:]
            lo, self.n = self.n, self.n + codes.size
            yield lo, codes, s1, s2

    def __len__(self) -> int:
        return self.n

    @property
    def tags(self) -> tuple[str, ...]:
        return GEOMETRIES[self.kind][0]

    def sha256(self) -> str:
        return self._digest.hexdigest()

    def outcome_counts(self) -> np.ndarray:
        """The outcome-count table of the rows read so far, read-only: a view of the table later steps add to."""
        if self._counts is None:
            raise ValidationError("records: no step read yet")
        return _read_only(self._counts)

    @classmethod
    def read(cls, path) -> "RecordReader":
        """Read a records file to its end, as :meth:`RecordBatch.from_csv` does, keeping no columns."""
        with open(path, "rb") as f:
            reader = cls(f)
            for _ in reader:
                pass
        return reader


def _parse_lines(data: bytes, line: int, kind: str | None) -> str | None:
    """The kind of the rows in data if every one is canonical; else a ValidationError citing the first that is not.

    ``data`` holds rows of a records file mapped to LF, the first of them the
    row of trial ``line - 2``.  A row is checked in this order: its ASCII
    bytes, 6 fields, integer fields, outcomes, context and slots, trial, and
    kind, which must be ``kind``, or the first row's if it is None; a row
    that passes them all but is not its canonical rendering (a sign, leading
    zeros, spaces, or no newline at the end of the file) is cited as such.
    """
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = line + data.count(b"\n", 0, exc.start)
        raise ValidationError(f"records line {lineno}: non-ASCII byte") from None
    *rows, last = text.split("\n")  # whole rows, then a last line without a newline, or ""
    pos = 0  # where the row starts in text
    for lineno, row_text in enumerate(rows + [last] if last else rows, start=line):
        parts = row_text.split(",")
        if len(parts) != 6:
            raise ValidationError(f"records line {lineno}: expected 6 fields, got {len(parts)}")
        numbers = (parts[0], *parts[2:])
        try:
            if any("_" in field for field in numbers):  # int() reads "_" separators
                raise ValueError
            trial, sx, sy, v1, v2 = map(int, numbers)
        except ValueError:
            raise ValidationError(f"records line {lineno}: non-integer field") from None
        if v1 not in (-1, 1) or v2 not in (-1, 1):
            raise ValidationError(f"records line {lineno}: outcomes must be +1 or -1")
        row = _ROWS.get((parts[1], sx, sy))
        if row is None:
            raise ValidationError(f"records line {lineno}: unknown context/slot combination")
        if trial != lineno - 2:
            raise ValidationError(f"records line {lineno}: trial {trial} out of order, expected {lineno - 2} "
                                  f"(trials run 0..n-1)")
        if kind is None:
            kind = row[0]
        elif row[0] != kind:
            raise ValidationError(f"records line {lineno}: context/slot combination of another record kind "
                                  f"than line 2")
        canonical = str(trial).encode() + _TAIL_ROWS[kind][4 * row[1] + 2 * (v1 > 0) + (v2 > 0)]
        if not data.startswith(canonical, pos):
            raise ValidationError(f"records line {lineno}: not in canonical form")
        pos += len(canonical)
    return kind


def _column(values, name: str, dtype) -> np.ndarray:
    # a read-only view of a record column as dtype, refused if the cast would change a value
    raw = np.asarray(values)
    with np.errstate(invalid="ignore"):
        col = raw.astype(dtype, copy=False) if raw.dtype.kind in "biuf" else None
    if col is None or not (col is raw or np.array_equal(col, raw)):
        raise ValidationError(f"record column {name} must hold {np.dtype(dtype)} values only")
    return _read_only(col)


class RecordBatch:
    """Trial records as columns: context codes and the two outcomes (cheap at millions of trials).

    A record's index is its position: trials run 0..n-1, so no trial column
    is stored.  The numpy columns are exposed for estimation as read-only
    views of the arrays passed in (no copy), which the caller must not change
    afterwards.  The CSV byte serialization below is the canonical form used
    for hashing and on-disk records; its SHA-256 and its outcome-count table
    are computed at most once per batch.
    """

    def __init__(self, kind: str, codes: np.ndarray, s1: np.ndarray, s2: np.ndarray):
        if kind not in GEOMETRIES:
            raise ValidationError(f"unknown record kind {kind!r}")
        self.kind = kind
        self.tags, self.slots = GEOMETRIES[kind]
        self.codes, self.s1, self.s2 = (_column(col, name, dtype) for col, name, dtype in (
            (codes, "codes", np.uint8), (s1, "s1", np.int8), (s2, "s2", np.int8)))
        if not (self.codes.size == self.s1.size == self.s2.size):
            raise ValidationError("record columns must have equal length")
        if self.codes.size and int(self.codes.max()) >= len(self.tags):
            raise ValidationError(f"context codes of {kind} records must be below {len(self.tags)}")
        for name, col in (("s1", self.s1), ("s2", self.s2)):
            if col.size and (col.min() < -1 or col.max() > 1 or np.count_nonzero(col) < col.size):
                raise ValidationError(f"record column {name} must hold only the outcomes +1 and -1")
        self._sha256: str | None = None
        self._counts: np.ndarray | None = None

    @property
    def trial(self) -> np.ndarray:
        """The trial indices 0..n-1 (read-only)."""
        return _read_only(np.arange(len(self)), np.int64)

    def __len__(self) -> int:
        return self.codes.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecordBatch):
            return NotImplemented
        return (
            self.kind == other.kind
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.s1, other.s1)
            and np.array_equal(self.s2, other.s2)
        )

    def outcome_counts(self) -> np.ndarray:
        """The (n_contexts x 4) table of outcome counts, read-only.

        Row ``code`` counts that context's trials by (s1, s2) in the column
        order (-1, -1), (-1, +1), (+1, -1), (+1, +1); counted only if not yet
        known (``run_experiment`` fills it while it runs).
        """
        if self._counts is None:
            self._counts = _count_table(len(self.tags), _outcome_key(self.codes, self.s1, self.s2))
        return self._counts

    # -- canonical CSV form --

    def to_csv_bytes(self) -> bytes:
        return b"".join((_HEADER_LINE, *_span_rows(self.kind, 0, self.codes, self.s1, self.s2)))

    def sha256(self) -> str:
        """SHA-256 of the canonical CSV (LF line ends), rendered only if not yet known."""
        if self._sha256 is None:
            digest = hashlib.sha256(_HEADER_LINE)
            for chunk in _span_rows(self.kind, 0, self.codes, self.s1, self.s2):
                digest.update(chunk)
            self._sha256 = digest.hexdigest()
        return self._sha256

    def write_csv(self, path) -> None:
        """Write the canonical CSV _STEP rows at a time, hashing it on the way."""
        self._sha256 = _write_csv(path, _span_rows(self.kind, 0, self.codes, self.s1, self.s2))

    @classmethod
    def from_csv(cls, path) -> "RecordBatch":
        """Read a records CSV whose trial column runs 0..n-1.

        Line ends may be LF, CRLF or CR, read as LF, so the hash of a CRLF
        copy is that of the canonical file.  The file is read, checked, hashed
        and counted one step of _STEP rows at a time by :class:`RecordReader`,
        which refuses any row that is not in canonical form, and the steps'
        columns are joined.
        """
        with open(path, "rb") as f:
            reader = RecordReader(f)
            columns = [step[1:] for step in reader]
        batch = cls(reader.kind, *(np.concatenate(col) for col in zip(*columns)))
        batch._sha256, batch._counts = reader.sha256(), reader.outcome_counts()
        return batch


def _span_rows(kind: str, lo: int, codes, s1, s2):
    """The canonical CSV rows of trials lo..lo+m-1 given their columns, in chunks of _STEP rows.

    Each chunk is rendered as it is asked for, so a span of any length adds only one step's buffers.
    """
    _reuse_step_memory()
    for i in range(0, codes.size, _STEP):
        step = slice(i, i + _STEP)
        yield _render_rows(kind, lo + i, _outcome_key(codes[step], s1[step], s2[step]))


def _write_csv(path, chunks) -> str:
    """Write the header, then chunks of canonical rows in trial order, to path as they come; returns its SHA-256."""
    digest = hashlib.sha256(_HEADER_LINE)
    with open(path, "wb") as f:
        f.write(_HEADER_LINE)
        for chunk in chunks:
            f.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


# --- running experiments -------------------------------------------------------------


def make_sampler(config: ExperimentConfig, model=None):
    """Build the trial sampler for a config (optionally with an in-memory model); it holds the config's contexts."""
    contexts = config.context_set()
    kind, arg = parse_mode(config.mode)
    row = _MODES[kind]
    if model is None and arg != row.builtin:
        from .hidden_variables import load_model

        model = load_model(arg)
    if model is None or row.model_type is None:
        return _backend_class(row.sampler)(contexts)
    model_type = _backend_class(row.model_type)
    if not isinstance(model, model_type):
        raise ValidationError(f"{kind} mode needs a {model_type.__name__} model, got {type(model).__name__}")
    return _backend_class(row.model_sampler)(model, contexts)


def run_spans(config: ExperimentConfig, work, model=None, threads: int = 1):
    """A generator of ``work(lo, codes, s1, s2)`` for every span of a run, trials lo..lo+m-1, in trial order.

    ``work`` runs where its span is computed: on the caller's thread on one
    thread, on the pool's workers on more, so a span's arrays are used and
    freed where they were made.  ``threads`` is checked and the sampler built
    when this is called, so a bad thread count, config or model fails before
    the first span is asked for.  The run uses :func:`threads_used` threads,
    no more than the CPUs this process may run on.  The trials are split into
    balanced spans, at least one per thread and at most _CHUNK trials each,
    or at most _STEP trials each on one thread, so a serial run holds one
    step's arrays, not a span's.  A span draws its contexts from the selector
    state its first trial starts at, and its uniforms from the trial indices,
    so neither the split nor the thread pool over the spans can change the
    records.  A span's uniforms are its own, so the sampler's run may
    overwrite them.  With more than one thread, at most 2 x threads spans are
    submitted ahead of the consumer, to the pool that the process's runs on
    that many threads share (:func:`_span_pool`).
    """
    n_threads = threads_used(threads)
    sampler = make_sampler(config, model=model)
    _reuse_step_memory()
    n, k = config.n_trials, len(sampler.contexts)

    def span(lo: int, hi: int):
        codes = context_codes(state_after(config.selector_seed, lo, k), hi - lo, k)
        s1, s2 = sampler.run(codes, *trial_uniforms(config.outcome_seed, lo, hi, n_draws=sampler.draws))
        return work(lo, codes, s1, s2)

    size = _STEP if n_threads == 1 else _CHUNK
    n_spans = min(max(-(-n // size), n_threads), n)
    edges = ((n * i // n_spans, n * (i + 1) // n_spans) for i in range(n_spans))
    if n_threads == 1:
        return (span(lo, hi) for lo, hi in edges)
    return _pooled(span, edges, n_threads)


@functools.lru_cache(maxsize=1)
def _span_pool(n_threads: int):
    """The pool of n_threads workers that pooled runs share: made by the first run on n_threads, kept for the next.

    A run on another count replaces it; a run that still holds the old pool
    keeps it until that run ends, and its idle workers end once it is
    collected.  A forked child forgets the pool, whose workers it does not have.
    """
    from concurrent.futures import ThreadPoolExecutor  # imported only by runs on more than one thread

    return ThreadPoolExecutor(max_workers=n_threads, thread_name_prefix="bellsim-span")


if hasattr(os, "register_at_fork"):  # not on Windows
    os.register_at_fork(after_in_child=_span_pool.cache_clear)


def _pooled(span, edges, n_threads: int):
    # yield span(lo, hi) for each (lo, hi) of edges in order, computed on the shared pool of n_threads workers
    # at most 2 x n_threads spans ahead of the consumer; a run abandoned midway (closed, or its consumer or a span
    # raised) cancels the spans not yet started and leaves those running to finish on the pool unread
    pool = _span_pool(n_threads)
    pending = deque()
    try:
        for lo, hi in edges:
            if len(pending) == 2 * n_threads:
                yield pending.popleft().result()
            pending.append(pool.submit(span, lo, hi))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def run_experiment(config: ExperimentConfig, model=None, threads: int = 1) -> RecordBatch:
    """Run all trials of an experiment; bit-identical for identical seeds.

    Each span of :func:`run_spans` is written into the batch's columns and
    counted by the thread that computes it, and the sum of the spans' count
    tables becomes its :meth:`RecordBatch.outcome_counts`.
    """
    n, k = config.n_trials, len(GEOMETRIES[config.geometry][0])
    columns = (np.empty(n, dtype=np.uint8), np.empty(n, dtype=np.int8), np.empty(n, dtype=np.int8))

    def store(lo: int, *span) -> np.ndarray:
        hi = lo + span[0].size
        for column, values in zip(columns, span):
            column[lo:hi] = values
        return _count_table(k, _outcome_key(*(column[lo:hi] for column in columns)))

    counts = 0
    for table in run_spans(config, store, model, threads):
        counts = counts + table
    batch = RecordBatch(config.geometry, *columns)
    batch._counts = _read_only(counts, np.int64)
    return batch


def write_run(config: ExperimentConfig, path, threads: int = 1) -> str:
    """Run an experiment straight into a records CSV, one span at a time; returns its SHA-256.

    The file holds exactly the bytes ``run_experiment(config).write_csv(path)``
    writes.  Each span is rendered into its chunks of _STEP rows where it is
    computed, and this thread hashes and writes them in trial order, so no
    more than the spans in flight are held at once.
    """
    spans = run_spans(config, lambda *span: list(_span_rows(config.geometry, *span)), threads=threads)
    _digits4()  # built here, after the step memory is set and before any span, so that no worker builds it
    try:
        return _write_csv(path, itertools.chain.from_iterable(spans))
    finally:
        spans.close()  # a write that failed leaves no span queued on the pool


# --- estimation and inequality reports --------------------------------------------------


_VERDICTS = ("violation", "consistent", "inconclusive")

# report.json's layout, one table per block: each key in print order with its type.  The record types below are
# built from these tables, so each field is named once; writing, type checks and the refusal of any other key all
# read them too
_REPORT_LAYOUT = {"mode": _STRING, "records_sha256": _STRING, "n_trials": _INTEGER, "sigma_threshold": _POSITIVE,
                  "estimates": _OBJECT, "bell": _OBJECT}
_ESTIMATE_LAYOUT = {"n": _INTEGER, "mean": _NUMBER, "stderr": _NUMBER}
_BELL_LAYOUT = {"quantity": _STRING, "value": _NUMBER, "bound": _NUMBER, "stderr": _NUMBER,
                "sigma_excess": _nullable(_NUMBER),
                "verdict": _JSONType(f"one of {', '.join(_VERDICTS)}", lambda x: x in _VERDICTS)}

# named tuples, so ``report._replace(...)`` gives an edited copy
CorrelatorEstimate = namedtuple("CorrelatorEstimate", ("context", *_ESTIMATE_LAYOUT))
CorrelatorEstimate.__doc__ = "Sample mean of s1*s2 in one context, with its plug-in standard error: an estimate's keys."
BellReport = namedtuple("BellReport", (*_BELL_LAYOUT, "sigma_threshold"))
BellReport.__doc__ = "An inequality evaluation, the combined quantity against its bound: the bell block's keys."
AnalysisReport = namedtuple("AnalysisReport", _REPORT_LAYOUT)
AnalysisReport.__doc__ = "Per-context estimates plus the inequality verdict for one records file: report.json's keys."


def estimate_correlators(records: "RecordBatch | RecordReader") -> dict[str, CorrelatorEstimate]:
    """Per-context sample means and standard errors of the outcome product.

    Every context of the records' geometry must hold at least two trials.
    The estimates read the batch's table of outcome counts; a sum of +-1
    values is exact in float64, so the mean (n_same - n_diff) / n is the
    sample mean of s1*s2 to the last bit.
    """
    counts = records.outcome_counts().tolist()
    out: dict[str, CorrelatorEstimate] = {}
    for tag, (both_neg, neg_pos, pos_neg, both_pos) in zip(records.tags, counts):
        n = both_neg + neg_pos + pos_neg + both_pos
        if n < 2:
            raise InsufficientDataError(f"context {tag}: {n} record(s) (need >= 2)")
        mean = (both_neg + both_pos - neg_pos - pos_neg) / n
        stderr = math.sqrt(max(0.0, 1.0 - mean * mean) / n)
        out[tag] = CorrelatorEstimate(tag, n, mean, stderr)
    return out


# geometry -> (quantity name, bound, its value from the correlators by context): the inequality its records test
INEQUALITIES = {
    "temporal": ("temporal_bell", 1.0, lambda p: abs(p["AB"] - p["AC"]) + p["BC"]),
    "chsh": ("chsh", 2.0, lambda p: abs(p["AB"] - p["ABp"]) + abs(p["ApBp"] + p["ApB"])),
}


def _quantity(kind: str, estimates, k: float) -> BellReport:
    # kind's inequality judged at k standard errors; the estimates (a mapping by context, or a
    # sequence of them) must cover every context of kind
    name, bound, value_of = INEQUALITIES[kind]
    est = estimates if isinstance(estimates, Mapping) else {e.context: e for e in estimates}
    tags = GEOMETRIES[kind][0]
    for tag in tags:
        if tag not in est:
            raise InsufficientDataError(f"missing correlator estimate for context {tag}")
    value = value_of({tag: est[tag].mean for tag in tags})
    stderr = math.sqrt(sum(est[tag].stderr ** 2 for tag in tags))
    excess = (value - bound) / stderr if stderr > 0.0 else math.inf if value > bound else -math.inf
    verdict = "violation" if excess >= k else "consistent" if value <= bound else "inconclusive"
    return BellReport(name, value, bound, stderr, excess, verdict, k)


def bell_quantity(estimates, sigma_threshold: float = 5.0) -> BellReport:
    """|P(a,b) - P(a,c)| + P(b,c) against the determinism bound 1."""
    return _quantity("temporal", estimates, sigma_threshold)


def chsh_quantity(estimates, sigma_threshold: float = 5.0) -> BellReport:
    """|P(a,b) - P(a,b')| + |P(a',b') + P(a',b)| against the bound 2."""
    return _quantity("chsh", estimates, sigma_threshold)


# --- analysis report document -------------------------------------------------------------


def analyze_records(records: "RecordBatch | RecordReader", mode: str | None = None,
                    sigma_threshold: float = 5.0) -> AnalysisReport:
    """Estimate all correlators of a record batch (or a reader read to its end) and evaluate its inequality."""
    check_sigma_threshold(sigma_threshold)
    if mode is None:
        mode = records.kind
    elif records.kind not in (expected := read_label(mode)[0]):
        raise ValidationError(f"mode {mode!r} implies {' or '.join(expected)} records, got {records.kind}")
    estimates = estimate_correlators(records)
    report = _quantity(records.kind, estimates, sigma_threshold)
    return AnalysisReport(mode, records.sha256(), len(records), sigma_threshold, estimates, report)


def _written(block, layout: dict) -> dict:
    return {key: _json_float(getattr(block, key)) if kind.number else getattr(block, key)
            for key, kind in layout.items()}


def _read(doc: Mapping, layout: dict, block: str, document: str = "analysis report") -> dict:
    # the values of one block of a document, named by block, each checked against its type; a missing key: KeyError
    if not isinstance(doc, Mapping):
        raise ValidationError(f"malformed {document}: {block} must be a JSON object, got {type(doc).__name__}")
    for key, kind in layout.items():
        if not kind.test(doc[key]):
            raise ValidationError(f"malformed {document}: {key!r} must be {kind.must_be}, got {doc[key]!r}")
    if unknown := sorted(doc.keys() - layout.keys()):
        raise ValidationError(f"malformed {document}: unknown key {unknown[0]!r}")
    return {key: float(doc[key]) if kind.number and doc[key] is not None else doc[key]
            for key, kind in layout.items()}


def report_to_jsonable(report: AnalysisReport) -> dict:
    estimates = {tag: _written(e, _ESTIMATE_LAYOUT) for tag, e in report.estimates.items()}
    return {**_written(report, _REPORT_LAYOUT), "estimates": estimates, "bell": _written(report.bell, _BELL_LAYOUT)}


def check_report(report: AnalysisReport, records: "RecordBatch | RecordReader") -> None:
    """Raise IntegrityError unless the records give every field of the report but the backend its mode names.

    The records hash is compared first, so records of another run fail on it before they are analysed;
    then the mode label (a ValidationError if it is no mode and no geometry) must allow the records'
    geometry.  Then the records are analysed again at the report's own sigma_threshold, and every
    field is compared, in document order.
    """
    if records.sha256() != report.records_sha256:
        raise IntegrityError(f"records hash {records.sha256()[:12]}... does not match the report's "
                             f"{report.records_sha256[:12]}...")
    if records.kind not in (geometries := read_label(report.mode, "malformed analysis report: 'mode'")[0]):
        raise IntegrityError(f"report mode {report.mode!r} implies {' or '.join(geometries)} records, "
                             f"got {records.kind}")
    saved = report_to_jsonable(report)
    again = report_to_jsonable(analyze_records(records, report.mode, report.sigma_threshold))
    for key, value in saved.items():
        if value != again[key]:
            raise IntegrityError(f"report {key} {value!r} does not match its records, which give {again[key]!r}")


def report_from_jsonable(doc: Mapping) -> AnalysisReport:
    try:
        top = _read(doc, _REPORT_LAYOUT, "it")
        estimates = {tag: CorrelatorEstimate(tag, **_read(e, _ESTIMATE_LAYOUT, f"estimate {tag!r}"))
                     for tag, e in top["estimates"].items()}
        bell = _read(top["bell"], _BELL_LAYOUT, "'bell'")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed analysis report: {exc!r}") from None
    if bell["sigma_excess"] is None:  # null where it is infinite
        bell["sigma_excess"] = math.inf if bell["verdict"] == "violation" else -math.inf
    bell = BellReport(**bell, sigma_threshold=top["sigma_threshold"])
    return AnalysisReport(**{**top, "estimates": estimates, "bell": bell})


def write_report(report: AnalysisReport, path) -> None:
    write_json(report_to_jsonable(report), path)


def load_report(path) -> AnalysisReport:
    return report_from_jsonable(read_json(path, "report"))
