"""Deterministic hidden-variable backends.

Two model families:

* non-contextual models draw one initial condition per trial from a single
  distribution and answer every measurement slot from it.  Finite models
  (explicit weight/response tables) support exact correlator evaluation and
  provably satisfy the temporal bound |P(a,b)-P(a,c)| + P(b,c) <= 1 and the
  CHSH bound of 2; the continuous sign model (uniform axis on the sphere,
  response = sign of the projection) is sampled instead and saturates the
  temporal bound at the optimal geometry.

* contextual ("conspiracy") models attach a separate distribution to each
  measurement context.  The built-in qm-mimic model draws outcome pairs with
  joint probability (1 + s1*s2*x.y)/4, reproducing the quantum correlator
  x.y per context, which defeats the inequality derivation.

Responses key on the measurement slot, never on the direction vector; the
direction enters only through the experiment's fixed slot -> direction
correspondence.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .directions import Direction3, angle_between
from .errors import UnsupportedOperationError, ValidationError
from .quantum import _signs
from .selector import ContextSet, MeasurementContext

WEIGHT_TOL = 1e-12
TWO_PI = 2.0 * math.pi

SIGN_MODEL_NAME = "sign-model"
QM_MIMIC_NAME = "qm-mimic"


class FiniteHVModel:
    """Non-contextual model over a finite initial-condition space.

    weights[i] is the probability of initial condition i; responses[i, k]
    is its predetermined outcome (+1/-1) at measurement slot k+1.  Tables
    carry 3 slots for temporal runs or 4 for CHSH runs.
    """

    def __init__(self, weights, responses):
        try:
            w, r = np.asarray(weights), np.asarray(responses)
        except ValueError:  # ragged nesting
            raise ValidationError("weights and responses must be regular tables of numbers") from None
        if w.dtype.kind not in "iuf":
            raise ValidationError("weights must be real numbers")
        if r.dtype.kind not in "iuf":
            raise ValidationError("responses must be exactly +1 or -1")
        w = w.astype(np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("weights must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite numbers")
        if np.any(w < 0.0):
            raise ValidationError("weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValidationError(f"weights must sum to 1 (got {total!r})")
        if r.ndim != 2 or r.shape[0] != w.size:
            raise ValidationError("responses must be one row of slot outcomes per weight")
        if r.shape[1] not in (3, 4):
            raise ValidationError("response tables must cover 3 (temporal) or 4 (chsh) slots")
        if not np.all(np.abs(r) == 1):
            raise ValidationError("responses must be exactly +1 or -1")
        self.weights = w
        self.responses = r.astype(np.int8)
        self._cum = np.cumsum(w)

    @property
    def n_lambda(self) -> int:
        return self.weights.size

    @property
    def n_slots(self) -> int:
        return self.responses.shape[1]

    def sample_index(self, u: float) -> int:
        """Index of the initial condition selected by one uniform draw."""
        idx = int(np.searchsorted(self._cum, u, side="right"))
        return min(idx, self.n_lambda - 1)

    def response(self, index: int, slot: int) -> int:
        return int(self.responses[index, slot - 1])


class SignModel:
    """Continuous non-contextual model: an axis drawn uniformly on the unit
    sphere answers slot k with the sign of its projection on that slot's
    direction."""


class QmMimicModel:
    """Contextual joint-outcome sampler reproducing the quantum correlator
    x.y in every context (the initial condition is the outcome pair itself)."""


class ContextualFiniteModel:
    """Finite model with a separate weight/response table per context."""

    def __init__(self, per_context: dict[str, FiniteHVModel]):
        if not per_context:
            raise ValidationError("contextual model needs at least one context table")
        self.per_context = dict(per_context)

    def for_tag(self, tag: str) -> FiniteHVModel:
        try:
            return self.per_context[tag]
        except KeyError:
            raise ValidationError(f"contextual model has no table for context {tag!r}") from None


# --- sphere sampling shared by scalar and vectorized sign-model paths ---------


def _sphere_axis(u1: np.ndarray, u2: np.ndarray):
    """Uniform point on the unit sphere from two uniforms (z = 2u-1, azimuth)."""
    c = 2.0 * u1 - 1.0
    r = np.sqrt(np.maximum(1.0 - c * c, 0.0))
    phi = TWO_PI * u2
    return r * np.cos(phi), r * np.sin(phi), c


def _sign_response(lx, ly, lz, d: Direction3):
    dots = lx * d.x + ly * d.y + lz * d.z
    return np.where(dots >= 0.0, 1, -1).astype(np.int8)


# --- trial sampling ------------------------------------------------------------


def hv_trial(model, context: MeasurementContext, u1: float, u2: float) -> tuple[int, int]:
    """One trial of a non-contextual model in the given context.

    The initial condition is drawn once and answers both slots; u2 is only
    consumed by the continuous sign model (its sphere point needs two
    uniforms).
    """
    if isinstance(model, FiniteHVModel):
        idx = model.sample_index(u1)
        return model.response(idx, context.slot_x), model.response(idx, context.slot_y)
    if isinstance(model, SignModel):
        # length-1 arrays so the draw goes through the very same ufunc
        # loops as the vectorized runner (bit-identical trigonometry)
        lx, ly, lz = _sphere_axis(np.array([u1]), np.array([u2]))
        s1 = _sign_response(lx, ly, lz, context.dir_x)
        s2 = _sign_response(lx, ly, lz, context.dir_y)
        return int(s1[0]), int(s2[0])
    raise ValidationError(f"hv_trial does not accept models of type {type(model).__name__}")


def _mimic_p_same(context: MeasurementContext) -> float:
    v = context.dir_x.dot(context.dir_y)
    return min(1.0, max(0.0, (1.0 + v) / 2.0))


def conspiracy_trial(model, context: MeasurementContext, u1: float, u2: float) -> tuple[int, int]:
    """One trial of a contextual model: the distribution depends on the context."""
    if isinstance(model, ContextualFiniteModel):
        sub = model.for_tag(context.tag)
        idx = sub.sample_index(u1)
        return sub.response(idx, context.slot_x), sub.response(idx, context.slot_y)
    if isinstance(model, QmMimicModel):
        s1 = 1 if u1 < 0.5 else -1
        s2 = s1 if u2 < _mimic_p_same(context) else -s1
        return s1, s2
    raise ValidationError(f"conspiracy_trial does not accept models of type {type(model).__name__}")


# --- exact evaluation (finite models only) --------------------------------------


def exact_correlator(model: FiniteHVModel, slot_x: int, slot_y: int) -> float:
    """P(x,y) = sum_i w_i * S(i, slot_x) * S(i, slot_y), exact finite sum."""
    if isinstance(model, SignModel):
        raise UnsupportedOperationError("exact sums are only defined for finite models")
    if not isinstance(model, FiniteHVModel):
        raise ValidationError(f"expected a finite model, got {type(model).__name__}")
    if max(slot_x, slot_y) > model.n_slots:
        raise ValidationError(f"model has {model.n_slots} slots, context uses slot {max(slot_x, slot_y)}")
    prod = model.responses[:, slot_x - 1].astype(np.float64) * model.responses[:, slot_y - 1]
    return float(model.weights @ prod)


def exact_temporal_correlators(model: FiniteHVModel) -> tuple[float, float, float]:
    """The three consecutive-measurement correlators P(a,b), P(a,c), P(b,c)."""
    return (
        exact_correlator(model, 1, 2),
        exact_correlator(model, 1, 3),
        exact_correlator(model, 2, 3),
    )


def exact_chsh_correlators(model: FiniteHVModel) -> tuple[float, float, float, float]:
    """P(a,b), P(a,b'), P(a',b), P(a',b') for a 4-slot finite model."""
    return (
        exact_correlator(model, 1, 3),
        exact_correlator(model, 1, 4),
        exact_correlator(model, 2, 3),
        exact_correlator(model, 2, 4),
    )


def sign_model_correlator(dir_x: Direction3, dir_y: Direction3) -> float:
    """Closed-form sign-model correlator: 1 - 2*theta/pi for angle theta."""
    return 1.0 - 2.0 * angle_between(dir_x, dir_y) / math.pi


# --- generators and file format --------------------------------------------------


def random_finite_model(seed: int, n_lambda: int, n_slots: int = 3) -> FiniteHVModel:
    """Random normalized weights and random +-1 response tables, reproducible."""
    if n_lambda < 1:
        raise ValidationError(f"n_lambda must be >= 1, got {n_lambda}")
    if n_slots not in (3, 4):
        raise ValidationError(f"n_slots must be 3 or 4, got {n_slots}")
    rng = np.random.default_rng(seed)
    raw = rng.random(n_lambda) + 1e-9
    weights = raw / raw.sum()
    responses = rng.integers(0, 2, size=(n_lambda, n_slots), dtype=np.int8) * 2 - 1
    return FiniteHVModel(weights, responses)


_CONTEXT_FILE_KEYS = {"ab": "AB", "ac": "AC", "bc": "BC"}


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _finite_from_jsonable(doc, where: str) -> FiniteHVModel:
    entries = doc.get("lambdas")
    if not isinstance(entries, list) or not entries:
        raise ValidationError(f"{where}: 'lambdas' must be a non-empty list")
    weights, responses = [], []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "weight" not in entry or "responses" not in entry:
            raise ValidationError(f"{where}: lambdas[{i}] needs 'weight' and 'responses'")
        weight, row = entry["weight"], entry["responses"]
        if not _is_real(weight):
            raise ValidationError(f"{where}: lambdas[{i}] 'weight' must be a number, got {weight!r}")
        if not isinstance(row, list) or not all(_is_real(s) and s in (1, -1) for s in row):
            raise ValidationError(f"{where}: lambdas[{i}] 'responses' must be a list of +1/-1, got {row!r}")
        weights.append(weight)
        responses.append(row)
    lengths = {len(r) for r in responses}
    if len(lengths) != 1:
        raise ValidationError(f"{where}: all response lists must have the same length")
    try:
        return FiniteHVModel(weights, responses)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def model_from_jsonable(doc):
    """Build a finite or contextual model from its JSON document form."""
    if not isinstance(doc, dict):
        raise ValidationError("model document must be a JSON object")
    if "lambdas" in doc:
        return _finite_from_jsonable(doc, "model")
    if set(_CONTEXT_FILE_KEYS) <= set(doc):
        per_context = {
            tag: _finite_from_jsonable(doc[key], f"context {key!r}")
            for key, tag in _CONTEXT_FILE_KEYS.items()
        }
        if {m.n_slots for m in per_context.values()} != {3}:
            raise ValidationError("contextual tables must cover the 3 temporal slots")
        return ContextualFiniteModel(per_context)
    raise ValidationError("model document needs either 'lambdas' or context blocks 'ab'/'ac'/'bc'")


def model_to_jsonable(model) -> dict:
    if isinstance(model, FiniteHVModel):
        return {
            "lambdas": [
                {"weight": float(w), "responses": [int(s) for s in row]}
                for w, row in zip(model.weights, model.responses)
            ]
        }
    if isinstance(model, ContextualFiniteModel):
        return {
            key: model_to_jsonable(model.for_tag(tag))
            for key, tag in _CONTEXT_FILE_KEYS.items()
        }
    raise ValidationError(f"cannot serialize models of type {type(model).__name__}")


def load_model(path):
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model file {path}: invalid JSON ({exc})") from None
    return model_from_jsonable(doc)


def write_model(model, path) -> None:
    Path(path).write_text(json.dumps(model_to_jsonable(model), indent=2) + "\n", encoding="utf-8")


# --- per-context samplers used by the experiment runner ---------------------------
#
# A sampler's tables are built in __init__ and only read by run, which the
# runner calls from several threads at once.


class _BucketTables:
    """Outcome lookup of finite models, one table per context, by one search per trial.

    The sorted union of all contexts' cumulative weights cuts [0, 1) into
    buckets; no threshold lies inside a bucket, so a bucket's lower edge
    selects the same initial condition as every u in it, in every context.
    """

    def __init__(self, models, slots):
        self.union = np.unique(np.concatenate([m._cum for m in models]))
        lower = np.concatenate(([-np.inf], self.union))  # bucket b holds union[b-1] <= u < union[b]
        self.n_buckets = lower.size
        s1, s2 = [], []
        for m, (sx, sy) in zip(models, slots):
            idx = np.minimum(np.searchsorted(m._cum, lower, side="right"), m.n_lambda - 1)
            s1.append(m.responses[idx, sx - 1])
            s2.append(m.responses[idx, sy - 1])
        self.s1 = np.concatenate(s1)
        self.s2 = np.concatenate(s2)

    def sample(self, codes: np.ndarray, u1: np.ndarray):
        key = np.searchsorted(self.union, u1, side="right")
        key += codes * np.intp(self.n_buckets)
        return self.s1.take(key), self.s2.take(key)


class FiniteModelSampler:
    """Vectorized trials of a finite non-contextual model bound to a context set."""

    def __init__(self, model: FiniteHVModel, contexts: ContextSet):
        max_slot = max(s for pair in contexts.slots for s in pair)
        if model.n_slots < max_slot:
            raise ValidationError(
                f"{contexts.kind} geometry needs {max_slot}-slot response tables, "
                f"model has {model.n_slots}"
            )
        self.model = model
        self.contexts = contexts
        self._tables = _BucketTables([model] * len(contexts), contexts.slots)

    def trial(self, code: int, u1: float, u2: float) -> tuple[int, int]:
        return hv_trial(self.model, self.contexts[code], u1, u2)

    def run(self, codes: np.ndarray, u1: np.ndarray, u2: np.ndarray):
        return self._tables.sample(codes, u1)

    def analytic_correlator(self, code: int) -> float:
        sx, sy = self.contexts.slots[code]
        return exact_correlator(self.model, sx, sy)


class SignModelSampler:
    """Vectorized trials of the continuous sign model.

    Each trial's axis is projected once on every slot direction, with the
    scalar path's float operations; the signs, packed into bits after the
    context code, index the outcome tables.
    """

    def __init__(self, contexts: ContextSet):
        self.model = SignModel()
        self.contexts = contexts
        n_slots = len(contexts.directions)
        key = np.arange(len(contexts) << n_slots)
        code, bits = key >> n_slots, key & ((1 << n_slots) - 1)
        sx, sy = (np.array(col)[code] for col in zip(*contexts.slots))
        self._s1 = _signs((bits >> (sx - 1)) & 1)
        self._s2 = _signs((bits >> (sy - 1)) & 1)

    def trial(self, code: int, u1: float, u2: float) -> tuple[int, int]:
        return hv_trial(self.model, self.contexts[code], u1, u2)

    def run(self, codes: np.ndarray, u1: np.ndarray, u2: np.ndarray):
        lx, ly, lz = _sphere_axis(u1, u2)
        key = codes << np.uint8(len(self.contexts.directions))
        for k, d in enumerate(self.contexts.directions):
            key |= (lx * d.x + ly * d.y + lz * d.z >= 0.0).view(np.uint8) << np.uint8(k)
        return self._s1.take(key), self._s2.take(key)

    def analytic_correlator(self, code: int) -> float:
        ctx = self.contexts[code]
        return sign_model_correlator(ctx.dir_x, ctx.dir_y)


class ContextualModelSampler:
    """Vectorized trials of a per-context finite model (temporal geometry)."""

    def __init__(self, model: ContextualFiniteModel, contexts: ContextSet):
        if contexts.kind != "temporal":
            raise ValidationError("contextual models are defined for the temporal contexts only")
        self.model = model
        self.contexts = contexts
        self._subs = [model.for_tag(tag) for tag in contexts.tags]
        self._tables = _BucketTables(self._subs, contexts.slots)

    def trial(self, code: int, u1: float, u2: float) -> tuple[int, int]:
        return conspiracy_trial(self.model, self.contexts[code], u1, u2)

    def run(self, codes: np.ndarray, u1: np.ndarray, u2: np.ndarray):
        return self._tables.sample(codes, u1)

    def analytic_correlator(self, code: int) -> float:
        sx, sy = self.contexts.slots[code]
        return exact_correlator(self._subs[code], sx, sy)


class QmMimicSampler:
    """Vectorized trials of the built-in quantum-mimicking contextual sampler."""

    def __init__(self, contexts: ContextSet):
        self.model = QmMimicModel()
        self.contexts = contexts
        self._p_same = np.array([_mimic_p_same(ctx) for ctx in contexts.contexts])

    def trial(self, code: int, u1: float, u2: float) -> tuple[int, int]:
        return conspiracy_trial(self.model, self.contexts[code], u1, u2)

    def run(self, codes: np.ndarray, u1: np.ndarray, u2: np.ndarray):
        s1 = _signs(u1 < 0.5)
        return s1, np.where(u2 < self._p_same.take(codes), s1, -s1)

    def analytic_correlator(self, code: int) -> float:
        ctx = self.contexts[code]
        return ctx.dir_x.dot(ctx.dir_y)
