"""Deterministic hidden-variable backends.

Two model families:

* non-contextual models draw one initial condition per trial from a single
  distribution and answer every measurement slot from it.  Finite models
  (explicit weight/response tables) support exact correlator evaluation and
  provably satisfy the temporal bound |P(a,b)-P(a,c)| + P(b,c) <= 1 and the
  CHSH bound of 2; the continuous sign model (uniform axis on the sphere,
  response = sign of the projection) is sampled instead and saturates the
  temporal bound at every coplanar triple with b between a and c.

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

from .directions import angle_between
from .errors import ValidationError
from .quantum import _freeze, _signs
from .selector import ContextSet

WEIGHT_TOL = 1e-12
TWO_PI = 2.0 * math.pi

# cells of the finite samplers' bucket grid; a power of two, so that scaling a uniform by it is exact
_GRID = 1 << 12

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
        _freeze(self.weights, self.responses, self._cum)

    @property
    def n_lambda(self) -> int:
        return self.weights.size

    @property
    def n_slots(self) -> int:
        return self.responses.shape[1]


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


# --- exact evaluation (finite models only) --------------------------------------


def exact_correlator(model: FiniteHVModel, slot_x: int, slot_y: int) -> float:
    """P(x,y) = sum_i w_i * S(i, slot_x) * S(i, slot_y), exact finite sum."""
    if not isinstance(model, FiniteHVModel):
        raise ValidationError(f"expected a finite model, got {type(model).__name__}")
    if max(slot_x, slot_y) > model.n_slots:
        raise ValidationError(f"model has {model.n_slots} slots, context uses slot {max(slot_x, slot_y)}")
    prod = model.responses[:, slot_x - 1].astype(np.float64) * model.responses[:, slot_y - 1]
    return float(model.weights @ prod)


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
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be a JSON object, got {type(doc).__name__}")
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


def read_json(path, what: str):
    """The JSON document in a UTF-8 file; anything else is a ValidationError naming the file as ``what``."""
    data = Path(path).read_bytes()
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{what} file {path}: invalid JSON ({exc})") from None


def write_json(doc, path) -> None:
    """Write a JSON document as bellsim writes every JSON file: 2-space indent, final newline."""
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_model(path):
    return model_from_jsonable(read_json(path, "model"))


def write_model(model, path) -> None:
    write_json(model_to_jsonable(model), path)


# --- per-context samplers used by the experiment runner ---------------------------
#
# A sampler is a backend.  Its tables are built in __init__ and only read by
# run, which the runner calls from several threads at once.  Its trial method
# is the per-trial scalar reference that run matches bit for bit, and its
# analytic_correlator the exact correlator.  run and trial take uniforms in
# [0, 1), as selector.trial_uniforms gives them.


class _FiniteSampler:
    """Finite models, one per context, sampled by one table lookup per trial.

    The sorted union of all contexts' cumulative weights cuts [0, 1) into
    buckets; no threshold lies inside a bucket, so a bucket's lower edge
    selects the same initial condition as every u in it, in every context.

    A trial's bucket, the number of thresholds at or below u1, is the count
    at or below the lower edge of u1's cell in a grid of _GRID equal cells
    (u1 * _GRID is exact), plus one compare per threshold inside the cell.
    So a trial costs T compare passes, T the most thresholds in one cell: at
    most one per context if every weight is at least 1/_GRID, at worst all.
    """

    draws = 1  # uniforms per trial that run reads

    def __init__(self, subs: list[FiniteHVModel], contexts: ContextSet):
        self.contexts = contexts
        self._subs = subs
        union = np.unique(np.concatenate([m._cum for m in subs]))
        lower = np.concatenate(([-np.inf], union))  # bucket b holds union[b-1] <= u < union[b]
        self._n_buckets = lower.size
        s1, s2 = [], []
        for m, (sx, sy) in zip(subs, contexts.slots):
            idx = np.minimum(np.searchsorted(m._cum, lower, side="right"), m.n_lambda - 1)
            s1.append(m.responses[idx, sx - 1])
            s2.append(m.responses[idx, sy - 1])
        self._s1 = np.concatenate(s1)
        self._s2 = np.concatenate(s2)
        # _base[cell]: thresholds at or below the cell's lower edge; _inner[j, cell]: its j-th inside, or inf
        self._base = np.searchsorted(union, np.arange(_GRID) / _GRID, side="right")
        cells = (union * _GRID).astype(np.intp)
        inside = (union > 0.0) & (union < 1.0) & (cells != union * _GRID)
        cells, thresholds = cells[inside], union[inside]
        rank = np.arange(cells.size) - np.searchsorted(cells, cells)  # the threshold's place in its cell
        self._inner = np.full((rank.max() + 1 if rank.size else 0, _GRID), np.inf)
        self._inner[rank, cells] = thresholds
        _freeze(self._s1, self._s2, self._base, self._inner)

    def _bucket(self, u1: np.ndarray) -> np.ndarray:
        """The bucket of each u1 in [0, 1): np.searchsorted(union, u1, side="right"), in T + 1 lookups."""
        cell = (u1 * _GRID).astype(np.intp)
        key = self._base.take(cell)
        for row in self._inner:
            key += u1 >= row.take(cell)
        return key

    def _sample(self, codes: np.ndarray, u1: np.ndarray):
        key = self._bucket(u1)
        key += codes * np.intp(self._n_buckets)
        return self._s1.take(key), self._s2.take(key)

    def trial(self, code: int, u1: float, u2: float) -> tuple[int, int]:
        # the initial condition selected by u1, then its responses at the context's two slots
        sub, (sx, sy) = self._subs[code], self.contexts.slots[code]
        idx = min(int(np.searchsorted(sub._cum, u1, side="right")), sub.n_lambda - 1)
        return int(sub.responses[idx, sx - 1]), int(sub.responses[idx, sy - 1])

    def analytic_correlator(self, code: int) -> float:
        sx, sy = self.contexts.slots[code]
        return exact_correlator(self._subs[code], sx, sy)


class FiniteModelSampler(_FiniteSampler):
    """Vectorized trials of a finite non-contextual model bound to a context set."""

    def __init__(self, model: FiniteHVModel, contexts: ContextSet):
        if model.n_slots < len(contexts.directions):
            raise ValidationError(
                f"{contexts.kind} geometry needs {len(contexts.directions)}-slot response tables, "
                f"model has {model.n_slots}"
            )
        super().__init__([model] * len(contexts), contexts)

    def run(self, codes: np.ndarray, u1: np.ndarray, u2: np.ndarray | None = None):
        return self._sample(codes, u1)


class ContextualModelSampler(_FiniteSampler):
    """Vectorized trials of a per-context finite model (temporal geometry)."""

    def __init__(self, model: ContextualFiniteModel, contexts: ContextSet):
        if contexts.kind != "temporal":
            raise ValidationError("contextual models are defined for the temporal contexts only")
        super().__init__([model.for_tag(tag) for tag in contexts.tags], contexts)

    def run(self, codes: np.ndarray, u1: np.ndarray, u2: np.ndarray | None = None):
        return self._sample(codes, u1)


def _sphere_axis(u1: np.ndarray, u2: np.ndarray, with_y: bool = True):
    """Uniform point on the unit sphere from two uniforms (z = 2u-1, azimuth);
    the y component is None when not asked for."""
    c = 2.0 * u1 - 1.0
    r = np.sqrt(np.maximum(1.0 - c * c, 0.0))
    phi = TWO_PI * u2
    return r * np.cos(phi), r * np.sin(phi) if with_y else None, c


class SignModelSampler:
    """Trials of the continuous sign model: an axis drawn uniformly on the unit
    sphere answers each slot with the sign of its projection on that slot's
    direction.

    run projects each trial's axis once on every slot direction, with the
    float operations of trial; the signs, packed into bits after the context
    code, index the outcome tables.  A projection term whose direction
    component is exactly 0 is left out: the axis is finite, so the term is
    +-0, and adding +-0 cannot change the ``>= 0`` test.
    """

    draws = 2  # uniforms per trial that run reads

    def __init__(self, contexts: ContextSet):
        self.contexts = contexts
        n_slots = len(contexts.directions)
        key = np.arange(len(contexts) << n_slots)
        code, bits = key >> n_slots, key & ((1 << n_slots) - 1)
        sx, sy = (np.array(col)[code] for col in zip(*contexts.slots))
        self._s1 = _signs(((bits >> (sx - 1)) & 1).astype(bool))
        self._s2 = _signs(((bits >> (sy - 1)) & 1).astype(bool))
        _freeze(self._s1, self._s2)
        # per slot direction: (axis component, direction component) of its non-zero terms
        self._terms = tuple(tuple((i, c) for i, c in enumerate((d.x, d.y, d.z)) if c != 0.0)
                            for d in contexts.directions)
        self._uses_y = any(d.y != 0.0 for d in contexts.directions)

    def trial(self, code: int, u1: float, u2: float) -> tuple[int, int]:
        # length-1 arrays, so the draw goes through the very same ufunc loops as run
        lx, ly, lz = _sphere_axis(np.array([u1]), np.array([u2]))
        ctx = self.contexts[code]
        s1, s2 = (1 if (lx * d.x + ly * d.y + lz * d.z)[0] >= 0.0 else -1 for d in (ctx.dir_x, ctx.dir_y))
        return s1, s2

    def run(self, codes: np.ndarray, u1: np.ndarray, u2: np.ndarray):
        axis = _sphere_axis(u1, u2, with_y=self._uses_y)
        key = codes << np.uint8(len(self._terms))
        for k, ((i, c), *rest) in enumerate(self._terms):
            dots = axis[i] * c
            for i, c in rest:
                dots += axis[i] * c
            key |= (dots >= 0.0).view(np.uint8) << np.uint8(k)
        return self._s1.take(key), self._s2.take(key)

    def analytic_correlator(self, code: int) -> float:
        """1 - 2*theta/pi for the angle theta between the context's directions."""
        ctx = self.contexts[code]
        return 1.0 - 2.0 * angle_between(ctx.dir_x, ctx.dir_y) / math.pi


class QmMimicSampler:
    """Trials of the built-in contextual qm-mimic model: outcome pairs with joint
    probability (1 + s1*s2*x.y)/4, the quantum correlator x.y in every context."""

    draws = 2  # uniforms per trial that run reads

    def __init__(self, contexts: ContextSet):
        self.contexts = contexts
        # P(s2 = s1) = (1 + x.y)/2 per context
        self._p_same = np.array([min(1.0, max(0.0, (1.0 + ctx.dir_x.dot(ctx.dir_y)) / 2.0))
                                 for ctx in contexts.contexts])
        _freeze(self._p_same)

    def trial(self, code: int, u1: float, u2: float) -> tuple[int, int]:
        s1 = 1 if u1 < 0.5 else -1
        return s1, s1 if u2 < self._p_same[code] else -s1

    def run(self, codes: np.ndarray, u1: np.ndarray, u2: np.ndarray):
        s1 = _signs(u1 < 0.5)
        return s1, _signs(u2 < self._p_same.take(codes)) * s1

    def analytic_correlator(self, code: int) -> float:
        ctx = self.contexts[code]
        return ctx.dir_x.dot(ctx.dir_y)
