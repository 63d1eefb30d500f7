"""Checklist evaluation: atomic requirement checks and the DRFR ratio.

A checklist decomposes an instruction into small verifiable facts; the
ratio of satisfied facts to total facts is the score.  Multi-turn sessions
accumulate checks turn over turn, so an object silently dropped by a later
edit shows up as a falling ratio.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

from .compiler import CompiledScene
from .errors import LengthMismatch, SchemaError
from .relations import check_relation, resolve


class CheckKind(str, Enum):
    EXIST = "exist"
    ATTRIBUTE_SIZE = "attribute_size"
    SPATIAL_RELATION = "spatial_relation"
    HIERARCHY_SUPPORT = "hierarchy_support"


_SUPPORT_TOL = 1e-3


@dataclass(frozen=True)
class AtomicCheck:
    kind: CheckKind
    subject: str
    object: str | None = None
    relation: str | None = None
    params: tuple[tuple[str, object], ...] = ()
    label: str | None = None

    def __post_init__(self) -> None:
        if (self.relation is not None) != (self.kind is CheckKind.SPATIAL_RELATION):
            raise SchemaError("relation is given exactly for spatial_relation checks")
        needs_object = self.kind in (CheckKind.SPATIAL_RELATION, CheckKind.HIERARCHY_SUPPORT)
        if needs_object and self.object is None:
            raise SchemaError(f"{self.kind.value} checks need a reference object")

    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind.value, "subject": self.subject}
        if self.object is not None:
            out["object"] = self.object
        if self.relation is not None:
            out["relation"] = self.relation
        if self.params:
            out["params"] = dict(self.params)
        if self.label is not None:
            out["label"] = self.label
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "AtomicCheck":
        if not isinstance(doc, dict):
            raise SchemaError(f"a check must be a JSON object, got {doc!r}")
        try:
            kind = CheckKind(doc.get("kind"))
        except ValueError:
            kinds = ", ".join(k.value for k in CheckKind)
            raise SchemaError(
                f"unknown check kind {doc.get('kind')!r}; expected one of {kinds}"
            ) from None
        if not isinstance(doc.get("subject"), str):
            raise SchemaError(f"a check of kind {kind.value!r} needs a string 'subject'")
        for key in ("object", "relation", "label"):
            if not isinstance(doc.get(key), (str, type(None))):
                raise SchemaError(f"check field {key!r} must be a string")
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise SchemaError("check field 'params' must be a JSON object")
        for key in ("min_size", "max_size"):
            size = params.get(key)
            if size is not None and not (
                isinstance(size, list) and len(size) == 3 and all(map(_finite_number, size))
            ):
                raise SchemaError(f"check param {key!r} must be a list of three finite numbers")
        return cls(
            kind=kind,
            subject=doc["subject"],
            object=doc.get("object"),
            relation=doc.get("relation"),
            params=tuple(sorted(params.items())),
            label=doc.get("label"),
        )


def _finite_number(v: object) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


@dataclass(frozen=True)
class Checklist:
    checks: tuple[AtomicCheck, ...]
    turn_id: int | None = None
    removes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.checks and not self.removes:
            raise SchemaError("a checklist needs at least one check")


@dataclass(frozen=True)
class DrfrResult:
    ratio: float
    per_check: tuple[tuple[AtomicCheck, bool], ...]

    def to_dict(self) -> dict:
        return {
            "ratio": self.ratio,
            "per_check": [
                {"check": c.to_dict(), "satisfied": ok} for c, ok in self.per_check
            ],
        }


def evaluate_check(s: CompiledScene, c: AtomicCheck) -> bool:
    if c.kind is CheckKind.EXIST:
        return resolve(s, c.subject) is not None

    if c.kind is CheckKind.ATTRIBUTE_SIZE:
        p = resolve(s, c.subject)
        if p is None:
            return False
        want_category = c.param("category")
        if want_category is not None and p.category.value != want_category:
            return False
        size = p.box.size.as_tuple()
        min_size = c.param("min_size")
        max_size = c.param("max_size")
        if min_size is not None and any(s_i < m_i - 1e-9 for s_i, m_i in zip(size, min_size)):
            return False
        if max_size is not None and any(s_i > m_i + 1e-9 for s_i, m_i in zip(size, max_size)):
            return False
        return True

    if c.kind is CheckKind.SPATIAL_RELATION:
        return check_relation(s, c.relation, c.subject, c.object)

    # hierarchy_support: a real parent link plus a resting contact
    child = resolve(s, c.subject)
    parent = resolve(s, c.object)
    if child is None or parent is None or child.parent != parent.id:
        return False
    return abs(child.box.bottom_z - parent.box.top_z) <= _SUPPORT_TOL


def evaluate_drfr(s: CompiledScene, cl: Checklist) -> DrfrResult:
    if not cl.checks:  # a turn that only removes labels is scored by evaluate_cumulative
        raise SchemaError("a checklist with no checks has nothing to score")
    verdicts = tuple((c, evaluate_check(s, c)) for c in cl.checks)
    satisfied = sum(1 for _, ok in verdicts if ok)
    return DrfrResult(ratio=satisfied / len(verdicts), per_check=verdicts)


def evaluate_cumulative(
    scenes: list[CompiledScene], checklists: list[Checklist]
) -> list[DrfrResult]:
    """Turn t is scored against every persistent check from turns 1..t.

    A turn's `removes` drops previously added checks by label, modeling
    instructions that overwrite or delete earlier state.
    """
    if len(scenes) != len(checklists):
        raise LengthMismatch(
            f"{len(scenes)} scenes but {len(checklists)} checklists"
        )
    active: list[AtomicCheck] = []
    out: list[DrfrResult] = []
    for k, (scene, cl) in enumerate(zip(scenes, checklists), start=1):
        if cl.removes:
            dropped = set(cl.removes)
            active = [c for c in active if c.label not in dropped]
        active.extend(cl.checks)
        if not active:
            turn = f"turn {k}" if cl.turn_id is None else f"turn {k} (turn_id {cl.turn_id!r})"
            raise SchemaError(f"{turn} leaves no check to score")
        out.append(evaluate_drfr(scene, Checklist(checks=tuple(active), turn_id=cl.turn_id)))
    return out


def load_checklists(path: str) -> list[Checklist]:
    """Read a checklist file: either {"checks": [...]} for one turn or
    {"turns": [{"turn_id", "checks", "removes"}, ...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not ("turns" in doc or "checks" in doc):
        raise SchemaError("a checklist file holds a JSON object with 'checks' or 'turns'")
    if "turns" in doc:
        return [_turn(turn) for turn in _list_field(doc, "turns")]
    return [Checklist(checks=_checks(doc))]


def _list_field(doc: object, key: str) -> list:
    if not isinstance(doc, dict):
        raise SchemaError(f"expected a JSON object holding {key!r}, got {doc!r}")
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise SchemaError(f"{key!r} must be a JSON list")
    return value


def _checks(doc: object) -> tuple[AtomicCheck, ...]:
    return tuple(AtomicCheck.from_dict(c) for c in _list_field(doc, "checks"))


def _turn(turn: object) -> Checklist:
    checks = _checks(turn)
    removes = _list_field(turn, "removes")
    if not all(isinstance(label, str) for label in removes):
        raise SchemaError("'removes' must list check labels, which are strings")
    return Checklist(checks=checks, turn_id=turn.get("turn_id"), removes=tuple(removes))
