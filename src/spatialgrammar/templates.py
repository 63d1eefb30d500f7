"""Scene template loading: parameterized room descriptions for the sampler.

A template bundles an object pool with weights, a count range, relation
rules that the sampler must realize geometrically, optional surface rules
(items that may appear on top of a host), and prompt/reasoning text
patterns.  Three room types ship with the package; custom templates load
from plain JSON files with the same shape.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from importlib import resources

from .geometry import GridSpec
from .relations import RELATIONS
from .errors import SchemaError, UnknownRelation, VocabError
from .vocab import Vocabulary

PACKAGED_TEMPLATES = ("living_room", "bedroom", "office")
_MAX_GRID_DIM = 64  # rows and cols of a template grid; bounds the sampler's work
# the fields the sampler fills into prompt and reasoning text
_PROMPT_FIELDS = ("room", "object_list")
_REASONING_FIELDS = _PROMPT_FIELDS + ("rule_text", "placement_text")


@dataclass(frozen=True)
class RelationRule:
    subject: str
    relation: str
    object: str

    def __post_init__(self) -> None:
        _check_names(self.subject, self.object)
        if self.relation not in RELATIONS:
            raise UnknownRelation(
                f"unknown relation {self.relation!r} in rule "
                f"{self.subject} -> {self.object}"
            )


@dataclass(frozen=True)
class SurfaceRule:
    host: str
    item: str
    prob: float

    def __post_init__(self) -> None:
        _check_names(self.host, self.item)
        if not 0.0 <= self.prob <= 1.0:
            raise SchemaError(f"surface rule probability {self.prob} outside [0,1]")


@dataclass(frozen=True)
class SceneTemplate:
    name: str
    room_label: str
    grid: GridSpec
    object_pool: tuple[tuple[str, float], ...]
    count_range: tuple[int, int]
    relation_rules: tuple[RelationRule, ...]
    surface_rules: tuple[SurfaceRule, ...]
    prompt_templates: tuple[str, ...]
    reasoning_templates: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.grid.rows > _MAX_GRID_DIM or self.grid.cols > _MAX_GRID_DIM:
            raise SchemaError(
                f"template grid {self.grid.rows}x{self.grid.cols} exceeds the "
                f"{_MAX_GRID_DIM}x{_MAX_GRID_DIM} limit"
            )
        lo, hi = self.count_range
        if not 1 <= lo <= hi:
            raise SchemaError(f"bad count range {self.count_range}")
        if hi > self.grid.rows * self.grid.cols:
            raise SchemaError(
                f"count range {self.count_range} exceeds the "
                f"{self.grid.rows}x{self.grid.cols} grid capacity"
            )
        if hi > len(self.object_pool):
            raise SchemaError(
                f"count range {self.count_range} exceeds the pool of "
                f"{len(self.object_pool)} object kinds"
            )
        if not self.object_pool or not self.prompt_templates or not self.reasoning_templates:
            raise SchemaError("template needs a pool and at least one text template each")
        _check_names(*(key for key, _ in self.object_pool))
        for _, weight in self.object_pool:
            if not (math.isfinite(weight) and weight > 0):
                raise SchemaError("pool weights must be positive")
        for texts, fields in (
            (self.prompt_templates, _PROMPT_FIELDS),
            (self.reasoning_templates, _REASONING_FIELDS),
        ):
            for text in texts:
                try:
                    text.format(**dict.fromkeys(fields, "x"))
                except (KeyError, IndexError, ValueError, AttributeError) as exc:
                    raise SchemaError(
                        f"text template {text!r} may use only {', '.join(fields)}: {exc!r}"
                    ) from None


def _check_names(*names: object) -> None:
    for name in names:
        if not isinstance(name, str):
            raise SchemaError(f"object names in a template are strings, got {name!r}")


def template_from_dict(doc: object) -> SceneTemplate:
    """Build a template from its parsed JSON; a document of the wrong shape
    raises SchemaError."""
    if not isinstance(doc, dict):
        raise SchemaError(f"a template must be a JSON object, got {type(doc).__name__}")
    try:
        grid = GridSpec(
            cell_size_m=float(doc["grid"]["cell_size"]),
            rows=int(doc["grid"]["rows"]),
            cols=int(doc["grid"]["cols"]),
        )
        return SceneTemplate(
            name=doc["name"],
            room_label=doc.get("room_label", doc["name"].replace("_", " ")),
            grid=grid,
            object_pool=tuple(
                (e["key"], float(e.get("weight", 1.0))) for e in doc["object_pool"]
            ),
            count_range=(int(doc["count_range"][0]), int(doc["count_range"][1])),
            relation_rules=tuple(
                RelationRule(r["subject"], r["relation"], r["object"])
                for r in doc.get("relation_rules", ())
            ),
            surface_rules=tuple(
                SurfaceRule(r["host"], r["item"], float(r.get("prob", 0.5)))
                for r in doc.get("surface_rules", ())
            ),
            prompt_templates=tuple(doc["prompt_templates"]),
            reasoning_templates=tuple(doc["reasoning_templates"]),
        )
    except SchemaError:
        raise
    except KeyError as exc:
        raise SchemaError(f"template has no {exc} field") from None
    except (TypeError, ValueError, AttributeError, IndexError, OverflowError) as exc:
        raise SchemaError(f"malformed template: {exc}") from None


def load_template(name_or_path: str, vocab: Vocabulary | None = None) -> SceneTemplate:
    """Load a packaged template by name or any template JSON by path."""
    if os.path.isfile(name_or_path):
        with open(name_or_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        ref = (
            resources.files("spatialgrammar") / "data" / "templates" / f"{name_or_path}.json"
        )
        if not ref.is_file():
            raise FileNotFoundError(
                f"no template file {name_or_path!r} and no packaged template of "
                f"that name (have: {', '.join(PACKAGED_TEMPLATES)})"
            )
        doc = json.loads(ref.read_text(encoding="utf-8"))
    t = template_from_dict(doc)
    if vocab is not None:
        validate_template(t, vocab)
    return t


def validate_template(t: SceneTemplate, vocab: Vocabulary) -> None:
    """Every pool key, surface host, and surface item must resolve."""
    for key, _ in t.object_pool:
        vocab.lookup(key)
    for rule in t.surface_rules:
        vocab.lookup(rule.host)
        vocab.lookup(rule.item)
    pool_keys = {key for key, _ in t.object_pool}
    for rule in t.relation_rules:
        for ref in (rule.subject, rule.object):
            if ref not in pool_keys:
                raise VocabError(
                    f"relation rule references {ref!r} which is not in the pool", key=ref
                )
