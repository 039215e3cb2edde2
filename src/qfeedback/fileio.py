"""Reading and writing system descriptions as JSON documents.

One document holds one model: a square field system (annihilation or
general kind), a plant with split inputs, or a controller.  Complex matrix
entries are stored as two-element arrays [re, im] so the format stays
portable and diff-friendly; floats rely on shortest round-trip repr, which
reproduces binary64 values exactly on load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .errors import DimensionError, DomainError, FileFormatError
from .feedback import ControllerModel, CostOutput, PlantModel
from .systems import AnnihilationQSys, GeneralQSys, _doubling

SCHEMA_VERSION = 1

# Document kind -> model class.  Each class declares its matrix layout; the
# document lists the layout's counts as dimensions, in order of appearance.
_MODELS = {
    "annihilation": AnnihilationQSys,
    "general": GeneralQSys,
    "plant": PlantModel,
    "controller": ControllerModel,
}
_REPRESENTATIONS = ("annihilation", "general")


def _dimension_names(cls) -> tuple[str, ...]:
    return tuple(dict.fromkeys(nm for dims in cls._layout.values() for nm in dims))


def matrix_to_entries(arr: np.ndarray) -> list[list[list[float]]]:
    """Encode a complex matrix as rows of [re, im] entries."""
    a = np.asarray(arr, dtype=complex)
    if a.ndim != 2:
        a = a.reshape(1, -1) if a.size else a.reshape(0, 0)
    return [[[float(v.real), float(v.imag)] for v in row] for row in a]


def entries_to_matrix(obj: Any, location: str) -> np.ndarray:
    """Decode rows of [re, im] entries into a complex matrix."""
    if not isinstance(obj, list):
        raise FileFormatError("matrix must be a list of rows", location)
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise FileFormatError("row must be a list of entries", f"{location}[{i}]")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FileFormatError("rows have unequal lengths", f"{location}[{i}]")
        decoded = []
        for j, entry in enumerate(row):
            where = f"{location}[{i}][{j}]"
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
            ):
                raise FileFormatError("entry must be [re, im]", where)
            value = complex(float(entry[0]), float(entry[1]))
            if not (np.isfinite(value.real) and np.isfinite(value.imag)):
                raise FileFormatError("entry must be finite", where)
            decoded.append(value)
        rows.append(decoded)
    if width is None:
        width = 0
    return np.array(rows, dtype=complex).reshape(len(rows), width)


@dataclass(frozen=True)
class LoadedFile:
    """A parsed document: the model plus its metadata."""

    kind: str
    model: AnnihilationQSys | GeneralQSys | PlantModel | ControllerModel
    metadata: dict[str, Any]
    document: dict[str, Any]


def _require(doc: dict, key: str, location: str) -> Any:
    if key not in doc:
        raise FileFormatError(f"missing required field '{key}'", location)
    return doc[key]


def _read_dims(doc: dict, names: tuple[str, ...]) -> dict[str, int]:
    declared = _require(doc, "dimensions", "document")
    if not isinstance(declared, dict):
        raise FileFormatError("must be an object", "dimensions")
    out = {}
    for nm in names:
        val = declared.get(nm)
        if not isinstance(val, int) or isinstance(val, bool) or val < 0:
            raise FileFormatError(
                f"'{nm}' must be a nonnegative integer, got {val!r}", "dimensions"
            )
        out[nm] = val
    return out


def _decode_matrices(
    doc: dict, shapes: dict[str, tuple[int, int]]
) -> dict[str, np.ndarray]:
    mats_doc = _require(doc, "matrices", "document")
    if not isinstance(mats_doc, dict):
        raise FileFormatError("must be an object", "matrices")
    out = {}
    for nm, want in shapes.items():
        got = entries_to_matrix(_require(mats_doc, nm, "matrices"), f"matrices.{nm}")
        if got.size == 0 and want[0] * want[1] == 0:
            got = got.reshape(want)
        if got.shape != want:
            raise FileFormatError(
                f"shape {got.shape} does not match declared dimensions {want}",
                f"matrices.{nm}",
            )
        out[nm] = got
    return out


def _decode_cost(doc: dict, n: int, m_u: int) -> CostOutput:
    cost_doc = doc["cost"]
    if not isinstance(cost_doc, dict):
        raise FileFormatError("must be an object", "cost")
    c_mat = entries_to_matrix(_require(cost_doc, "c", "cost"), "cost.c")
    d_mat = entries_to_matrix(_require(cost_doc, "d", "cost"), "cost.d")
    if c_mat.size == 0 and c_mat.shape[0] == 0:
        c_mat = c_mat.reshape(0, n)
    if d_mat.size == 0 and d_mat.shape[0] == 0:
        d_mat = d_mat.reshape(0, m_u)
    return CostOutput(c=c_mat, d=d_mat)


def document_to_model(doc: dict) -> LoadedFile:
    """Validate a parsed JSON document and build the model it describes."""
    if not isinstance(doc, dict):
        raise FileFormatError("document must be an object", "document")
    version = _require(doc, "schema_version", "document")
    if version != SCHEMA_VERSION:
        raise FileFormatError(
            f"unsupported schema_version {version!r}", "schema_version"
        )
    kind = _require(doc, "kind", "document")
    if not isinstance(kind, str) or kind not in _MODELS:
        raise FileFormatError(f"unknown kind {kind!r}", "kind")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise FileFormatError("must be an object", "metadata")

    cls = _MODELS[kind]
    square = kind in _REPRESENTATIONS
    try:
        rep = kind if square else _require(doc, "representation", "document")
        if rep not in _REPRESENTATIONS:
            raise FileFormatError(
                f"representation must be 'annihilation' or 'general', got {rep!r}",
                "representation",
            )
        dims = _read_dims(doc, _dimension_names(cls))
        size = {nm: _doubling(rep) * v for nm, v in dims.items()}
        mats = _decode_matrices(
            doc, {nm: (size[r], size[c]) for nm, (r, c) in cls._layout.items()}
        )
        model = cls(**mats, **dims) if square else cls(kind=rep, **mats)
    except (DimensionError, DomainError) as exc:
        raise FileFormatError(str(exc), "matrices") from exc
    if kind == "plant" and "cost" in doc:
        try:
            model = model.with_cost(_decode_cost(doc, size["n_modes"], size["m_u"]))
        except (DimensionError, DomainError) as exc:
            raise FileFormatError(str(exc), "cost") from exc
    return LoadedFile(kind=kind, model=model, metadata=metadata, document=doc)


def model_to_document(model, metadata: dict[str, Any] | None = None) -> dict[str, Any]:
    """Encode a model as a schema-versioned JSON-ready document."""
    kind = next((k for k, cls in _MODELS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise DomainError(f"cannot serialize object of type {type(model).__name__}")
    doc: dict[str, Any] = {"schema_version": SCHEMA_VERSION, "kind": kind}
    if kind not in _REPRESENTATIONS:
        doc["representation"] = model.kind
    doc["dimensions"] = {nm: getattr(model, nm) for nm in _dimension_names(type(model))}
    doc["matrices"] = {nm: matrix_to_entries(getattr(model, nm)) for nm in model._layout}
    if kind == "plant" and model.cost is not None:
        doc["cost"] = {
            "c": matrix_to_entries(model.cost.c),
            "d": matrix_to_entries(model.cost.d),
        }
    if metadata:
        doc["metadata"] = metadata
    return doc


def load_system(path: str | Path) -> LoadedFile:
    """Load and validate a system description file.

    Raises
    ------
    FileFormatError
        On JSON syntax errors or any schema violation; carries the field
        location when known.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FileFormatError(f"cannot read file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON: {exc}") from exc
    return document_to_model(doc)


def save_system(path: str | Path, model, metadata: dict[str, Any] | None = None) -> None:
    """Write a model to a system description file."""
    doc = model_to_document(model, metadata)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
