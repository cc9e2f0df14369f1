"""Versioned, checksummed envelope for shipping learning parameters.

Wire form is a canonical JSON document: fixed field order, no whitespace,
floats as their shortest round-trip decimal text, and a trailing CRC-32
field computed over the document bytes with the checksum field removed.
The same input therefore always encodes to the same bytes, and any
single-byte corruption is detected before the payload is trusted.
"""

from __future__ import annotations

import json
import re
import zlib
from dataclasses import dataclass
from functools import cached_property

from .data import json_integer, json_numbers
from .learners import MODEL_KIND_CL, MODEL_KIND_DCL, MODEL_KINDS, ClModel, ThresholdVector
from .nn import LayerSpec, NetworkParameters

FORMAT_VERSION = 1

_CHECKSUM_MARKER = ',"checksum":'
_CHECKSUM_DIGITS = re.compile("0|[1-9][0-9]*")  # as str() writes a CRC-32
_DOC_KEYS = {"format_version", "model_kind", "model_version", "created_at", "params",
             "thresholds"}
_PARAMS_KEYS = {"input_count", "hidden_sizes", "output_count", "activation", "version",
                "trained_epochs", "weights", "biases"}


class BundleError(ValueError):
    """Base for all bundle encode/decode failures."""


class BundleChecksumError(BundleError):
    """Stored CRC-32 does not match the document bytes."""


class BundleVersionError(BundleError):
    """Unknown format_version."""


class BundleFormatError(BundleError):
    """Document is not parseable or violates the field schema."""


class BundleShapeError(BundleError):
    """Weight/bias/threshold shapes are inconsistent with the layer spec."""


@dataclass(frozen=True)
class ParameterBundle:
    model_kind: str
    params: NetworkParameters
    model_version: int
    created_at: int  # milliseconds
    thresholds: ThresholdVector | None = None
    format_version: int = FORMAT_VERSION

    def __post_init__(self) -> None:
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        if self.model_version < 0:
            raise ValueError("model_version must be non-negative")
        if (self.thresholds is not None) != (self.model_kind == MODEL_KIND_CL):
            raise ValueError("thresholds are required for CL and forbidden otherwise")
        if self.thresholds is not None and len(self.thresholds) != self.params.spec.output_count:
            raise ValueError("threshold count must equal output count")

    @cached_property
    def as_cl_model(self) -> ClModel:
        """The bundle as an LCL predictor, built once per bundle."""
        if self.model_kind != MODEL_KIND_CL:
            raise ValueError("not a CL bundle")
        assert self.thresholds is not None
        return ClModel(self.params, self.thresholds)


def encode_bundle(bundle: ParameterBundle) -> bytes:
    """Canonical bytes for a bundle; bit-stable across runs and platforms."""
    p = bundle.params
    weights, biases = p.layers()
    doc = {
        "format_version": bundle.format_version,
        "model_kind": bundle.model_kind,
        "model_version": bundle.model_version,
        "created_at": bundle.created_at,
        "params": {
            "input_count": p.spec.input_count,
            "hidden_sizes": list(p.spec.hidden_sizes),
            "output_count": p.spec.output_count,
            "activation": p.activation,
            "version": p.version,
            "trained_epochs": p.trained_epochs,
            "weights": weights,
            "biases": biases,
        },
        "thresholds": list(bundle.thresholds.values) if bundle.thresholds else None,
    }
    try:
        payload = json.dumps(doc, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise BundleError(f"bundle contains non-finite values: {exc}") from exc
    crc = zlib.crc32(payload.encode("utf-8"))
    return (payload[:-1] + _CHECKSUM_MARKER + str(crc) + "}").encode("utf-8")


def decode_bundle(raw: bytes) -> ParameterBundle:
    """Parse and validate canonical bundle bytes.

    The checksum is verified against the raw document bytes before anything
    is trusted; schema and shape checks follow.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BundleFormatError(f"not UTF-8: {exc}") from exc
    idx = text.rfind(_CHECKSUM_MARKER)
    if idx < 0 or not text.endswith("}"):
        raise BundleFormatError("missing checksum field")
    payload = text[:idx] + "}"
    digits = text[idx + len(_CHECKSUM_MARKER) : -1]
    if not _CHECKSUM_DIGITS.fullmatch(digits):
        raise BundleFormatError("malformed checksum field")
    declared = int(digits)
    actual = zlib.crc32(payload.encode("utf-8"))
    if actual != declared:
        raise BundleChecksumError(
            f"checksum mismatch: declared {declared}, computed {actual}"
        )
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise BundleFormatError(f"invalid document: {exc}") from exc
    if not isinstance(doc, dict):
        raise BundleFormatError("document is not an object")
    try:
        if json_integer(doc.get("format_version"), "format_version") != FORMAT_VERSION:
            raise BundleVersionError(f"unknown format_version {doc['format_version']!r}")
        pdoc = doc["params"]
        if doc.keys() != _DOC_KEYS or not isinstance(pdoc, dict) or pdoc.keys() != _PARAMS_KEYS:
            raise BundleFormatError("fields differ from the ones the encoder writes")
        kind = doc["model_kind"]
        spec = LayerSpec(
            json_integer(pdoc["input_count"], "input_count"),
            tuple(json_integer(h, "hidden_sizes") for h in pdoc["hidden_sizes"]),
            json_integer(pdoc["output_count"], "output_count"),
        )
        flat = _flat_parameters(pdoc["weights"], pdoc["biases"], spec.layer_sizes)
        activation = pdoc["activation"]
        version = json_integer(pdoc["version"], "version")
        trained_epochs = json_integer(pdoc["trained_epochs"], "trained_epochs")
        model_version = json_integer(doc["model_version"], "model_version")
        created_at = json_integer(doc["created_at"], "created_at")
        thresholds = doc["thresholds"]
        if thresholds is not None:
            thresholds = tuple(json_numbers(thresholds, "thresholds"))
    except BundleError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleFormatError(f"schema violation: {exc}") from exc
    try:
        params = NetworkParameters(
            spec,
            activation=activation,
            version=version,
            trained_epochs=trained_epochs,
            flat=flat,
        )
        return ParameterBundle(
            model_kind=kind,
            params=params,
            model_version=model_version,
            created_at=created_at,
            thresholds=ThresholdVector(thresholds) if thresholds is not None else None,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise BundleShapeError(f"shape or invariant violation: {exc}") from exc


def _flat_parameters(weights, biases, sizes) -> list:
    """The weights and biases of a document as one list in the order of
    ``NetworkParameters.flat``, checked against the layer ``sizes``."""
    if not isinstance(weights, list) or not isinstance(biases, list):
        raise BundleFormatError("weights and biases are not lists")
    if len(weights) != len(sizes) - 1 or len(biases) != len(sizes) - 1:
        raise BundleShapeError("layer count does not match spec")
    flat: list = []
    for l, (w, b) in enumerate(zip(weights, biases)):
        if not isinstance(w, list) or not all(isinstance(row, list) for row in w):
            raise BundleFormatError(f"weights[{l}] is not a matrix")
        if (len(w) != sizes[l + 1] or any(len(row) != sizes[l] for row in w)
                or not isinstance(b, list) or len(b) != sizes[l + 1]):
            raise BundleShapeError(f"layer {l} does not match spec ({sizes[l + 1]}, {sizes[l]})")
        for row in w:
            flat += row
        flat += b
    return json_numbers(flat, "weights and biases")
