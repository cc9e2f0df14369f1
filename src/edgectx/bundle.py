"""Versioned, checksummed envelope for shipping learning parameters.

Wire form is a canonical JSON document: fixed field order, no whitespace,
floats as their shortest round-trip decimal text, and a trailing CRC-32
field computed over the document bytes with the checksum field removed.
The same input therefore always encodes to the same bytes, and any
single-byte corruption is detected before the payload is trusted.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from functools import cached_property

from .learners import ClModel, ThresholdVector
from .nn import LayerSpec, NetworkParameters

FORMAT_VERSION = 1
MODEL_KIND_DCL = "DCL"
MODEL_KIND_CL = "CL"
MODEL_KINDS = (MODEL_KIND_DCL, MODEL_KIND_CL)

_CHECKSUM_MARKER = ',"checksum":'


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
            "weights": [[[float(v) for v in row] for row in w] for w in p.weights],
            "biases": [[float(v) for v in b] for b in p.biases],
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
    try:
        declared = int(text[idx + len(_CHECKSUM_MARKER) : -1])
    except ValueError as exc:
        raise BundleFormatError("malformed checksum field") from exc
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
    if doc.get("format_version") != FORMAT_VERSION:
        raise BundleVersionError(
            f"unknown format_version {doc.get('format_version')!r}"
        )
    try:
        kind = doc["model_kind"]
        pdoc = doc["params"]
        spec = LayerSpec(
            int(pdoc["input_count"]),
            tuple(int(h) for h in pdoc["hidden_sizes"]),
            int(pdoc["output_count"]),
        )
        weights = tuple(
            _matrix(w, f"weights[{i}]") for i, w in enumerate(pdoc["weights"])
        )
        biases = tuple(
            _vector(b, f"biases[{i}]") for i, b in enumerate(pdoc["biases"])
        )
        activation = pdoc["activation"]
        version = int(pdoc["version"])
        trained_epochs = int(pdoc["trained_epochs"])
        model_version = int(doc["model_version"])
        created_at = int(doc["created_at"])
        thresholds = doc["thresholds"]
    except BundleError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleFormatError(f"schema violation: {exc}") from exc
    try:
        params = NetworkParameters(
            spec=spec,
            weights=weights,
            biases=biases,
            activation=activation,
            version=version,
            trained_epochs=trained_epochs,
        )
        return ParameterBundle(
            model_kind=kind,
            params=params,
            model_version=model_version,
            created_at=created_at,
            thresholds=ThresholdVector(tuple(thresholds)) if thresholds is not None else None,
        )
    except (TypeError, ValueError) as exc:
        raise BundleShapeError(f"shape or invariant violation: {exc}") from exc


def _matrix(obj, name: str) -> list[list[float]]:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise BundleFormatError(f"{name} is not a matrix")
    return [[float(v) for v in row] for row in obj]


def _vector(obj, name: str) -> list[float]:
    if not isinstance(obj, list):
        raise BundleFormatError(f"{name} is not a vector")
    return [float(v) for v in obj]
