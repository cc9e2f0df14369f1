import math
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from edgectx.bundle import (
    BundleChecksumError,
    BundleError,
    BundleFormatError,
    BundleShapeError,
    BundleVersionError,
    ParameterBundle,
    decode_bundle,
    encode_bundle,
)
from edgectx.learners import ThresholdVector
from edgectx.nn import LayerSpec, NetworkParameters, forward, init_network

GOLDEN_DIR = Path(__file__).parent / "golden"


def mini_bundle() -> ParameterBundle:
    return ParameterBundle(
        model_kind="DCL",
        params=NetworkParameters(
            LayerSpec(1, (), 1), (np.array([[0.5]]),), (np.array([0.25]),),
            version=3, trained_epochs=7,
        ),
        model_version=3,
        created_at=1700000000000,
    )


def cl_bundle() -> ParameterBundle:
    params = init_network(LayerSpec(3, (), 2), 2024)
    params = NetworkParameters(
        params.spec, params.weights, params.biases, version=5, trained_epochs=40
    )
    return ParameterBundle(
        model_kind="CL",
        params=params,
        model_version=5,
        created_at=1700000100000,
        thresholds=ThresholdVector((0.4375, 0.5625)),
    )


def dcl_bundle(seed=7) -> ParameterBundle:
    return ParameterBundle(
        model_kind="DCL",
        params=init_network(LayerSpec(4, (3,), 3), seed),
        model_version=1,
        created_at=1700000200000,
    )


def _rewire(raw: bytes, old: bytes, new: bytes) -> bytes:
    """Patch the payload and refresh the checksum, keeping it valid."""
    text = raw.decode()
    payload, _, _ = text.rpartition(',"checksum":')
    payload = (payload + "}").replace(old.decode(), new.decode(), 1)
    crc = zlib.crc32(payload.encode())
    return (payload[:-1] + ',"checksum":' + str(crc) + "}").encode()


class TestRoundTrip:
    @pytest.mark.parametrize("make", [mini_bundle, cl_bundle, dcl_bundle])
    def test_canonical_round_trip(self, make):
        original = encode_bundle(make())
        again = encode_bundle(decode_bundle(original))
        assert again == original

    def test_decoded_equals_original(self):
        b = dcl_bundle()
        d = decode_bundle(encode_bundle(b))
        assert d.model_kind == b.model_kind
        assert d.model_version == b.model_version
        assert d.created_at == b.created_at
        for wa, wb in zip(b.params.weights, d.params.weights):
            assert np.array_equal(wa, wb)

    def test_forward_outputs_survive_the_wire(self):
        b = dcl_bundle()
        d = decode_bundle(encode_bundle(b))
        x = [0.1, 0.9, 0.3, 0.7]
        assert np.max(np.abs(
            forward(b.params, x).final_outputs - forward(d.params, x).final_outputs
        )) <= 1e-12

    def test_one_weight_document_is_small(self):
        assert len(encode_bundle(mini_bundle())) < 1024

    def test_weight_change_changes_checksum(self):
        a = encode_bundle(mini_bundle())
        altered = ParameterBundle(
            model_kind="DCL",
            params=NetworkParameters(
                LayerSpec(1, (), 1), (np.array([[0.500001]]),), (np.array([0.25]),),
                version=3, trained_epochs=7,
            ),
            model_version=3,
            created_at=1700000000000,
        )
        b = encode_bundle(altered)
        crc = lambda raw: raw.rsplit(b'"checksum":', 1)[1]
        assert crc(a) != crc(b)

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ValueError):
            NetworkParameters(
                LayerSpec(1, (), 1), (np.array([[np.inf]]),), (np.array([0.0]),)
            )


class TestGolden:
    def test_mini_matches_committed_bytes(self):
        assert encode_bundle(mini_bundle()) == (GOLDEN_DIR / "bundle_dcl_mini.json").read_bytes()

    def test_cl_matches_committed_bytes(self):
        assert encode_bundle(cl_bundle()) == (GOLDEN_DIR / "bundle_cl_golden.json").read_bytes()

    def test_golden_decodes(self):
        bundle = decode_bundle((GOLDEN_DIR / "bundle_cl_golden.json").read_bytes())
        assert bundle.model_kind == "CL"
        assert bundle.thresholds.values == (0.4375, 0.5625)

    @pytest.mark.parametrize("name", ["bundle_cl_golden.json", "bundle_dcl_mini.json"])
    def test_golden_reencodes_byte_for_byte(self, name):
        raw = (GOLDEN_DIR / name).read_bytes()
        assert encode_bundle(decode_bundle(raw)) == raw


class TestCorruption:
    def test_every_single_byte_corruption_detected(self):
        raw = bytearray(encode_bundle(mini_bundle()))
        for i in range(len(raw)):
            corrupted = bytearray(raw)
            corrupted[i] ^= 0x01  # nearest possible corruption
            with pytest.raises(BundleError):
                decode_bundle(bytes(corrupted))

    def test_payload_digit_corruption_reports_checksum_mismatch(self):
        raw = encode_bundle(mini_bundle())
        idx = raw.index(b"0.25")
        corrupted = raw[:idx] + b"0.26" + raw[idx + 4:]
        with pytest.raises(BundleChecksumError):
            decode_bundle(corrupted)

    def test_checksum_field_corruption_detected(self):
        raw = encode_bundle(mini_bundle())
        head, _, tail = raw.rpartition(b'"checksum":')
        digits = tail[:-1]
        flipped = str((int(digits) + 1) % 2**32).encode()
        with pytest.raises(BundleChecksumError):
            decode_bundle(head + b'"checksum":' + flipped + b"}")

    def test_truncation_detected(self):
        raw = encode_bundle(mini_bundle())
        with pytest.raises(BundleError):
            decode_bundle(raw[:-2])


class TestSchemaErrors:
    def test_unknown_format_version(self):
        raw = _rewire(encode_bundle(mini_bundle()), b'"format_version":1', b'"format_version":2')
        with pytest.raises(BundleVersionError):
            decode_bundle(raw)

    def test_shape_inconsistency(self):
        raw = _rewire(encode_bundle(mini_bundle()), b'"weights":[[[0.5]]]',
                      b'"weights":[[[0.5,0.5]]]')
        with pytest.raises(BundleShapeError):
            decode_bundle(raw)

    def test_missing_field(self):
        raw = _rewire(encode_bundle(mini_bundle()), b'"created_at"', b'"created_att"')
        with pytest.raises(BundleFormatError):
            decode_bundle(raw)

    def test_thresholds_required_iff_cl(self):
        with pytest.raises(ValueError):
            ParameterBundle(
                model_kind="CL",
                params=mini_bundle().params,
                model_version=1,
                created_at=0,
            )
        with pytest.raises(ValueError):
            ParameterBundle(
                model_kind="DCL",
                params=mini_bundle().params,
                model_version=1,
                created_at=0,
                thresholds=ThresholdVector((0.5,)),
            )

    # values the canonical encoder never writes, each resealed with a valid
    # checksum; ``float()`` or ``int()`` would have taken every one of them
    @pytest.mark.parametrize("old, new", [
        (b"0.6227655366461097", b'"0.6227655366461097"'),
        (b"0.6227655366461097", b"true"),
        (b"0.5963441875299105]", b'"0.5963441875299105"]'),
        (b"0.4375", b'"0.4375"'),
        (b"0.4375", b"true"),
        (b'"version":5', b'"version":1.9'),
        (b'"version":5', b'"version":true'),
        (b'"model_version":5', b'"model_version":true'),
        (b'"model_version":5', b'"model_version":5.0'),
        (b'"trained_epochs":40', b'"trained_epochs":40.5'),
        (b'"created_at":1700000100000', b'"created_at":1700000100000.5'),
        (b'"created_at":1700000100000', b'"created_at":false'),
        (b'"format_version":1', b'"format_version":true'),
        (b'"input_count":3', b'"input_count":3.0'),
    ], ids=["weight-string", "weight-bool", "bias-string", "threshold-string",
            "threshold-bool", "version-float", "version-bool", "model-version-bool",
            "model-version-float", "epochs-float", "created-at-float", "created-at-bool",
            "format-version-bool", "input-count-float"])
    def test_non_canonical_value_rejected(self, old, new):
        raw = _rewire((GOLDEN_DIR / "bundle_cl_golden.json").read_bytes(), old, new)
        with pytest.raises(BundleFormatError):
            decode_bundle(raw)

    # int() took each of these checksum texts
    @pytest.mark.parametrize("text", [b"02830431279", b"+2830431279", b" 2830431279",
                                      b"2_830431279"])
    def test_non_canonical_checksum_text_rejected(self, text):
        raw = (GOLDEN_DIR / "bundle_cl_golden.json").read_bytes()
        assert raw.endswith(b'"checksum":2830431279}')
        with pytest.raises(BundleFormatError):
            decode_bundle(raw[:-len(b"2830431279}")] + text + b"}")

    @pytest.mark.parametrize("old, new", [
        (b'"thresholds"', b'"extra":[1,2],"thresholds"'),
        (b'"weights"', b'"extra":[1,2],"weights"'),
    ], ids=["document", "params"])
    def test_field_the_encoder_never_writes_rejected(self, old, new):
        raw = _rewire((GOLDEN_DIR / "bundle_cl_golden.json").read_bytes(), old, new)
        with pytest.raises(BundleFormatError):
            decode_bundle(raw)

    def test_unknown_model_kind_rejected(self):
        raw = _rewire(encode_bundle(mini_bundle()), b'"model_kind":"DCL"',
                      b'"model_kind":"XXX"')
        with pytest.raises(BundleError):
            decode_bundle(raw)


class TestEquality:
    def test_equal_after_a_round_trip(self):
        for make in (mini_bundle, cl_bundle, dcl_bundle):
            once = decode_bundle(encode_bundle(make()))
            twice = decode_bundle(encode_bundle(once))
            assert once == twice and once.params == twice.params
            assert hash(once) == hash(twice) and hash(once.params) == hash(twice.params)
            assert once.params == make().params

    def test_one_ulp_makes_a_difference(self):
        b = cl_bundle()
        flat = list(b.params.flat)
        flat[3] = math.nextafter(flat[3], 1.0)
        nudged = replace(b, params=replace(b.params, flat=flat))
        assert nudged.params != b.params and nudged != b
        assert nudged == decode_bundle(encode_bundle(nudged))
