"""Tests for the Easz transport container (wire format + file round-trips)."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs import JpegCodec, PngCodec
from repro.core import (
    EaszDecoder,
    EaszEncoder,
    load_package,
    pack_compressed,
    pack_package,
    save_package,
    unpack_compressed,
    unpack_package,
)
from repro.core.transport import _CIMG_MAGIC, _EASZ_MAGIC, _decode_container


@pytest.fixture(scope="module")
def easz_package(small_config, kodak_small):
    encoder = EaszEncoder(small_config, JpegCodec(quality=80), seed=0)
    return encoder.encode(kodak_small[0]), kodak_small[0]


class TestCompressedImageContainer:
    def test_roundtrip_preserves_fields(self, kodak_small):
        compressed = JpegCodec(quality=70).compress(kodak_small[0])
        restored = unpack_compressed(pack_compressed(compressed))
        assert restored.payload == compressed.payload
        assert restored.original_shape == compressed.original_shape
        assert restored.codec_name == compressed.codec_name
        assert restored.extra_bytes == compressed.extra_bytes

    def test_roundtrip_decodes_to_same_pixels(self, kodak_small):
        codec = JpegCodec(quality=70)
        compressed = codec.compress(kodak_small[0])
        direct = codec.decompress(compressed)
        via_container = codec.decompress(unpack_compressed(pack_compressed(compressed)))
        assert np.allclose(direct, via_container)

    def test_png_metadata_survives(self, gray_image):
        codec = PngCodec()
        compressed = codec.compress(gray_image)
        restored = unpack_compressed(pack_compressed(compressed))
        assert restored.metadata == compressed.metadata

    def test_container_overhead_is_small(self, kodak_small):
        compressed = JpegCodec(quality=70).compress(kodak_small[0])
        container = pack_compressed(compressed)
        assert len(container) < len(compressed.payload) + 600

    def test_rejects_unserialisable_metadata(self, kodak_small):
        compressed = JpegCodec(quality=70).compress(kodak_small[0])
        compressed.metadata["array"] = np.zeros(3)
        with pytest.raises(ValueError, match="JSON"):
            pack_compressed(compressed)

    def test_rejects_wrong_magic_and_truncation(self, kodak_small):
        compressed = JpegCodec(quality=70).compress(kodak_small[0])
        container = pack_compressed(compressed)
        with pytest.raises(ValueError):
            unpack_compressed(b"XXXX" + container[4:])
        with pytest.raises(ValueError):
            unpack_compressed(container[: len(container) // 2])


class TestEaszPackageContainer:
    def test_roundtrip_preserves_all_fields(self, easz_package):
        package, _ = easz_package
        restored = unpack_package(pack_package(package))
        assert restored.mask_bytes == package.mask_bytes
        assert restored.codec_payload.payload == package.codec_payload.payload
        assert restored.grid_shape == package.grid_shape
        assert restored.original_shape == package.original_shape
        assert restored.squeezed_shape == package.squeezed_shape
        assert restored.config_summary == package.config_summary
        assert restored.num_bytes == package.num_bytes

    def test_tuple_valued_config_summary_survives_roundtrip(self, easz_package):
        import dataclasses
        package, _ = easz_package
        package = dataclasses.replace(
            package, config_summary=dict(package.config_summary,
                                         geometry=(16, 4), quality_grid=(30, 60, 85)))
        restored = unpack_package(pack_package(package))
        assert restored.config_summary == package.config_summary
        assert restored.config_summary["geometry"] == (16, 4)

    def test_missing_config_summary_header_tolerated(self, easz_package):
        # containers written before the field existed decode to an empty dict
        import json as json_module
        package, _ = easz_package
        container = pack_package(package)
        header_length = int.from_bytes(container[5:9], "big")
        header = json_module.loads(container[9:9 + header_length].decode("utf-8"))
        header.pop("config_summary")
        new_header = json_module.dumps(header, separators=(",", ":")).encode("utf-8")
        rebuilt = (container[:5] + len(new_header).to_bytes(4, "big") + new_header
                   + container[9 + header_length:])
        restored = unpack_package(rebuilt)
        assert restored.config_summary == {}
        assert restored.codec_payload.payload == package.codec_payload.payload

    def test_rejects_unserialisable_config_summary(self, easz_package):
        import dataclasses
        package, _ = easz_package
        package = dataclasses.replace(
            package, config_summary=dict(package.config_summary, array=np.zeros(2)))
        with pytest.raises(ValueError, match="config_summary"):
            pack_package(package)

    def test_restored_package_decodes_identically(self, easz_package, small_config,
                                                  trained_tiny_model):
        package, image = easz_package
        decoder = EaszDecoder(config=small_config, base_codec=JpegCodec(quality=80))
        direct = decoder.decode(package, reconstruct=False)
        restored = decoder.decode(unpack_package(pack_package(package)), reconstruct=False)
        assert np.allclose(direct, restored)

    def test_unpack_rejects_version_and_truncation(self, easz_package):
        package, _ = easz_package
        container = bytearray(pack_package(package))
        bad_version = bytes(container[:4]) + b"\x09" + bytes(container[5:])
        with pytest.raises(ValueError, match="version"):
            unpack_package(bad_version)
        with pytest.raises(ValueError, match="truncated"):
            unpack_package(bytes(container[:-50]))

    def test_unpack_rejects_cimg_container(self, kodak_small):
        compressed = JpegCodec(quality=70).compress(kodak_small[0])
        with pytest.raises(ValueError):
            unpack_package(pack_compressed(compressed))


def _with_header(container, magic, header):
    """``container`` with its JSON header replaced by ``header``."""
    _, binary = _decode_container(container, magic)
    header_bytes = json.dumps(header).encode("utf-8")
    return (container[:5] + len(header_bytes).to_bytes(4, "big") + header_bytes
            + bytes(binary))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2 ** 40), 2 ** 40) | st.floats()
    | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=6)
_DELETE = object()


class TestMalformedHeaders:
    """Containers come from edge devices: a bad header is a ``ValueError``."""

    @pytest.mark.parametrize("field", ["mask_length", "payload_length"])
    def test_negative_lengths_rejected(self, easz_package, field):
        container = pack_package(easz_package[0])
        header, _ = _decode_container(container, _EASZ_MAGIC)
        with pytest.raises(ValueError, match=field):
            unpack_package(_with_header(container, _EASZ_MAGIC, dict(header, **{field: -3})))

    def test_missing_field_and_non_object_header_rejected(self, easz_package):
        container = pack_package(easz_package[0])
        header, _ = _decode_container(container, _EASZ_MAGIC)
        del header["grid_shape"]
        with pytest.raises(ValueError, match="grid_shape"):
            unpack_package(_with_header(container, _EASZ_MAGIC, header))
        with pytest.raises(ValueError, match="JSON object"):
            unpack_package(_with_header(container, _EASZ_MAGIC, list(header)))

    def test_boolean_length_rejected(self, easz_package):
        container = pack_compressed(easz_package[0].codec_payload)
        header, _ = _decode_container(container, _CIMG_MAGIC)
        with pytest.raises(ValueError, match="payload_length"):
            unpack_compressed(_with_header(container, _CIMG_MAGIC,
                                           dict(header, payload_length=True)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), easz=st.booleans(), whole=st.booleans())
    def test_mutated_headers_raise_only_value_error(self, easz_package, data, easz, whole):
        package = easz_package[0]
        if easz:
            magic, container, unpack = _EASZ_MAGIC, pack_package(package), unpack_package
        else:
            magic, unpack = _CIMG_MAGIC, unpack_compressed
            container = pack_compressed(package.codec_payload)
        header, _ = _decode_container(container, magic)
        if whole:  # a list, a scalar, null: not an object at all
            header = data.draw(_JSON_VALUES.filter(lambda value: not isinstance(value, dict)))
        else:
            mutations = data.draw(st.dictionaries(
                st.sampled_from(sorted(header)), st.just(_DELETE) | _JSON_VALUES,
                min_size=1))
            for field, value in mutations.items():
                if value is _DELETE:
                    del header[field]
                else:
                    header[field] = value
        try:
            unpack(_with_header(container, magic, header))
        except ValueError:
            pass


class TestBinaryPartEdgeCases:
    """Truncated / oversized binary parts and zero-byte payloads."""

    def test_oversized_trailing_bytes_are_ignored(self, easz_package):
        # a framed transport (length-prefixed socket read) can hand over a
        # buffer with trailing junk; the declared lengths win
        package, _ = easz_package
        restored = unpack_package(pack_package(package) + b"\x00" * 64)
        assert restored.mask_bytes == package.mask_bytes
        assert restored.codec_payload.payload == package.codec_payload.payload

    def test_truncated_mask_bytes_rejected(self, easz_package):
        package, _ = easz_package
        container = pack_package(package)
        # cut into the mask region (the first binary part after the header)
        header_length = int.from_bytes(container[5:9], "big")
        cut = 9 + header_length + max(len(package.mask_bytes) // 2, 1)
        with pytest.raises(ValueError, match="truncated"):
            unpack_package(container[:cut])

    def test_truncated_cimg_payload_rejected(self, kodak_small):
        compressed = JpegCodec(quality=70).compress(kodak_small[0])
        container = pack_compressed(compressed)
        with pytest.raises(ValueError, match="truncated"):
            unpack_compressed(container[:-10])

    def test_zero_byte_payload_roundtrips(self, kodak_small):
        import dataclasses
        compressed = JpegCodec(quality=70).compress(kodak_small[0])
        empty = dataclasses.replace(compressed, payload=b"")
        restored = unpack_compressed(pack_compressed(empty))
        assert restored.payload == b""
        assert restored.original_shape == compressed.original_shape


class TestFileHelpers:
    def test_save_and_load_easz_package(self, easz_package, tmp_path):
        package, _ = easz_package
        path = tmp_path / "frame.easz"
        size = save_package(package, path)
        assert size == path.stat().st_size
        loaded = load_package(path)
        assert loaded.mask_bytes == package.mask_bytes
        assert loaded.codec_payload.payload == package.codec_payload.payload

    def test_save_and_load_compressed_image(self, kodak_small, tmp_path):
        compressed = JpegCodec(quality=70).compress(kodak_small[0])
        path = tmp_path / "frame.cimg"
        save_package(compressed, path)
        loaded = load_package(path)
        assert loaded.payload == compressed.payload

    def test_save_rejects_unknown_objects(self, tmp_path):
        with pytest.raises(TypeError):
            save_package({"not": "a package"}, tmp_path / "bad.bin")

    def test_load_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "foreign.bin"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(ValueError):
            load_package(path)
