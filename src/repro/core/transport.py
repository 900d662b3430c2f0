"""Self-contained wire format for Easz transmissions.

:class:`repro.core.EaszCompressed` is an in-memory object; to actually ship a
frame over a socket (or store it on flash until the uplink comes back, as a
wildlife camera would), everything the receiver needs has to be flattened
into one byte string.  This module defines that container:

``EASZ`` packages (an erased-and-squeezed frame)::

    magic "EASZ" | version | header length (4B) | JSON header | mask bytes | codec payload

``CIMG`` packages (a plain :class:`repro.codecs.base.CompressedImage`, used
when a base codec runs without Easz)::

    magic "CIMG" | version | header length (4B) | JSON header | payload

The JSON header carries only plain types (shapes as lists, names, the base
codec's decode metadata); the binary payloads are appended verbatim so no
re-encoding happens.  ``unpack_package`` restores an object that decodes to
the same pixels as the original.
"""

from __future__ import annotations

import json
import os

from ..codecs.base import CompressedImage
from .pipeline import EaszCompressed

__all__ = [
    "pack_compressed",
    "unpack_compressed",
    "pack_package",
    "unpack_package",
    "save_package",
    "load_package",
]

_EASZ_MAGIC = b"EASZ"
_CIMG_MAGIC = b"CIMG"
_VERSION = 1


def _encode_container(magic, header, binary_parts):
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    out = bytearray()
    out += magic
    out.append(_VERSION)
    out += len(header_bytes).to_bytes(4, "big")
    out += header_bytes
    for part in binary_parts:
        out += part
    return bytes(out)


def _decode_container(data, magic):
    if len(data) < 9 or data[:4] != magic:
        raise ValueError(f"not a {magic.decode('ascii')} container")
    version = data[4]
    if version != _VERSION:
        raise ValueError(f"unsupported container version {version}")
    header_length = int.from_bytes(data[5:9], "big")
    header_end = 9 + header_length
    if header_end > len(data):
        raise ValueError("truncated container header")
    header = json.loads(data[9:header_end].decode("utf-8"))
    return header, data[header_end:]


def _is_count(value):
    return type(value) is int and value >= 0


def _is_shape(value):
    return isinstance(value, list) and all(_is_count(item) for item in value)


#: What each header field must hold: a check and its description.
_STRING = (lambda value: isinstance(value, str), "a string")
_OBJECT = (lambda value: isinstance(value, dict), "a JSON object")
_COUNT = (_is_count, "a non-negative integer")
_SHAPE = (_is_shape, "a list of non-negative integers")

_CIMG_FIELDS = {"codec_name": _STRING, "original_shape": _SHAPE, "extra_bytes": _COUNT,
                "metadata": _OBJECT, "payload_length": _COUNT}
_EASZ_FIELDS = {"codec_name": _STRING, "codec_metadata": _OBJECT,
                "codec_extra_bytes": _COUNT, "codec_original_shape": _SHAPE,
                "grid_shape": _SHAPE, "original_shape": _SHAPE, "squeezed_shape": _SHAPE,
                "config_summary": _OBJECT, "mask_length": _COUNT, "payload_length": _COUNT}


def _check_header(header, fields, optional=()):
    """Raise ``ValueError`` unless ``header`` holds each field with its type.

    Containers arrive from edge devices, so a malformed header must fail as
    a bad container, never as a ``KeyError`` or a negative slice.
    """
    if not isinstance(header, dict):
        raise ValueError("container header is not a JSON object")
    for name, (check, description) in fields.items():
        if name not in header:
            if name in optional:
                continue
            raise ValueError(f"container header lacks {name!r}")
        if not check(header[name]):
            raise ValueError(f"container header field {name!r} is not {description}")


def _tuplify(value):
    """Recursively convert JSON lists back to tuples (shape-like metadata)."""
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    if isinstance(value, dict):
        return {key: _tuplify(item) for key, item in value.items()}
    return value


# --------------------------------------------------------------------------- #
# plain CompressedImage containers
# --------------------------------------------------------------------------- #
def pack_compressed(compressed):
    """Serialise a :class:`CompressedImage` into a self-contained byte string."""
    try:
        json.dumps(compressed.metadata)
    except TypeError as error:
        raise ValueError(
            "CompressedImage metadata is not JSON-serialisable; wrap the codec in "
            "pack_package (Easz) or keep metadata to plain types"
        ) from error
    header = {
        "codec_name": compressed.codec_name,
        "original_shape": list(compressed.original_shape),
        "extra_bytes": compressed.extra_bytes,
        "metadata": compressed.metadata,
        "payload_length": len(compressed.payload),
    }
    return _encode_container(_CIMG_MAGIC, header, [compressed.payload])


def unpack_compressed(data):
    """Inverse of :func:`pack_compressed`."""
    header, binary = _decode_container(data, _CIMG_MAGIC)
    _check_header(header, _CIMG_FIELDS)
    payload_length = header["payload_length"]
    if len(binary) < payload_length:
        raise ValueError("truncated CompressedImage payload")
    return CompressedImage(
        payload=bytes(binary[:payload_length]),
        original_shape=tuple(header["original_shape"]),
        codec_name=header["codec_name"],
        metadata=_tuplify(header["metadata"]),
        extra_bytes=header["extra_bytes"],
    )


# --------------------------------------------------------------------------- #
# Easz packages
# --------------------------------------------------------------------------- #
def pack_package(package):
    """Serialise an :class:`EaszCompressed` package into one byte string."""
    codec_payload = package.codec_payload
    try:
        json.dumps(codec_payload.metadata)
    except TypeError as error:
        raise ValueError(
            "the base codec's metadata is not JSON-serialisable; transport only "
            "supports codecs with plain-type metadata"
        ) from error
    try:
        json.dumps(package.config_summary)
    except TypeError as error:
        raise ValueError(
            "EaszCompressed.config_summary is not JSON-serialisable; keep encoder "
            "settings to plain types so served responses can echo them"
        ) from error
    header = {
        "codec_name": codec_payload.codec_name,
        "codec_metadata": codec_payload.metadata,
        "codec_extra_bytes": codec_payload.extra_bytes,
        "codec_original_shape": list(codec_payload.original_shape),
        "grid_shape": list(package.grid_shape),
        "original_shape": list(package.original_shape),
        "squeezed_shape": list(package.squeezed_shape),
        "config_summary": package.config_summary,
        "mask_length": len(package.mask_bytes),
        "payload_length": len(codec_payload.payload),
    }
    return _encode_container(_EASZ_MAGIC, header,
                             [package.mask_bytes, codec_payload.payload])


def unpack_package(data):
    """Inverse of :func:`pack_package`."""
    header, binary = _decode_container(data, _EASZ_MAGIC)
    _check_header(header, _EASZ_FIELDS, optional=("config_summary",))
    mask_length = header["mask_length"]
    payload_length = header["payload_length"]
    if len(binary) < mask_length + payload_length:
        raise ValueError("truncated Easz package payload")
    mask_bytes = bytes(binary[:mask_length])
    payload = bytes(binary[mask_length:mask_length + payload_length])
    codec_payload = CompressedImage(
        payload=payload,
        original_shape=tuple(header["codec_original_shape"]),
        codec_name=header["codec_name"],
        metadata=_tuplify(header["codec_metadata"]),
        extra_bytes=header["codec_extra_bytes"],
    )
    return EaszCompressed(
        codec_payload=codec_payload,
        mask_bytes=mask_bytes,
        grid_shape=tuple(header["grid_shape"]),
        original_shape=tuple(header["original_shape"]),
        squeezed_shape=tuple(header["squeezed_shape"]),
        # _tuplify so tuple-valued encoder settings survive the JSON
        # round-trip unchanged (served responses echo this dict verbatim);
        # .get() tolerates containers written before the field existed
        config_summary=_tuplify(header.get("config_summary", {})),
    )


# --------------------------------------------------------------------------- #
# file helpers
# --------------------------------------------------------------------------- #
def save_package(package, path):
    """Write an :class:`EaszCompressed` (or :class:`CompressedImage`) to disk."""
    if isinstance(package, EaszCompressed):
        data = pack_package(package)
    elif isinstance(package, CompressedImage):
        data = pack_compressed(package)
    else:
        raise TypeError(f"cannot serialise object of type {type(package).__name__}")
    with open(path, "wb") as handle:
        handle.write(data)
    return os.path.getsize(path)


def load_package(path):
    """Read a package written by :func:`save_package` (dispatching on the magic)."""
    with open(path, "rb") as handle:
        data = handle.read()
    if data[:4] == _EASZ_MAGIC:
        return unpack_package(data)
    if data[:4] == _CIMG_MAGIC:
        return unpack_compressed(data)
    raise ValueError(f"{path} is not a repro transport container")
