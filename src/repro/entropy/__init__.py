"""``repro.entropy`` — entropy-coding substrate shared by the codecs.

Contains bit-level I/O, canonical Huffman coding, run-length helpers and the
adaptive multi-symbol range coder.

The range coder (``RangeEncoder`` / ``RangeDecoder``) codes symbols under an
:class:`AdaptiveModel`: Laplace-smoothed counts, +32 per coded symbol,
halving once the total passes 2^16.  It renormalises a byte at a time
(LZMA-style carry counting) and keeps a Fenwick-tree shadow of each model,
so the block codecs feed whole symbol arrays per call (``encode_array`` /
``decode_array``).  The ``entropy`` section of ``BENCH_throughput.json``
times it against the seed's bit-at-a-time arithmetic coder, which survives
only as the baseline in ``benchmarks/seed_reference.py`` (the guarded bar
is >= 3x).

Payloads from :func:`encode_symbols` are self-describing: one leading format
byte, :data:`FORMAT_RANGE`.  The codec containers (``RBPG`` / ``RNNC``)
carry the same tag in their headers.  Any other tag, including the retired
coder's 0, raises ``ValueError``.  Nothing in this repo persists payloads
across versions, so there is no migration path to carry.
"""

from .arithmetic import FORMAT_RANGE, AdaptiveModel, decode_symbols, encode_symbols
from .bitio import BitReader, BitWriter
from .huffman import HuffmanCode, huffman_decode, huffman_encode
from .range_coder import RangeDecoder, RangeEncoder
from .rle import (
    decode_binary_mask,
    encode_binary_mask,
    run_length_decode,
    run_length_encode,
)

__all__ = [
    "BitReader",
    "BitWriter",
    "HuffmanCode",
    "huffman_encode",
    "huffman_decode",
    "run_length_encode",
    "run_length_decode",
    "encode_binary_mask",
    "decode_binary_mask",
    "AdaptiveModel",
    "RangeEncoder",
    "RangeDecoder",
    "FORMAT_RANGE",
    "encode_symbols",
    "decode_symbols",
]
