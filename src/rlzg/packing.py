"""Base-5 triplet packing: three symbols per byte, value 25*s0 + 5*s1 + s2.

The first symbol of a triplet is most significant.  A final partial
triplet is padded with A (code 0); the pad is recovered from the known
symbol count on unpack.
"""
from __future__ import annotations

import numpy as np

_POW = np.array([25, 5, 1], dtype=np.uint8)

_UNPACK = np.zeros((256, 3), dtype=np.uint8)
for _v in range(125):
    _UNPACK[_v] = (_v // 25, (_v // 5) % 5, _v % 5)


def pack_triplets(symbols: np.ndarray) -> np.ndarray:
    """Pack a code array (values 0..4) into bytes, all < 125."""
    symbols = np.asarray(symbols, dtype=np.uint8)
    n = len(symbols)
    m = -(-n // 3)
    if n % 3:
        padded = np.zeros(m * 3, dtype=np.uint8)
        padded[:n] = symbols
    else:
        padded = symbols
    return padded.reshape(m, 3) @ _POW


def unpack_triplets(packed: np.ndarray, n_symbols: int) -> np.ndarray:
    """Inverse of :func:`pack_triplets` given the original symbol count."""
    packed = np.asarray(packed, dtype=np.uint8)
    if len(packed) != -(-n_symbols // 3):
        raise ValueError("packed length does not match symbol count")
    return _UNPACK[packed].reshape(-1)[:n_symbols]


def pad_segments(values: np.ndarray, seg_lens: np.ndarray, multiple: int):
    """``values`` cut into consecutive segments of ``seg_lens``, each
    zero-padded to a multiple of ``multiple`` by one insert; returns the
    padded values and the padded segment lengths."""
    padded = -(-seg_lens // multiple) * multiple
    return np.insert(values, np.repeat(np.cumsum(seg_lens), padded - seg_lens), 0), padded
