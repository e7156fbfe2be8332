"""Hash index over the extended reference for match-candidate discovery.

Every N-free k-gram of the reference is indexed under a 32-bit mixing
hash of its base-5 packed value; reservoir phrases appended during
compression are indexed the same way (grams straddling a phrase
boundary are skipped, those juxtapositions occur in no real sequence).
Hash hits are always verified against the actual symbols, so no false
positive ever leaves a lookup.  The hash itself is a replaceable detail
behind that contract.
"""
from __future__ import annotations

import numpy as np

from .genome import N

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_FIVE = np.uint64(5)


def mix_hash(packed):
    """splitmix64 finalizer, truncated to the top 32 bits."""
    z = np.asarray(packed, dtype=np.uint64).copy()
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(32)).astype(np.uint32)


def hash_kmers(symbols: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(hash, n_free) arrays for every k-gram start of ``symbols``.

    The gram value is the base-5 packed integer (mod 2**64 for large k);
    grams containing N are flagged out via the second array.  Packing
    composes doubled spans (value(a+b span) = value(a)*5^b + value(b)),
    so it takes O(log k) vector passes instead of k.
    """
    symbols = np.asarray(symbols, dtype=np.uint8)
    n = len(symbols)
    m = n - k + 1
    if m <= 0:
        return np.zeros(0, dtype=np.uint32), np.zeros(0, dtype=bool)
    s64 = symbols.astype(np.uint64)
    packed = s64.copy()
    done = 1
    for bit in bin(k)[3:]:
        valid = n - 2 * done + 1
        packed = packed[:valid] * np.uint64(pow(5, done, 1 << 64)) + packed[done : done + valid]
        done *= 2
        if bit == "1":
            valid = n - done
            packed = packed[:valid] * _FIVE + s64[done : done + valid]
            done += 1
    return mix_hash(packed[:m]), n_free_grams(symbols, k)


def n_free_grams(symbols: np.ndarray, k: int) -> np.ndarray:
    """Mask over the k-gram starts of ``symbols``: True where the gram
    holds no N."""
    csum = np.zeros(len(symbols) + 1, dtype=np.int32)
    np.cumsum(symbols == N, out=csum[1:])
    return (csum[k:] - csum[:-k]) == 0


def common_prefix(a, i: int, b, j: int, limit: int) -> int:
    """Length of the longest common prefix of a[i:] and b[j:], capped at
    ``limit``.  Runs on memcmp chunks with doubling and bisection."""
    L = 0
    step = 16
    while L < limit:
        m = min(step, limit - L)
        if a[i + L : i + L + m] == b[j + L : j + L + m]:
            L += m
            step = min(step * 4, 1 << 20)
        else:
            while m > 1:
                h = m // 2
                if a[i + L : i + L + h] == b[j + L : j + L + h]:
                    L += h
                    m -= h
                else:
                    m = h
            return L
    return limit


class KmerIndex:
    """Positions of N-free k-grams in the extended reference.

    Reference positions live in sorted arrays (ascending position within
    a bucket = insertion order); reservoir positions live in a dict that
    grows as phrases are appended.  Lookups examine at most
    ``candidate_cap`` bucket entries, reference entries first.
    """

    def __init__(self, reference: np.ndarray, k: int, candidate_cap: int = 128):
        if k < 4:
            raise ValueError("k must be >= 4")
        self.k = k
        self.candidate_cap = candidate_cap
        self.ref = np.asarray(reference, dtype=np.uint8)
        self.ref_len = len(self.ref)
        self.ref_bytes = self.ref.tobytes()
        hashes, n_free = hash_kmers(self.ref, k)
        pos = np.flatnonzero(n_free)
        h = hashes[pos]
        order = np.argsort(h, kind="stable")
        # int64 keys so plain Python ints bind to searchsorted cheaply
        self._ref_hash = h[order].astype(np.int64)
        self._ref_pos = pos[order].astype(np.int64)
        if len(self._ref_hash):
            change = np.flatnonzero(np.diff(self._ref_hash)) + 1
            bounds = np.concatenate(([0], change, [len(self._ref_hash)]))
            self._bucket_end = np.repeat(bounds[1:], np.diff(bounds))
        else:
            self._bucket_end = np.zeros(0, dtype=np.int64)
        self.res = bytearray()
        self.res_buckets: dict[int, list[int]] = {}

    @property
    def ext_len(self) -> int:
        return self.ref_len + len(self.res)

    def extend_with_reservoir(self, phrase: np.ndarray, start_offset: int) -> None:
        """Append a reservoir phrase and index its interior k-grams."""
        if start_offset != self.ext_len:
            raise ValueError(
                f"reservoir offset {start_offset} != extended length {self.ext_len}"
            )
        phrase = np.asarray(phrase, dtype=np.uint8)
        self.res.extend(phrase.tobytes())
        hashes, n_free = hash_kmers(phrase, self.k)
        for j in np.flatnonzero(n_free).tolist():
            self.res_buckets.setdefault(int(hashes[j]), []).append(start_offset + j)

    def lookup(self, h: int, gram: bytes) -> list[int]:
        """Extended-reference positions whose k symbols equal ``gram``,
        an N-free k-gram whose hash is ``h``, in bucket order and at most
        ``candidate_cap`` of them."""
        k = self.k
        out: list[int] = []
        budget = self.candidate_cap
        lo = np.searchsorted(self._ref_hash, h, "left")
        if lo < len(self._ref_hash) and self._ref_hash[lo] == h:
            hi = int(self._bucket_end[lo])
            take = min(hi - int(lo), budget)
            budget -= take
            ref_bytes = self.ref_bytes
            for p in self._ref_pos[lo : int(lo) + take].tolist():
                if ref_bytes[p : p + k] == gram:
                    out.append(p)
        if budget > 0 and self.res_buckets:
            for p in self.res_buckets.get(h, [])[:budget]:
                off = p - self.ref_len
                if self.res[off : off + k] == gram:
                    out.append(p)
        return out

    def extension_buffer(self, pos: int) -> tuple[bytes | bytearray, int, int]:
        """(buffer, offset, room) for extending a match that starts at
        ``pos``: reference matches stop at the reference end, reservoir
        matches may run to the current reservoir end."""
        if pos < self.ref_len:
            return self.ref_bytes, pos, self.ref_len - pos
        off = pos - self.ref_len
        return self.res, off, len(self.res) - off
