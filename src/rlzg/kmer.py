"""Hash index over the extended reference for match-candidate discovery.

Every N-free k-gram of the reference is indexed under a 32-bit mixing
hash of its base-5 packed value; reservoir phrases appended during
compression are indexed the same way (grams straddling a phrase
boundary are skipped, those juxtapositions occur in no real sequence).
Hash hits are always verified against the actual symbols, so no false
positive ever leaves a lookup.  The hash itself is a replaceable detail
behind that contract.

Layout and memory.  Each reference gram is one little-endian 64-bit
key, hash in the high half and position in the low half, and the keys
are sorted in place; the hash and position columns are ``uint32``
views of the two halves, so they are sorted by hash with position
breaking ties: 8 bytes per indexed gram.  Grams are packed in 32 bits
while 5**k fits there (k <= 13), and the build peaks near 24 bytes per
reference base (1 Mbase at k = 13) before it settles at the 8 of the
keys, the 1 of ``ref_bytes`` and the presence table.  Positions are
32-bit, so a reference of 2**32 symbols or more is rejected.
Reservoir grams go to a dict of position tuples, inserted in bulk per
phrase (a list once a gram repeats).  A presence table, one bit per
slot of the top hash bits (a one-hash Bloom filter), holds
every indexed gram, reference and reservoir: ``lookup`` tests it first
and returns at once when the bit is clear, which is where most lookups
of a sequence with novel content end.  The table takes 16 bits per
reference gram, rounded up to a power of two, at least 1 KiB and at
most 8 MiB (2**26 bits).  Reservoir grams fill it further as they come;
when the indexed grams pass an eighth of its bits, it is rebuilt four
times larger (up to the same cap), so a reference-less index stays
sparse too.

Hashing on demand.  ``hash_kmers`` hashes every gram of an array in
vector passes; ``gram_hash`` hashes one gram in pure Python to the same
value, for a parser that probes one position and then jumps a match
ahead.  ``may_contain`` is the presence test of ``lookup`` over a
column of hashes, so a parser can skip the grams whose lookup would
come back empty without making it.
"""
from __future__ import annotations

import numpy as np

from .genome import N

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)

# presence table size in bits: 16 per reference gram, as a power of two
_MIN_LOG_BITS, _MAX_LOG_BITS = 13, 26

_MASK64 = (1 << 64) - 1
_BASE5_DIGITS = bytes.maketrans(bytes(range(5)), b"01234")


def mix_hash(packed):
    """splitmix64 finalizer, truncated to the top 32 bits."""
    z = np.array(packed, dtype=np.uint64)  # its own copy, mixed in place
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    z >>= np.uint64(32)
    return z.astype(np.uint32)


def hash_kmers(symbols: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(hash, n_free) arrays for every k-gram start of ``symbols``.

    The gram value is the base-5 packed integer (mod 2**64 for large k),
    packed in 32 bits while 5**k fits there (k <= 13); grams containing
    N are flagged out via the second array.  Packing composes doubled
    spans (value(a+b span) = value(a)*5^b + value(b)), so it takes
    O(log k) vector passes instead of k.
    """
    symbols = np.asarray(symbols, dtype=np.uint8)
    n = len(symbols)
    m = n - k + 1
    if m <= 0:
        return np.zeros(0, dtype=np.uint32), np.zeros(0, dtype=bool)
    word = np.uint32 if 5**k <= 1 << 32 else np.uint64
    digits = symbols.astype(word)
    packed = digits
    done = 1
    for bit in bin(k)[3:]:
        valid = n - 2 * done + 1
        head = packed[:valid] * word(pow(5, done, 1 << 64))
        head += packed[done : done + valid]
        packed = head
        done *= 2
        if bit == "1":
            valid = n - done
            head = packed[:valid] * word(5)
            head += digits[done : done + valid]
            packed = head
            done += 1
    del digits  # freed before mix_hash's 64-bit copy: it sets the build's peak
    return mix_hash(packed[:m]), n_free_grams(symbols, k)


def gram_hash(gram: bytes) -> int:
    """The ``hash_kmers`` hash of one gram (symbol bytes, N included):
    its base-5 value mod 2**64 through the splitmix64 finalizer, top 32
    bits."""
    z = int(gram.translate(_BASE5_DIGITS), 5) & _MASK64
    z ^= z >> 30
    z = z * 0xBF58476D1CE4E5B9 & _MASK64
    z ^= z >> 27
    z = z * 0x94D049BB133111EB & _MASK64
    return (z ^ z >> 31) >> 32


def n_free_grams(symbols: np.ndarray, k: int) -> np.ndarray:
    """Mask over the k-gram starts of ``symbols``: True where the gram
    holds no N.  Found by OR-ing the N mask over doubled spans, as
    ``hash_kmers`` packs."""
    if len(symbols) < k:
        return np.zeros(0, dtype=bool)
    is_n = symbols == N
    has_n = is_n
    done = 1
    for bit in bin(k)[3:]:
        has_n = has_n[: len(has_n) - done] | has_n[done:]
        done *= 2
        if bit == "1":
            has_n = has_n[:-1] | is_n[done:]
            done += 1
    return ~has_n


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

    Reference positions live in two ``uint32`` columns, the halves of
    keys sorted by (hash, position), so a bucket lists its positions in
    ascending order;
    reservoir positions live in ``res_buckets``, a dict of ascending
    positions (a one-position tuple, a list once a gram repeats) that
    grows as phrases are appended.  A presence bit table over the top
    hash bits answers most misses before any search.  Lookups examine
    at most ``candidate_cap`` bucket entries, reference entries first.
    """

    def __init__(self, reference: np.ndarray, k: int, candidate_cap: int = 128):
        if k < 4:
            raise ValueError("k must be >= 4")
        self.k = k
        self.candidate_cap = candidate_cap
        self.ref = np.asarray(reference, dtype=np.uint8)
        self.ref_len = len(self.ref)
        if self.ref_len >= 1 << 32:
            raise ValueError("reference of 2**32 symbols or more exceeds the 32-bit index")
        self.ref_bytes = self.ref.tobytes()
        hashes, n_free = hash_kmers(self.ref, k)
        # one little-endian key per gram, hash in the high half and
        # position in the low half: position breaks hash ties, so the
        # sort keeps each bucket in ascending position order
        keys = np.empty(len(hashes), dtype="<u8")
        halves = keys.view("<u4").reshape(-1, 2)
        halves[:, 1] = hashes
        halves[:, 0] = np.arange(len(hashes), dtype=np.uint32)
        del hashes  # freed before the N-free rows are copied out
        if not n_free.all():
            keys = keys[n_free]
            halves = keys.view("<u4").reshape(-1, 2)
        keys.sort()
        self._ref_pos, self._ref_hash = halves[:, 0], halves[:, 1]
        self.res = bytearray()
        self.res_buckets: dict[int, tuple[int] | list[int]] = {}
        self._n_grams = len(keys)
        log_bits = (16 * len(keys) - 1).bit_length()  # rounded up to a power of two
        self._new_table(min(max(log_bits, _MIN_LOG_BITS), _MAX_LOG_BITS))

    def _new_table(self, log_bits: int) -> None:
        """A presence table of 2**log_bits bits holding every indexed gram."""
        self._shift = 32 - log_bits
        self._present = bytearray(1 << log_bits >> 3)
        self._present_view = np.frombuffer(self._present, dtype=np.uint8)
        self._mark_present(self._ref_hash)
        self._mark_present(np.fromiter(self.res_buckets, dtype=np.uint32))

    def _mark_present(self, hashes: np.ndarray) -> None:
        """Set the presence bits of ``hashes`` (uint32)."""
        slot = hashes >> np.uint32(self._shift)
        bit = np.left_shift(1, slot & np.uint32(7)).astype(np.uint8)
        np.bitwise_or.at(self._present_view, slot >> np.uint32(3), bit)

    @property
    def ext_len(self) -> int:
        return self.ref_len + len(self.res)

    def extend_with_reservoir(
        self, phrase: np.ndarray, hashes: np.ndarray, n_free: np.ndarray
    ) -> None:
        """Append a reservoir phrase at the end of the extended reference
        and index its interior k-grams, whose ``hash_kmers`` columns the
        caller passes as ``hashes`` and ``n_free``."""
        if len(hashes) != len(n_free) or len(hashes) != max(len(phrase) - self.k + 1, 0):
            raise ValueError("gram columns do not match the phrase")
        at = np.flatnonzero(n_free)
        h = hashes[at]
        pos = at + self.ext_len
        self.res.extend(np.asarray(phrase, dtype=np.uint8).tobytes())
        self._n_grams += len(h)
        # A gram whose presence bit is still clear has no bucket: unless
        # one repeats within the phrase, those go in bulk as one-position
        # tuples.  The others append, their bucket turning into a list.
        seen = self.may_contain(h)
        self._mark_present(h)
        buckets = self.res_buckets
        fresh = dict(zip(h[~seen].tolist(), zip(pos[~seen].tolist())))
        if len(fresh) == len(h) - np.count_nonzero(seen):
            buckets.update(fresh)
            h, pos = h[seen], pos[seen]
        for key, p in zip(h.tolist(), pos.tolist()):
            bucket = buckets.get(key, ())
            if type(bucket) is list:
                bucket.append(p)
            else:
                buckets[key] = [*bucket, p]
        # past an eighth of the bits (a gram per byte), grow the table fourfold
        if self._n_grams > len(self._present) and 32 - self._shift < _MAX_LOG_BITS:
            self._new_table(min(34 - self._shift, _MAX_LOG_BITS))

    def may_contain(self, hashes: np.ndarray) -> np.ndarray:
        """Mask over ``hashes`` (uint32): True where the presence bit is
        set.  A gram whose bit is clear has an empty ``lookup``."""
        slot = hashes >> np.uint32(self._shift)
        byte = self._present_view[slot >> np.uint32(3)]
        return (byte >> (slot & np.uint32(7)).astype(np.uint8)) & np.uint8(1) != 0

    def lookup(self, h: int, gram: bytes) -> list[int]:
        """Extended-reference positions whose k symbols equal ``gram``,
        an N-free k-gram whose hash is ``h``, in bucket order and at most
        ``candidate_cap`` of them."""
        slot = h >> self._shift
        if not self._present[slot >> 3] >> (slot & 7) & 1:
            return []
        k = self.k
        out: list[int] = []
        budget = self.candidate_cap
        ref_hash = self._ref_hash
        key = np.uint32(h)  # a Python int key would cast the whole column
        hi = int(ref_hash.searchsorted(key, "right"))
        if hi and ref_hash[hi - 1] == key:
            lo = int(ref_hash.searchsorted(key, "left"))
            take = min(hi - lo, budget)
            budget -= take
            ref_bytes = self.ref_bytes
            for p in self._ref_pos[lo : lo + take].tolist():
                if ref_bytes[p : p + k] == gram:
                    out.append(p)
        if budget > 0 and self.res_buckets:
            for p in self.res_buckets.get(h, [])[:budget]:
                off = p - self.ref_len
                if self.res[off : off + k] == gram:
                    out.append(p)
        return out
