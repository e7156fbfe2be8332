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

Reservoir grams are kept the same way, as sorted runs of keys (hash in
the high half, reservoir offset in the low half) by Bentley and Saxe's
logarithmic method.  Each phrase's keys are sorted into a new run; while
the newest run is at most twice as long, it is merged into the new one
by a stable sort of the two sorted stretches.  So the runs cover
consecutive stretches of the reservoir, oldest first, their lengths
fall off geometrically, and a lookup searches O(log phrases) of them.
A reservoir gram keeps 8 bytes of key, one of ``res`` and its share of
the presence table.  Offsets are 32-bit too, so a reservoir of 2**32
symbols or more is rejected.

Two presence tables, one bit per slot of the top hash bits (one-hash
Bloom filters), hold the indexed grams: one the reference's, one the
reservoir's.  ``lookup`` tests each before it searches that side and
returns at once when both bits are clear, which is where most lookups
of a sequence with novel content end.  Each table takes 16 bits per
gram it holds, rounded up to a power of two, at least 1 KiB and at
most 8 MiB (2**26 bits).  The reference table is built once.  The
reservoir table starts at 1 KiB; when its grams pass an eighth of its
bits, it is rebuilt four times larger (up to the same cap), so the
reservoir of a reference-less index stays sparse too.  Reservoir grams
set no reference bit, so they never send a lookup into the reference's
search.

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
_LOW_HALF = np.uint64(0xFFFFFFFF)
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
    ascending order.  Reservoir positions live in ``res_buckets``, a
    dict of runs ordered oldest first: a run is a sorted ``<u8`` key
    array, hash in the high half and reservoir offset in the low half,
    over the stretch of the reservoir from its dict key (a reservoir
    offset) to the next run's.  A phrase's keys
    form a new run, merged with the newest runs while those are at most
    twice as long.  Two presence bit tables, one over the reference's
    grams and one over the reservoir's, answer most misses before any
    search.  Lookups examine at most ``candidate_cap`` bucket entries,
    reference entries first.
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
        self._ref_present, self._ref_shift = _presence_table(len(keys), [self._ref_hash])
        self.res = bytearray()
        self.res_buckets: dict[int, np.ndarray] = {}
        self._res_present, self._res_shift = _presence_table(0, [])

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
        start = len(self.res)
        if start + len(phrase) >= 1 << 32:
            raise ValueError("reservoir of 2**32 symbols or more exceeds the 32-bit index")
        at = np.flatnonzero(n_free)
        run = np.empty(len(at), dtype="<u8")
        halves = run.view("<u4").reshape(-1, 2)
        halves[:, 1] = hashes[at]
        halves[:, 0] = at + start
        self.res.extend(np.asarray(phrase, dtype=np.uint8).tobytes())
        if not len(run):
            return
        run.sort()
        _mark_present(self._res_present, self._res_shift, halves[:, 1])
        # the logarithmic method: a run at most twice as long as the new
        # one merges into it, so run lengths fall off geometrically
        runs = self.res_buckets
        while runs and len(runs[next(reversed(runs))]) <= 2 * len(run):
            start, older = runs.popitem()
            run = np.concatenate((older, run))
            run.sort(kind="stable")  # two sorted stretches: one merge pass
        runs[start] = run
        # past an eighth of the bits (a gram per byte), grow the table fourfold
        n_grams = sum(map(len, runs.values()))
        if n_grams > len(self._res_present) and 32 - self._res_shift < _MAX_LOG_BITS:
            self._res_present, self._res_shift = _presence_table(
                n_grams,
                [r.view("<u4")[1::2] for r in runs.values()],
                34 - self._res_shift,
            )

    def may_contain(self, hashes: np.ndarray) -> np.ndarray:
        """Mask over ``hashes`` (uint32): True where a presence bit, the
        reference's or the reservoir's, is set.  A gram whose bits are
        both clear has an empty ``lookup``."""
        return _has_bits(self._ref_present, self._ref_shift, hashes) | _has_bits(
            self._res_present, self._res_shift, hashes
        )

    def lookup(self, h: int, gram: bytes) -> list[int]:
        """Extended-reference positions whose k symbols equal ``gram``,
        an N-free k-gram whose hash is ``h``, in bucket order and at most
        ``candidate_cap`` of them."""
        k = self.k
        out: list[int] = []
        budget = self.candidate_cap
        slot = h >> self._ref_shift
        if self._ref_present[slot >> 3] >> (slot & 7) & 1:
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
        slot = h >> self._res_shift
        if budget and self._res_present[slot >> 3] >> (slot & 7) & 1:
            first = np.uint64(h << 32)
            res, ref_len = self.res, self.ref_len
            for run in self.res_buckets.values():
                lo = int(run.searchsorted(first))
                if lo == len(run) or int(run[lo]) >> 32 != h:
                    continue
                hi = int(run.searchsorted(first | _LOW_HALF, "right"))
                take = min(hi - lo, budget)
                budget -= take
                for off in run[lo : lo + take].view("<u4")[::2].tolist():
                    if res[off : off + k] == gram:
                        out.append(ref_len + off)
                if not budget:
                    break
        return out


def _presence_table(n_grams: int, hash_columns: list, log_bits: int = 0) -> tuple:
    """(table, shift): a presence table of 16 bits per gram, rounded up
    to a power of two and at least 2**log_bits, within the size bounds,
    with the bits of every hash in ``hash_columns`` set."""
    log_bits = max(log_bits, (16 * n_grams - 1).bit_length(), _MIN_LOG_BITS)
    log_bits = min(log_bits, _MAX_LOG_BITS)
    table = bytearray(1 << log_bits >> 3)
    for hashes in hash_columns:
        _mark_present(table, 32 - log_bits, hashes)
    return table, 32 - log_bits


def _mark_present(table: bytearray, shift: int, hashes: np.ndarray) -> None:
    """Set the presence bits of ``hashes`` (uint32) in ``table``."""
    slot = hashes >> np.uint32(shift)
    bit = np.left_shift(1, slot & np.uint32(7)).astype(np.uint8)
    np.bitwise_or.at(np.frombuffer(table, dtype=np.uint8), slot >> np.uint32(3), bit)


def _has_bits(table: bytearray, shift: int, hashes: np.ndarray) -> np.ndarray:
    """Mask over ``hashes`` (uint32): True where its bit in ``table`` is set."""
    slot = hashes >> np.uint32(shift)
    byte = np.frombuffer(table, dtype=np.uint8)[slot >> np.uint32(3)]
    return (byte >> (slot & np.uint32(7)).astype(np.uint8)) & np.uint8(1) != 0
