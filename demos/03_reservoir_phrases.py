#!/usr/bin/env python3
"""Extra reference phrases: literal runs feed a reservoir of matches.

A segment absent from the reference appears in two derived sequences.
The first occurrence is coded as literals and appended to the extended
reference on the fly; the second occurrence becomes a reservoir match
instead of literals, and random access into it resolves through the
provenance table back to the first sequence.
"""
import numpy as np

from rlzg import Archive, Collection, Sequence, compress
from rlzg.parse import LITERAL, MATCH, NRUN, RESERVOIR
from rlzg.synthetic import random_reference

KIND = {LITERAL: "literal", MATCH: "match", NRUN: "n-run", RESERVOIR: "reservoir"}

rng = np.random.default_rng(21)
ref = random_reference(rng, 60_000)
novel = random_reference(rng, 500)  # unknown to the reference

a = np.concatenate([ref[:30_000], novel, ref[30_000:]])
b = np.concatenate([ref[10_000:50_000], novel, ref[50_000:]])
coll = Collection([Sequence("ref", ref), Sequence("a", a), Sequence("b", b)])
arc = Archive.from_bytes(compress(coll).to_bytes())

for name in ("a", "b"):
    print(f"factors of {name}:")
    for pos, f in arc.iter_factors(name):
        print(f"  @{pos:>6}  {KIND[f.kind]:<9} advance={f.advance}")

prov = arc.provenances[0]
print("reservoir provenance (origin, position, length):", prov.rows.tolist())

spans = [(p, p + f.advance) for p, f in arc.iter_factors("b") if f.kind == RESERVOIR]
lo, hi = spans[0]
got = arc.extract("b", lo + 10, hi - 10)
assert np.array_equal(got, b[lo + 10 : hi - 10])
print(f"extract inside the reservoir match b[{lo + 10}:{hi - 10}]: exact "
      "(resolved through sequence a)")
