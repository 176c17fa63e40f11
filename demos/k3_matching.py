"""Exact lattice arithmetic for the matching problem: the rank-22 lattice,
the rank-3 embedding, the two Diophantine impossibilities, and a
positive-square direction in the orthogonal complement."""

import numpy as np

from cone_forge import lattice as lat

print("== the rank-22 even unimodular lattice ==")
L = lat.build_k3_lattice()
print("rank:", L.rank, " determinant:", L.determinant(),
      " signature:", L.signature(), " even:", L.is_even())

print("\n== the matching embedding ==")
emb = lat.matching_embedding(L)
print("pair Gram on (pi, kplus, kminus):")
print(np.array(emb.source_gram, dtype=int))

print("\n== (-2)-class obstruction ==")
res = lat.constrained_class_search(list(emb.images), -2,
                                   [(emb.images[1], 0)], bound=1000, L=L)
c = res.certificate
print("reduced form:", c.reduced_form)
print(f"mod {c.modulus}: attainable residues {c.lhs_residues}, "
      f"target {c.rhs_residue} -> impossible")
print("enumeration to bound 1000:", res.solutions)

print("\n== elliptic-class obstruction ==")
res = lat.constrained_class_search(list(emb.images), 0,
                                   [(emb.images[1], 0), (emb.images[2], 2)],
                                   bound=1000, L=L)
print("certificate:", res.certificate.reduced_form,
      f"(mod {res.certificate.modulus})")
print("enumeration:", res.solutions)

print("\n== generic direction in the orthogonal complement ==")
T = lat.orthogonal_complement(L, list(emb.images))
print("complement rank:", len(T))
gd = lat.generic_direction(L, T)
print("direction square:", gd.square, " normalized:", gd.normalized)
