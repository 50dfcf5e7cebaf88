"""Walkthrough: the operator version of the change decomposition.

States become positive matrices, processes become positive maps, and the
fitness operator is the adjoint pullback of the identity.  Noncommuting
observables split the decomposition into left and right variants whose
selective terms differ by a commutator expectation -- the quantumness of
the pair.  Diagonal everything reproduces the classical numbers exactly.
"""

import numpy as np

from pricekit import (
    DensityOperator,
    Population,
    QuantumObservable,
    QuantumProcess,
    TypeSet,
    embed_observable,
    embed_process,
    fitness,
    kraus_to_super,
    price,
    process,
    q_laws,
    q_price,
)

# Classical process embedded on the diagonal.
classical = process(Population(TypeSet(["a", "b"]), [1, 2]), [[1.0, 1.0], [0.5, 0.0]])
w = embed_process(classical)
from pricekit import Observable

x = Observable(classical.source.types, [1.0, 0.0])
y = Observable(classical.target.types, [1.0, 0.0])
classical_result = price(classical, x, y)
quantum_result = q_price(w, embed_observable(x.values), embed_observable(y.values))
print("classical terms:", classical_result.ns, classical_result.ec)
print("embedded terms: ", quantum_result.left.ns.real, quantum_result.left.ec.real)

# A genuinely quantum pair: an off-diagonal observable against a damping map.
a = np.diag([np.sqrt(2), 0.0]).astype(complex)
damp = QuantumProcess(kraus_to_super([a]), DensityOperator(np.eye(2)))
fd = fitness(damp)
print("\nfitness operator:\n", fd.W.matrix.real)
print("childbearing share of the state:", fd.p_star)

sigma_x = QuantumObservable(np.array([[0, 1], [1, 0]], dtype=complex))
res = q_price(damp, sigma_x, QuantumObservable(np.eye(2)))
print("left total:", res.left.total, " right total:", res.right.total)
print("commutator gap (quantumness):", res.commutator_gap)

print("\nlaw chains on the damping map (matches the classical life-or-death case):")
for name, rep in q_laws(damp).items():
    print(f"  {name:14s} lhs {rep.lhs:+.6f}  bounds {[round(b, 6) for b in rep.bounds]}")
