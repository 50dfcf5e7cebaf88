"""Walkthrough: decomposing change into selection and redistribution.

A process is a nonnegative kernel that fully accounts a child population in
terms of a parent population.  Any average change of a trait then splits
into a covariance-with-fitness term (selection) and a fitness-weighted
redistribution term (environment) -- with nothing left over.
"""

import numpy as np

from pricekit import (
    Observable,
    Population,
    TypeSet,
    classify_purity,
    fitness,
    price,
    price_factorize,
    process,
)

# Two parent types; type "a" has two children spread over both child types,
# type "b" produces half a child per unit of weight.
parents = Population(TypeSet(["a", "b"]), [1, 2])
p = process(parents, [[1.0, 1.0], [0.5, 0.0]])

fd = fitness(p)
print("child population:", p.target.weights)
print("fitness W:", fd.W.values, " selective coefficient:", fd.wbar)
print("relative fitness U:", fd.U.values, " childbearing share:", fd.p_star)

# A trait scored 1 on type a, 0 elsewhere (same for the child types).
x = Observable(p.source.types, [1.0, 0.0])
y = Observable(p.target.types, [1.0, 0.0])
d = price(p, x, y)
print("\ntrait change:", d.delta)
print("  selection term:   ", d.ns)
print("  environment term: ", d.ec)
print("  residual:         ", d.residual)

# Every process is "scale then shuffle": a diagonal fitness scaling into an
# intermediate population, followed by a row-stochastic redistribution.
fac = price_factorize(p)
print("\nfitness diagonal:", fd.W.values)
print("redistribution rows:\n", fac.environmental.kernel)
print("product reproduces the kernel:",
      np.allclose(fac.selective.kernel @ fac.environmental.kernel, p.kernel))
print("purity of the full process:", classify_purity(p).value)
print("purity of the redistribution factor:",
      classify_purity(fac.environmental).value)
