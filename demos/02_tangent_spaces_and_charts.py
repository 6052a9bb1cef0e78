"""Tangent, orbit and normal data at a point of the variety of complexes.

At a differential D, the tangent space to the variety of complexes is the
space of degree-1 morphisms f with Df + fD = 0; the tangent space to the
group orbit through D is the subspace of null-homotopic ones f = sD - Ds.
The quotient has dimension sum_i h_i h_{i+1}, computed from cohomology
alone: the transverse slice to the orbit is itself a (smaller) variety of
complexes on the cohomology.  The script checks this numerically on a
sample point, then exercises the local chart (g, delta) |-> g . D_delta
whose differential must be injective at (1, 0).
"""

import random

from varcom import (GradedDims, assemble_D_delta, canonical_representative,
                    enumerate_R, morphism_space, nullhomotopic_space,
                    rank_vector, tangent_data, validate)
from varcom.suites import random_complex

c = validate((2, 3, 2), [[[1, 0], [0, 0], [0, 0]], [[0, 0, 1], [0, 0, 0]]])
rv = rank_vector(c)
h = rv.cohomology_dims()
tangent = len(morphism_space(c))
orbit = len(nullhomotopic_space(c))
normal = sum(h[i] * h[i + 1] for i in range(c.dims.m))

print(f"dims {c.dims.n}, rank vector {rv.r}, cohomology dims {h}")
print(f"tangent dim {tangent} = orbit dim {orbit} + normal dim {normal}")
assert tangent - orbit == normal
td = tangent_data(c)
print(f"group dim {sum(n * n for n in c.dims)} = "
      f"orbit {td.orbit} + stabilizer {td.stabilizer}")

# the chart: deform the cohomology block by a differential delta on h
hd = GradedDims(h)
print(f"\nnormal directions form the variety of complexes on {hd.n}:")
for delta_rv in enumerate_R(hd):
    delta = canonical_representative(delta_rv)
    moved = assemble_D_delta(c, list(delta.diffs))
    print(f"  delta ranks {delta_rv.r} -> ambient ranks "
          f"{rank_vector(moved).r}")

print(f"\nchart jacobian rank {td.chart} = orbit {orbit} + normal {normal}")
assert td.chart == orbit + normal

# the same identity on a few random stratum points
rng = random.Random(0)
for _ in range(5):
    dims = GradedDims([rng.randint(0, 3) for _ in range(rng.randint(2, 4))]
                      or [1])
    if dims.total() == 0:
        continue
    cc, rr = random_complex(rng, dims)
    hh = rr.cohomology_dims()
    nn = sum(hh[i] * hh[i + 1] for i in range(dims.m))
    oo = len(nullhomotopic_space(cc))
    assert tangent_data(cc).chart == oo + nn
    print(f"random point: dims {dims.n} r={rr.r}: chart rank "
          f"{oo + nn} as predicted")
