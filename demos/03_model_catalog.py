#!/usr/bin/env python3
"""The model-space catalog and the comparison bounds it calibrates.

Each catalog entry exposes its boundary-distance screen, whose exact
tail inverse is the closed form for the observable inscribed radius; the
comparison dispatcher returns those values as upper bounds for arbitrary
admissible spaces.
"""

import math

import numpy as np

from boundarylab import jacobi
from boundarylab.models import (
    FiniteN,
    Infinite,
    ModelSpace,
    Twisted,
    boundary_screen,
    closed_form_obs_inradius,
    comparison_bound,
    generate_admissible_infinite,
    normalization_audit,
    volume_ratio_audit,
)
from boundarylab.screens import obs_inradius

catalog = [
    ModelSpace.ball(3, 1.0, 0.2),
    ModelSpace.warped(3, -1.0),
    ModelSpace.half_gaussian(1.0, 0.0),
    ModelSpace.exponential(1.0),
    ModelSpace.weighted_warped_exp(3, 7.0, -1.0),
    ModelSpace.weighted_warped_gauss(3, -1.0, 0.25),
]

# the closed form is the exact inverse of the boundary screen's tail, so
# the forward tail evaluated at it gives eta back
print("=== closed form at eta = 0.5 and the screen's tail mass there ===")
for m in catalog:
    closed = closed_form_obs_inradius(m, 0.5)
    tail = boundary_screen(m).tail_closed(closed)
    print(f"{m.tag:22s} ObsInRad={closed:.8f} P[T >= ObsInRad]={tail:.12f}")

print()
print("=== constructions carry unit mass ===")
for m in catalog[-2:]:
    print(f"{m.tag:22s} recomputed mass = {normalization_audit(m):.12f}")

print()
print("=== comparison bounds for admissible spaces ===")
cc = jacobi.classify(1.0, 0.3)
print(f"finite (N=4, ball):      {comparison_bound(FiniteN(4.0, cc), 0.5):.6f}")
tp = jacobi.TwistParams(3, 0.0, 1.0, 0.5)
print(f"twisted (delta=0.5):     {comparison_bound(Twisted(tp), 0.5):.6f}")
ic = jacobi.classify_infinite(0.0, 2.0)
print(f"infinite (K=0, Lam=2):   {comparison_bound(Infinite(ic), math.exp(-2.0)):.6f}")

print()
print("=== a random admissible density sits under its bound ===")
rng = np.random.default_rng(7)
ic = jacobi.classify_infinite(1.0, 0.5)
density = generate_admissible_infinite(ic, rng)
s = density.screen()
for eta in (0.2, 0.5, 0.8):
    lhs = obs_inradius(s, eta)
    rhs = comparison_bound(Infinite(ic), eta)
    print(f"eta={eta:.1f}: screen ObsInRad={lhs:.6f} <= bound={rhs:.6f}")

audit = volume_ratio_audit(density, Infinite(ic), 0.3, 1.2)
print(f"relative volume audit: lhs={audit.lhs:.6f} rhs={audit.rhs:.6f} "
      f"satisfied={audit.satisfied}")
