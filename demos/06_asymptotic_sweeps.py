#!/usr/bin/env python3
"""Distribution laws, critical scale orders, and classification.

Hemispheres with curvature kappa/n converge to the half-Gaussian ray;
flat balls with mean curvature lam/n and horospherical warped products
with the 1/n schedule converge to the exponential ray.  A parametrized
family concentrates at the boundary exactly when its n-weighted
curvature scale grows without bound.
"""

from boundarylab.asymptotics import (
    SequenceSpec,
    classify_concentration,
    distribution_law,
    euclid_ball_sweep,
    hemisphere_sweep,
    warped_sweep,
)

ns = [8, 16, 32, 64, 128, 256]

print("=== hemisphere sweep (kappa=1, eta=0.5) ===")
report = hemisphere_sweep(1.0, 0.5, ns)
print("n      value      gap to half-Gaussian quantile")
for row in report.rows:
    print(f"{row.n:4d}  {row.value:.6f}  {row.gap:.2e}")

print()
print("=== flat-ball and warped sweeps share the exponential limit ===")
eb = euclid_ball_sweep(1.0, 0.5, ns)
wp = warped_sweep(-1.0, 0.5, ns)
print(f"flat-ball limit {eb.rows[0].limit:.6f}; cross-check vs jacobi.v_inverse "
      f"max dev {eb.extras['cross_check_max']:.2e}")
print(f"warped values from above: {[round(r.value, 5) for r in wp.rows[:4]]}")

print()
print("=== KS distance to the limit law halves with n ===")
for family, param in (("hemisphere", 1.0), ("euclid_ball", 1.0), ("warped", -1.0)):
    ks = [distribution_law(family, param, n)[1] for n in (32, 64, 128, 256)]
    print(f"{family:12s}: " + "  ".join(f"{v:.5f}" for v in ks))

print()
print("=== classification by the driver criterion ===")
cases = [
    ("euclid_ball", {"lambda": {"kind": "power", "coef": 1.0, "exp": -0.5}}),
    ("euclid_ball", {"lambda": {"kind": "power", "coef": 1.0, "exp": -1.0}}),
    ("general_ball", {"kappa": 1.0, "lambda": 0.5}),
    ("general_ball", {"kappa": 1.0, "lambda": -0.5}),
    ("weighted_warped_gauss", {"kappa": -1.0, "delta": 0.3}),
]
for family, schedule in cases:
    spec = SequenceSpec(family, schedule, [4, 8, 16, 32])
    rep = classify_concentration(spec, 0.5)
    values = ", ".join(f"{r.value:.4f}" for r in rep.rows)
    print(f"{family:22s} {rep.verdict.value:22s} values: {values}")
