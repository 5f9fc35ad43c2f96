"""Masks, cascade iteration, and the wavelets they generate.

The box and the peak-2 hat are exact fixed points of their two-scale
maps on a dyadic grid, so the cascade residual is zero from the start.
A perturbed start shows the iteration actually contracting.

Run with: python3 demos/two_scale_fixed_points.py
"""

import numpy as np

from waveq import (
    GridFunction,
    b2_system,
    box_grid,
    cascade,
    check_admissibility,
    haar_system,
    hat_grid,
    wavelet_from_scaling,
)


def mask_line(sys):
    parts = [f"{c:+.3g} T^{float(k):+g}" for k, c in sorted(
        sys.coeffs.items(), key=lambda kv: float(kv[0]))]
    return " ".join(parts)


def main():
    for sys, start in ((haar_system(), box_grid(7)), (b2_system(), hat_grid(7))):
        print(f"== {sys.name} ==")
        print(f"  mask: {mask_line(sys)}")
        adm = check_admissibility(sys)
        print(f"  coefficient sum {adm['coefficient_sum']}, "
              f"overlaps by shift l (target 2 at l = 0, else 0): {adm['overlaps']}")

        res = cascade(sys, start, iters=1)
        print(f"  fixed-point residual after one step: {res.residual}")

        # a noisy start converges back toward the profile
        rng = np.random.default_rng(7)
        noisy = GridFunction(
            start.resolution,
            start.window,
            start.values + 0.05 * rng.standard_normal(len(start.values)),
        )
        res = cascade(sys, noisy, iters=8)
        drift = [f"{h:.2e}" for h in res.history[:4]]
        print(f"  perturbed start, step-to-step change: {', '.join(drift)} ...")

        psi = wavelet_from_scaling(sys, start, form="canonical")
        print(f"  wavelet integral: {abs(psi.integral()):.2e} "
              f"on window {psi.window}")
        print()

    hat = hat_grid(7)
    print(f"hat profile peaks at {hat.value_at(0.5).real} at x = 1/2")
    print(f"hat endpoint values: {hat.value_at(0.0).real}, {hat.value_at(1.0).real}")


if __name__ == "__main__":
    main()
