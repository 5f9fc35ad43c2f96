"""The solver suite: refinement commutant, telescoping potential, windowed
commutant system, and the logarithmic relabeling of the spectrum.

Run with: python3 demos/functional_equations.py
"""

import math

from waveq import (
    GammaMap,
    casimir_constancy_check,
    gamma_eval,
    gamma_ladder_report,
    parse_laurent,
    prop1_solve,
    solve_casimir_chi,
    solve_refinement,
    suq2_bridge_check,
)


def poly_line(p):
    return " ".join(
        f"{c.real:+.4g}*T^{float(e.value):+g}"
        for e, c in sorted(p.terms(), key=lambda t: t[0].value)
    )


def main():
    print("== detail symbols from mask symbols ==")
    for label, mask in (("box", "1 + T^-1"), ("hat", "1/2 + T^-1/2 + 1/2*T^-1")):
        sol = solve_refinement(parse_laurent(mask), 4)
        print(f"  {label} mask c = {mask}")
        print(f"    b = {sol.b}  (exact: solved by recursion in rationals)")
        print(f"    rho = {complex(sol.rho).real:g}, "
              f"zero order {sol.zero_order}, residual {sol.residual}")

    print()
    print("== telescoping potential for the ladder commutator ==")
    r = parse_laurent("1/4*T^2 + 1/4*T^-1 - 1/4*T^1/2 - 1/4*T^-1/2")
    chi = solve_casimir_chi(r).chi
    print(f"  chi = {poly_line(chi)} (plus a free constant)")
    flat = casimir_constancy_check(range(0, 4), math.log(2.0))
    print(f"  conserved combination on the rate family: "
          f"{complex(flat['reference']).real:g}, spread {flat['max_spread']:.1e}")
    print(f"  ordering difference: {flat['max_ordering_difference']:.1e}")

    print()
    print("== windowed commutant system ==")
    for k in (8, 16, 32):
        rep = prop1_solve(k)
        print(f"  window {k}: nullspace dim {rep['nullspace_dim']}, "
              f"residuals {rep['trivial_residual']} (1 + u) and "
              f"{rep['complement_residual']} (its orthogonal complement, "
              f"{rep['complement_nonzero_count']} nonzero coefficients)")
    rep = prop1_solve(8)
    print(f"  the printed candidate pattern misses one interior constraint: "
          f"residual {rep['pattern_constraint_residual']:g} (reported, not used)")

    print()
    print("== logarithmic relabeling ==")
    m = GammaMap(b_const=1.0, sign=1)
    rep = gamma_ladder_report(m)
    print(f"  unit-shift law max error on 100 points: {rep['max_step_error']:.2e}")
    for xi in (math.cosh(1.0), math.cosh(2.0), math.cosh(4.0)):
        print(f"    Gamma({xi:10.4f}) = {gamma_eval(m, xi):+.6f}")

    print()
    print("== the spectrum relabeled is a q-integer ladder ==")
    a_tilde = math.log(2.0)
    bridge = suq2_bridge_check(
        GammaMap(b_const=a_tilde, sign=1), s=1.0, a_tilde=a_tilde,
        n_range=range(0, 4),
    )
    print(f"  Gamma steps by -1 per doubling: within "
          f"{bridge['max_gamma_step_error']:.1e}")
    print(f"  phi = q^(-Gamma) gains a factor q = e per step: within "
          f"{bridge['max_phi_ratio_error']:.1e}")
    print("  tabulated against q-integers (no claim asserted):")
    for row in bridge["bridge_rows"]:
        f_re, f_im = row["f_value"]
        print(f"    j0={row['j0']:+.0f}: xi={row['xi']:.6f}, "
              f"symbol value {f_re:+.6f}{f_im:+.6f}i, "
              f"[2 j0]_q = {row['q_bracket_2j0']:+.6f}")


if __name__ == "__main__":
    main()
