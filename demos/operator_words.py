"""A tour of the operator algebra: normal forms, the exchange rule, and
the halving word that rebuilds the difference-dilation operator.

Run with: python3 demos/operator_words.py
"""

import math

from waveq import (
    AlgebraParams,
    OpExpr,
    algebraic_form_check,
    build_generators,
    check_closure,
    commutator,
)
from waveq.laurent import Dyadic


def show(title, expr):
    print(f"  {title}: {len(expr)} terms")
    for t in expr.terms():
        print(f"    coeff {t.coeff.real:+.4g}  phase {t.mu.value:+.4g}  "
              f"dilation {t.beta.value:+.4g}  shift {t.alpha.value:+.4g}")


def main():
    print("== translations and dilations do not commute ==")
    # moving a dilation past a translation rescales the step by 2^beta
    t1 = OpExpr.translation(1)
    d1 = OpExpr.dilation(1)
    show("T D", t1 * d1)
    show("D T^2", d1 * OpExpr.translation(2))
    diff = (t1 * d1 - d1 * OpExpr.translation(2)).max_abs_coeff()
    print(f"  exchange-rule residual: {diff}")

    print()
    print("== the lowering generator expands into a halving word ==")
    for n in (1, 2, 4, 8):
        rep = algebraic_form_check(n)
        print(f"  n={n}: residual {rep['residual']}, "
              f"word terms {rep['word_terms']} (expected {2**n})")

    print()
    print("== the dyadic generator triple closes exactly ==")
    rep = check_closure(AlgebraParams(1.0, 1.0))
    print(f"  commutator residuals: r1={rep['r1']}, r2={rep['r2']}, r3={rep['r3']}")
    gs = build_generators(AlgebraParams(1.0, 1.0))
    print("  the ladder commutator is a pure translation symbol:")
    for e, c in sorted(gs.f.to_laurent().terms(), key=lambda t: t[0].value):
        print(f"    T^{float(e.value):+g} * {c.real:+.4g}")

    print()
    print("== half-integer shifts stay exact ==")
    half = OpExpr.translation(Dyadic(1, 1))
    w = half * half * OpExpr.translation(-1)
    print(f"  T^(1/2) T^(1/2) T^(-1) reduces to {len(w)} term(s), "
          f"identity residual {(w - OpExpr.identity()).max_abs_coeff()}")

    print()
    print("== a generic parameter point closes too ==")
    s = 0.37
    rep = check_closure(AlgebraParams(s, 0.0))
    print(f"  s={s}: max residual {rep['max_residual']:.3e}")
    gs = build_generators(AlgebraParams(s, 0.0))
    r = commutator(gs.w0, gs.w_plus) - gs.g * gs.w_plus
    print(f"  recomputed first relation residual {r.max_abs_coeff():.3e}")
    print(f"  q-deformation scale q = e^s = {math.exp(s):.6f}")


if __name__ == "__main__":
    main()
