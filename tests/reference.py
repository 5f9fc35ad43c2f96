"""Reference rules the tests compare the library against."""

import numpy as np


def term_by_term(expr, f, xs):
    """(expr f)(xs) for a function f known at every real point, written out
    one normal-form term at a time: each term adds c e^{i mu x} f(2^beta x + alpha)."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros(xs.shape, dtype=complex)
    for t in expr.terms():
        vals = np.asarray(f((2.0 ** t.beta.value) * xs + t.alpha.value), dtype=complex)
        if t.mu.value != 0.0:
            vals = vals * np.exp(1j * t.mu.value * xs)
        out += t.coeff * vals
    return out
