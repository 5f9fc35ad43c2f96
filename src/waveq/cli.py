"""Command-line front end: presets, solvers, chart data, and the check suite.

Every run writes two files into the output directory: ``<subcommand>.csv``
with the numeric payload and ``<subcommand>.manifest.json`` echoing the
full effective configuration next to the headline results.  Outputs are
deterministic: no timestamps, no absolute paths, floats at 17 significant
digits, so identical configurations produce byte-identical files.

Flags may also be supplied through ``--config FILE`` (a JSON object whose
keys are the flag names); explicit flags win over config-file values.

Exit codes: 0 on success, 1 when ``check`` fails or a computation cannot
be completed (no solution in the window, divergence, overflow, an inf or
nan output, which writes no file), 2 on a
usage error.  Usage errors name the offending flag and print a one-line
usage string.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

from .acceptance import format_report, run_all
from .funceq import (
    GammaMap,
    SymbolDomainError,
    casimir_constancy_check,
    gamma_ladder_report,
    prop1_solve,
    solve_casimir_chi,
    solve_refinement,
    suq2_bridge_check,
)
from .gridfn import GridFunction
from .laurent import LaurentError, LaurentParseError, LaurentPoly, parse_laurent
from .qdeform import DYADIC_F, AlgebraParams, check_closure, verify_general_closure
from .scaling import (
    PRESETS,
    CascadeDivergenceError,
    box_midpoint_profile,
    box_profile,
    cascade,
    deformed_scaling_report,
    hat_profile,
    limit_build,
    limit_build_report,
    wavelet_from_scaling,
)
from .spectra import a2half_step, fig1_report, iterate_spectrum, ladder_check

__all__ = ["NonFiniteOutputError", "RunConfig", "dispatch", "main"]


class UsageError(Exception):
    """A bad flag or config value; carries the offending flag name."""

    def __init__(self, flag: str, message: str):
        super().__init__(message)
        self.flag = flag


class NonFiniteOutputError(ValueError):
    """An inf or nan bound for a CSV cell or a manifest value; names which."""


# -- value coercion ------------------------------------------------------------------
# Flag values arrive as strings; config-file values may already be typed.
# Both go through the same coercers so the two sources behave identically.


def _as_int(v) -> int:
    if isinstance(v, bool):
        raise ValueError("expected an integer")
    if isinstance(v, float):
        if not v.is_integer():
            raise ValueError(f"expected an integer, got {v!r}")
        return int(v)
    return int(v)


def _as_float(v) -> float:
    if isinstance(v, bool):
        raise ValueError("expected a number")
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {x!r}")
    return x


def _as_str(v) -> str:
    if not isinstance(v, str):
        raise ValueError(f"expected a string, got {v!r}")
    return v


def _split(v) -> list:
    if isinstance(v, str):
        return [p.strip() for p in v.split(",") if p.strip()]
    if isinstance(v, (list, tuple)):
        return list(v)
    raise ValueError(f"expected a comma-separated list, got {v!r}")


def _as_int_list(v) -> list[int]:
    out = [_as_int(p) for p in _split(v)]
    if not out:
        raise ValueError("list must not be empty")
    return out


def _as_float_list(v) -> list[float]:
    out = [_as_float(p) for p in _split(v)]
    if not out:
        raise ValueError("list must not be empty")
    return out


def _at_least(bound: int, coerce: Callable = _as_int) -> Callable:
    """coerce, then refuse an integer, or a list entry, below bound."""
    wanted = "a nonnegative integer" if bound == 0 else f"an integer >= {bound}"

    def checked(v):
        value = coerce(v)
        low = min(value) if isinstance(value, list) else value
        if low < bound:
            raise ValueError(f"expected {wanted}, got {low}")
        return value

    return checked


def _nonzero(v) -> float:
    x = _as_float(v)
    if x == 0.0:
        raise ValueError(f"expected a nonzero number, got {x!r}")
    return x


def _above_one(v) -> float:
    x = _as_float(v)
    if not x > 1.0:
        raise ValueError(f"expected a number > 1, got {x!r}")
    return x


def _gamma_scale(v) -> float:
    """A positive b whose cosh exceeds 1.0: the anchor Gamma(cosh b) needs both."""
    b = _as_float(v)
    if _cosh_is_one(b):
        raise ValueError(f"cosh(b) rounds to 1.0 at b = {b!r}; "
                         "gamma needs |b| > 2^-26 (about 1.49e-08)")
    if b < 0.0:
        raise ValueError(f"expected a positive number, got {b!r}")
    return b


def _as_ladder_steps(v) -> list[int]:
    """An integer list that sorts to at least two consecutive indices."""
    ns = _as_int_list(v)
    steps = sorted(ns)
    if len(steps) < 2 or any(b != a + 1 for a, b in zip(steps, steps[1:])):
        raise ValueError(f"expected at least two consecutive indices, got {ns}")
    return ns


def _as_window(v) -> tuple[int, int]:
    parts = _split(v)
    if len(parts) != 2:
        raise ValueError(f"expected lo,hi, got {v!r}")
    lo, hi = _as_int(parts[0]), _as_int(parts[1])
    if lo >= hi:
        raise ValueError(f"window needs lo < hi, got {lo},{hi}")
    return (lo, hi)


def _as_symbol(v) -> LaurentPoly:
    return parse_laurent(_as_str(v))


def _as_sign(v) -> int:
    s = _as_int(v)
    if s not in (1, -1):
        raise ValueError(f"expected 1 or -1, got {s}")
    return s


def _choice(*options: str) -> Callable[[object], str]:
    def coerce(v):
        s = _as_str(v)
        if s not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {s!r}")
        return s

    return coerce


# -- flag tables ---------------------------------------------------------------------


@dataclass(frozen=True)
class _Opt:
    flag: str
    coerce: Callable
    default: object
    help: str
    required: bool = False

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


_COMMON = (
    _Opt("--output", _as_str, ".", "directory for the CSV and manifest files"),
    _Opt("--config", _as_str, None, "JSON file with flag values; flags win"),
)

_PROFILES = {"box": box_profile, "box-midpoint": box_midpoint_profile, "hat": hat_profile}
_SYSTEM = _Opt("--system", _choice(*PRESETS), "haar", "mask preset")

_SUBCOMMANDS: dict[str, tuple[str, tuple[_Opt, ...]]] = {
    "cascade": (
        "iterate the two-scale map on a start profile",
        (
            _SYSTEM,
            _Opt(
                "--start",
                _choice("auto", *_PROFILES),
                "auto",
                "start profile; auto picks the system's fixed point",
            ),
            _Opt("--iters", _at_least(0), 1, "number of iterations"),
            _Opt("--resolution", _at_least(0), 8, "grid spacing exponent J (step 2^-J)"),
            _Opt("--window", _as_window, (-1, 2), "grid window lo,hi"),
        ),
    ),
    "wavelet": (
        "build the mother wavelet from a scaling profile",
        (
            _SYSTEM,
            _Opt(
                "--start",
                _choice("auto", *_PROFILES),
                "auto",
                "scaling profile; auto picks the system's fixed point",
            ),
            _Opt("--resolution", _at_least(0), 6, "grid spacing exponent J"),
            _Opt(
                "--form",
                _choice("canonical", "literal"),
                "canonical",
                "alternating-mask form (canonical covers half-step masks)",
            ),
        ),
    ),
    "limit": (
        "convergence of the one-word limit construction",
        (
            _Opt("--preset", _choice(*PRESETS), "haar", "target profile"),
            _Opt(
                "--delta",
                _choice("auto", "arctan", "tanh", "tri"),
                "auto",
                "seed flavor; auto picks arctan (haar) or tri (b2)",
            ),
            _Opt("--n", _at_least(1, _as_int_list), [8, 12, 16, 20],
                 "word orders, comma-separated"),
            _Opt("--resolution", _at_least(0), 10, "grid spacing exponent J"),
            _Opt("--window", _as_window, (-1, 2), "grid window lo,hi"),
            _Opt(
                "--emit",
                _choice("errors", "profile"),
                "errors",
                "CSV payload: the error table or the highest-order profile",
            ),
        ),
    ),
    "spectrum": (
        "iterate an eigenvalue map and emit the trace",
        (
            _Opt("--a0", _as_float, 0.9, "starting value"),
            _Opt("--n", _at_least(0), 16, "number of steps"),
            _Opt(
                "--map",
                _choice("doubling", "half"),
                "doubling",
                "doubling: a -> 2a^2 - 1; half: hyperbolic-sine doubling",
            ),
        ),
    ),
    "ladder": (
        "raising/lowering actions on exponential modes",
        (
            _Opt("--a-tilde", _nonzero, math.log(2.0), "base rate (nonzero)"),
            _Opt("--n", _as_int_list, [0, 1, 2, 3], "rate doublings, comma-separated"),
            _Opt("--modes", _at_least(1, _as_int_list), [2, 3, 4, 8],
                 "oscillating mode orders (>= 1)"),
        ),
    ),
    "closure": (
        "commutator residuals of the generator triple",
        (
            _Opt("--s", _nonzero, 1.0, "deformation parameter (nonzero)"),
            _Opt("--alpha", _as_float, 1.0, "offset parameter"),
        ),
    ),
    "general-closure": (
        "closure residuals for caller-supplied symbols",
        (
            _Opt("--j0", _as_symbol, None, "averaging symbol, e.g. '1/2*T^1 + 1/2*T^-1'", required=True),
            _Opt("--j", _as_symbol, None, "ladder symbol, e.g. '1/2 + 1/2*T^-1'", required=True),
            _Opt("--s", _as_float, 1.0, "scale parameter"),
        ),
    ),
    "solve-b": (
        "solve the refinement-commutant equation for the detail symbol",
        (
            _Opt("--c", _as_symbol, None, "mask symbol, e.g. '1 + T^-1'", required=True),
            _Opt("--window", _at_least(1), 4, "support bound: |exponent| <= window"),
        ),
    ),
    "casimir": (
        "telescoping potential and the conserved combination",
        (
            _Opt("--r", _as_symbol, parse_laurent(DYADIC_F),
                 "driving symbol for the telescoping equation"),
            _Opt("--a-tilde", _as_float, math.log(2.0), "base rate for the constancy scan"),
            _Opt("--n", _as_int_list, [0, 1, 2, 3], "rate doublings for the scan"),
        ),
    ),
    "prop1": (
        "windowed commutant system: nullspace and candidate pattern",
        (
            _Opt("--window", _at_least(4), 8, "exponent window half-width K"),
        ),
    ),
    "gamma": (
        "logarithmic relabeling of the coarsening step",
        (
            _Opt("--b", _gamma_scale, 1.0, "scale constant (positive)"),
            _Opt("--sign", _as_sign, 1, "orientation, 1 or -1"),
            _Opt("--points", _at_least(2), 100, "log-spaced grid size"),
            _Opt("--lo", _above_one, 1.001, "grid start (must exceed 1)"),
            _Opt("--hi", _as_float, 1.0e3, "grid end (must exceed --lo)"),
        ),
    ),
    "bridge": (
        "relabel the eigenvalue ladder and tabulate against q-integers",
        (
            _Opt("--s", _nonzero, 1.0, "deformation parameter (nonzero)"),
            _Opt("--a-tilde", _as_float, math.log(2.0), "base rate (nonzero)"),
            _Opt("--b", _as_float, None, "relabeling scale (positive); defaults to a-tilde"),
            _Opt("--sign", _as_sign, 1, "relabeling orientation"),
            _Opt("--n", _as_ladder_steps, [0, 1, 2, 3], "consecutive ladder steps"),
            _Opt("--j0", _as_float_list, [0.0, -1.0, -2.0], "table abscissas"),
        ),
    ),
    "fig1": (
        "eigenvalue curves over the unit interval",
        (
            _Opt("--n", _at_least(0, _as_int_list), [2, 4, 6],
                 "iteration orders, comma-separated"),
            _Opt("--grid", _at_least(2), 512, "points across [0, 1]"),
        ),
    ),
    "fig2": (
        "deformed profile family against the box",
        (
            _Opt("--s-values", _as_float_list, [0.0, 0.25, 0.5, 0.75, 1.0],
                 "deformation parameters, comma-separated"),
            _Opt("--n", _at_least(1), 16, "word order"),
            _Opt("--resolution", _at_least(0), 8, "grid spacing exponent J"),
        ),
    ),
    "check": (
        "run every acceptance check and report pass/fail per name",
        (),
    ),
}


@dataclass(frozen=True)
class RunConfig:
    """A subcommand plus its full effective parameter set.

    ``params`` holds every option after merging flags, config-file values,
    and defaults, so echoing it reproduces the run exactly.
    """

    subcommand: str
    params: dict


# -- JSON-safe conversion --------------------------------------------------------------


def _poly_terms(p: LaurentPoly) -> list[list[float]]:
    """Sorted [exponent, re, im] triples for a Laurent symbol."""
    return [
        [float(e.value), float(c.real), float(c.imag)]
        for e, c in sorted(p.terms(), key=lambda t: t[0].value)
    ]


def _jsonable(obj, key: str):
    """obj as JSON values; key names it (dotted, with list indices) in errors."""
    if isinstance(obj, LaurentPoly):
        return {"terms": _poly_terms(obj)}
    if isinstance(obj, complex):
        return [_jsonable(obj.real, key), _jsonable(obj.imag, key)]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v, f"{key}.{k}") for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, f"{key}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, float) and not math.isfinite(obj):
        raise NonFiniteOutputError(f"manifest value {key} is {obj!r}")
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "item"):
        return _jsonable(obj.item(), key)
    return repr(obj)


def _fmt(x: float, name: str) -> str:
    if not math.isfinite(x):
        raise NonFiniteOutputError(f"{name} is {x!r}")
    return f"{x + 0.0:.17g}"


def _csv(header: str, rows) -> str:
    """header and rows as CSV text: a float at 17 significant digits with -0.0 as 0, any
    other cell by str, an inf or nan refused naming its column.  A column of floats, or of
    no floats, has one format, so a row is one % of the line format."""
    names, table = header.split(","), list(zip(*rows))
    columns, floats = [], []
    for col in table:
        count = sum(map(isinstance, col, repeat(float)))
        if 0 < count < len(col):  # floats among other cells: each is written on its own
            col = ["%.17g" % (v + 0.0) if isinstance(v, float) else str(v) for v in col]
        columns.append(col)
        floats.append(count == len(col))
    line = ",".join("%.17g" if f else "%s" for f in floats) + "\n"
    body = "".join(map(line.__mod__, zip(*columns)))
    if "inf" in body or "nan" in body:  # a float cell may be inf or nan: find the first
        for name, col in zip(names, table):
            bad = [v for v in col if isinstance(v, float) and not math.isfinite(v)]
            if bad:
                raise NonFiniteOutputError(f"CSV column {name} is {bad[0]!r}")
    if "-0," in body or "-0\n" in body:  # a float cell may be -0.0: write it as 0
        columns = [[v + 0.0 for v in col] if f else col for col, f in zip(columns, floats)]
        body = "".join(map(line.__mod__, zip(*columns)))
    return f"{header}\n{body}"


def _grid_csv(g: GridFunction) -> str:
    vals = g.values
    im = vals.imag.tolist() if vals.dtype.kind == "c" else [0.0] * len(vals)
    return _csv("x,re,im", zip(g.x_points().tolist(), vals.real.tolist(), im))


def _cosh_is_one(x: float, n: int = 0) -> bool:
    """Whether cosh(2^n x) rounds to 1.0, which it does for |2^n x| <= 2^-26."""
    try:
        return math.cosh(math.ldexp(x, n)) == 1.0
    except OverflowError:
        return False


# -- runners ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    csv: str
    results: dict
    summary: str
    exit_code: int = 0


def _start_grid(p: dict, window) -> GridFunction:
    auto = p["start"] == "auto"
    profile = PRESETS[p["system"]].profile if auto else _PROFILES[p["start"]]
    return GridFunction.from_callable(profile, p["resolution"], window)


def _run_cascade(p: dict) -> RunResult:
    res = cascade(PRESETS[p["system"]].system, _start_grid(p, p["window"]), p["iters"])
    results = {
        "residual": res.residual,
        "iterations": res.iterations,
        "step_changes": list(res.history),
    }
    return RunResult(_grid_csv(res.phi), results, f"residual {_fmt(res.residual, 'residual')}")


def _run_wavelet(p: dict) -> RunResult:
    phi = _start_grid(p, (-1, 2))
    psi = wavelet_from_scaling(PRESETS[p["system"]].system, phi, form=p["form"])
    mean = psi.integral()
    results = {
        "integral": mean,
        "window": list(psi.window),
        "resolution": psi.resolution,
    }
    return RunResult(_grid_csv(psi), results, f"integral magnitude {abs(mean):.3g}")


def _run_limit(p: dict) -> RunResult:
    delta = PRESETS[p["preset"]].seeds[0] if p["delta"] == "auto" else p["delta"]
    orders = p["n"]
    rep = limit_build_report(
        p["preset"], delta, tuple(orders), p["resolution"], p["window"]
    )
    if p["emit"] == "errors":
        rows = [[n, rep["errors"][n]["l1"], rep["errors"][n]["max"]] for n in orders]
        csv = _csv("n,l1_error,max_error", rows)
    else:
        csv = _grid_csv(limit_build(
            p["preset"], delta, max(orders), p["resolution"], p["window"]
        ))
    final = rep["errors"][max(orders)]["l1"]
    results = {
        "delta": delta,
        "errors": {str(n): rep["errors"][n] for n in orders},
        "monotone_l1": rep["monotone_l1"],
    }
    return RunResult(
        csv,
        results,
        f"l1 error {final:.3g} at order {max(orders)}, monotone {rep['monotone_l1']}",
    )


def _run_spectrum(p: dict) -> RunResult:
    if p["map"] == "doubling":
        trace = iterate_spectrum(p["a0"], n=p["n"])
    else:
        trace = iterate_spectrum(p["a0"], step=a2half_step, n=p["n"])
    csv = _csv("n,a_n", trace.values)  # refused before the summary reads the last value
    last_n, last_a = trace.values[-1]
    results = {
        "closed_form_tag": trace.closed_form_tag,
        "overflow_at": trace.overflow_at,
        "steps_recorded": len(trace.values) - 1,
        "final": {"n": last_n, "a_n": last_a},
    }
    return RunResult(csv, results, f"{len(trace.values) - 1} steps, a_final {last_a:.6g}")


def _run_ladder(p: dict) -> RunResult:
    rep = ladder_check(p["a_tilde"], p["n"], tuple(p["modes"]))
    rows = [
        [
            r["n"],
            r["rate"],
            r["a_n"],
            r["a_n_error"],
            complex(r["minus_coeff"]).real,
            r["minus_coeff_error"],
            r["minus_rate_error"],
            complex(r["plus_coeff"]).real,
            r["plus_coeff_error"],
            r["plus_rate_error"],
        ]
        for r in rep["ladder_rows"]
    ]
    csv = _csv(
        "n,rate,a_n,a_n_error,minus_coeff,minus_coeff_error,minus_rate_error,"
        "plus_coeff,plus_coeff_error,plus_rate_error",
        rows,
    )
    results = {
        "max_ladder_error": rep["max_ladder_error"],
        "max_mode_error": rep["max_mode_error"],
        "mode_rows": rep["mode_rows"],
        "constant_fixed_minus": rep["constant_fixed_minus"],
        "constant_fixed_plus": rep["constant_fixed_plus"],
    }
    return RunResult(
        csv,
        results,
        f"max ladder error {rep['max_ladder_error']:.2e}, "
        f"max mode error {rep['max_mode_error']:.2e}",
    )


def _run_closure(p: dict) -> RunResult:
    rep = check_closure(AlgebraParams(p["s"], p["alpha"]))
    rows = [[k, rep[k]] for k in ("r1", "r2", "r3", "max_residual")]
    results = {k: v for k, v in rep.items() if k not in ("s", "alpha")}
    return RunResult(
        _csv("quantity,value", rows),
        results,
        f"max residual {rep['max_residual']:.3g}",
    )


def _run_general_closure(p: dict) -> RunResult:
    rep = verify_general_closure(p["j0"], p["j"], p["s"])
    rows = [[k, rep[k]] for k in ("r1", "r2", "r3", "max_residual", "j_at_one")]
    results = {k: v for k, v in rep.items() if k != "s"}
    return RunResult(
        _csv("quantity,value", rows),
        results,
        f"max residual {rep['max_residual']:.3g}",
    )


def _run_solve_b(p: dict) -> RunResult:
    try:
        sol = solve_refinement(p["c"], p["window"])
    except SymbolDomainError as exc:
        raise UsageError("--c", f"invalid value for --c: {exc}") from exc
    results = {
        "b": sol.b,
        "rho": sol.rho,
        "residual": sol.residual,
        "zero_order": sol.zero_order,
        "support_bound": sol.support_bound,
    }
    return RunResult(
        _csv("exponent,re,im", _poly_terms(sol.b)),
        results,
        f"rho {_fmt(complex(sol.rho).real, 'rho')}, residual {sol.residual:.2e}",
    )


def _run_casimir(p: dict) -> RunResult:
    try:
        solve = solve_casimir_chi(p["r"])
    except SymbolDomainError as exc:
        raise UsageError("--r", f"invalid value for --r: {exc}") from exc
    flat = casimir_constancy_check(p["n"], p["a_tilde"])
    csv = _csv("exponent,re,im", _poly_terms(solve.chi))
    results = {"chi": solve.chi, "free_constant": solve.free_constant,
               "constancy": flat}
    if "skipped" in flat:
        summary = f"potential solved; constancy scan skipped ({flat['skipped']})"
    else:
        summary = (
            f"combination value {complex(flat['reference']).real:.6g}, "
            f"spread {flat['max_spread']:.2e}"
        )
    return RunResult(csv, results, summary)


def _run_prop1(p: dict) -> RunResult:
    rep = prop1_solve(p["window"])
    k = rep["window"]
    basis = rep["basis"]
    header = "exponent," + ",".join(f"basis_{i}" for i in range(len(basis)))
    rows = []
    for e in range(-k, k + 1):
        vals = [float(b.get(e, 0.0)) for b in basis]
        if any(v != 0.0 for v in vals):
            rows.append([e, *vals])
    results = {key: v for key, v in rep.items()}
    return RunResult(
        _csv(header, rows),
        results,
        f"nullspace dim {rep['nullspace_dim']}, "
        f"trivial residual {_fmt(rep['trivial_residual'], 'trivial residual')}, "
        f"pattern residual {_fmt(rep['pattern_constraint_residual'], 'pattern residual')}",
    )


def _run_gamma(p: dict) -> RunResult:
    if not p["lo"] < p["hi"]:
        raise UsageError("--hi", f"--hi must exceed --lo, got --lo={p['lo']!r}, --hi={p['hi']!r}")
    m = GammaMap(b_const=p["b"], sign=p["sign"])
    rep = gamma_ladder_report(m, p["points"], p["lo"], p["hi"])
    return RunResult(
        _csv("xi,gamma,gamma_after_step,step_error", rep["rows"]),
        {key: v for key, v in rep.items() if key != "rows"},
        f"max step error {rep['max_step_error']:.2e} on {p['points']} points",
    )


def _run_bridge(p: dict) -> RunResult:
    if _cosh_is_one(p["a_tilde"], n := min(p["n"])):  # Gamma(a_n) needs a_n > 1
        raise UsageError(
            "--a-tilde" if _cosh_is_one(p["a_tilde"]) else "--n",
            f"a_n = cosh(2^n a_tilde) rounds to 1.0 at n = {n}, a_tilde = {p['a_tilde']!r}; "
            "gamma needs 2^n |a_tilde| > 2^-26 (about 1.49e-08)")
    b_const, flag = (p["a_tilde"], "--a-tilde") if p["b"] is None else (p["b"], "--b")
    if not b_const > 0.0:  # without --b, a negative --a-tilde is the scale refused here
        raise UsageError(flag, f"the relabeling scale b must be positive, got {flag}={b_const!r}")
    m = GammaMap(b_const=b_const, sign=p["sign"])
    rep = suq2_bridge_check(m, p["s"], p["a_tilde"], p["n"], tuple(p["j0"]))
    rows = [
        [r["j0"], r["xi"], r["f_value"][0], r["f_value"][1], r["q_bracket_2j0"]]
        for r in rep["bridge_rows"]
    ]
    results = dict(rep)
    results["b"] = b_const
    return RunResult(
        _csv("j0,xi,f_re,f_im,q_bracket_2j0", rows),
        results,
        f"gamma steps within {rep['max_gamma_step_error']:.2e}, "
        f"phi ratios within {rep['max_phi_ratio_error']:.2e}",
    )


def _run_fig1(p: dict) -> RunResult:
    rep = fig1_report(p["n"], p["grid"])
    csv = _csv("a0,n,a_n", rep["rows"])  # refused before the summary reads the counts
    results = {
        "zero_crossings": {str(n): c for n, c in rep["zero_crossings"].items()},
    }
    counts = rep["zero_crossings"]
    summary = "zero crossings " + ", ".join(f"n={n}: {counts[n]}" for n in p["n"])
    return RunResult(csv, results, summary)


def _run_fig2(p: dict) -> RunResult:
    rep = deformed_scaling_report(tuple(p["s_values"]), p["n"], p["resolution"])
    csv = _csv("s,l1_to_box,integral_error",
               [[r["s"], r["l1_to_box"], r["integral_error"]] for r in rep["rows"]])
    results = {
        "rows": rep["rows"],
        "note": "survey data; only the s = 1 endpoint carries an accuracy claim",
    }
    end = [r for r in rep["rows"] if r["s"] == 1.0]
    summary = (
        f"endpoint l1 to box {end[0]['l1_to_box']:.3g}"
        if end
        else f"{len(rep['rows'])} profiles surveyed"
    )
    return RunResult(csv, results, summary)


def _run_check(p: dict) -> RunResult:
    checks = run_all()
    rows = [[r.name, "pass" if r.passed else "fail"] for r in checks]
    results = {
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "message": r.message,
                "details": r.details,
            }
            for r in checks
        ],
        "passed": sum(r.passed for r in checks),
        "total": len(checks),
    }
    ok = all(r.passed for r in checks)
    return RunResult(
        _csv("name,status", rows),
        results,
        format_report(checks).rstrip("\n"),
        exit_code=0 if ok else 1,
    )


_RUNNERS: dict[str, Callable[[dict], RunResult]] = {
    "cascade": _run_cascade,
    "wavelet": _run_wavelet,
    "limit": _run_limit,
    "spectrum": _run_spectrum,
    "ladder": _run_ladder,
    "closure": _run_closure,
    "general-closure": _run_general_closure,
    "solve-b": _run_solve_b,
    "casimir": _run_casimir,
    "prop1": _run_prop1,
    "gamma": _run_gamma,
    "bridge": _run_bridge,
    "fig1": _run_fig1,
    "fig2": _run_fig2,
    "check": _run_check,
}


# -- parsing and dispatch ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors are one usage line plus the message."""

    def error(self, message):
        usage = " ".join(self.format_usage().split())
        sys.stderr.write(f"error: {message}\n{usage}\n")
        raise SystemExit(2)


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="waveq", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    by_name = {}
    for name, (blurb, opts) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=blurb, description=blurb)
        for opt in (*opts, *_COMMON):
            sub.add_argument(opt.flag, dest=opt.dest, default=None, help=opt.help)
        by_name[name] = sub
    return parser, by_name


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError("--config", f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError("--config", f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("--config", "config file must hold a JSON object")
    return data


def _effective_params(name: str, ns: argparse.Namespace) -> dict:
    """Merge flag values, config-file values, and defaults, in that order."""
    opts = (*_SUBCOMMANDS[name][1], *_COMMON)
    by_dest = {o.dest: o for o in opts}
    config = {}
    if ns.config is not None:
        raw = _load_config(ns.config)
        for key, value in raw.items():
            dest = str(key).lstrip("-").replace("-", "_")
            if dest not in by_dest or dest == "config":
                raise UsageError(
                    "--config", f"unknown config key {key!r} for subcommand {name}"
                )
            config[dest] = value
    params = {}
    for opt in opts:
        cli_value = getattr(ns, opt.dest)
        source = cli_value if cli_value is not None else config.get(opt.dest)
        if source is None:
            if opt.required:
                raise UsageError(opt.flag, f"{opt.flag} is required")
            params[opt.dest] = opt.default
            continue
        try:
            params[opt.dest] = opt.coerce(source)
        except (ValueError, LaurentParseError) as exc:
            raise UsageError(
                opt.flag, f"invalid value for {opt.flag}: {exc}"
            ) from exc
    return params


def _manifest(cfg: RunConfig, result: RunResult) -> str:
    manifest = {
        "subcommand": cfg.subcommand,
        "config": _jsonable(
            {k: v for k, v in cfg.params.items() if k not in ("output", "config")}, "config"
        ),
        "files": {"csv": f"{cfg.subcommand}.csv"},
        "results": _jsonable(result.results, "results"),
    }
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def _write_outputs(cfg: RunConfig, csv: str, manifest: str) -> tuple[str, str]:
    out_dir = cfg.params.get("output") or "."
    os.makedirs(out_dir, exist_ok=True)
    names = (f"{cfg.subcommand}.csv", f"{cfg.subcommand}.manifest.json")
    # write over the old bytes, then cut to length: a file opened with O_TRUNC and
    # rewritten has ext4 (auto_da_alloc) start its writeback at close, which then waits
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    for name, text in zip(names, (csv, manifest)):
        with open(os.open(os.path.join(out_dir, name), flags, 0o666), "wb") as fh:
            fh.write(text.encode())  # ASCII: numbers, header names, ensure_ascii JSON
            fh.truncate()
    return names


def dispatch(argv: list[str]) -> int:
    """Parse argv, run the subcommand, write outputs; return the exit code."""
    parser, by_name = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if ns.subcommand is None:
        usage = " ".join(parser.format_usage().split())
        sys.stderr.write(f"error: a subcommand is required\n{usage}\n")
        return 2
    # catch what a valid configuration can still run into; a bug keeps its traceback
    try:
        cfg = RunConfig(ns.subcommand, _effective_params(ns.subcommand, ns))
        result = _RUNNERS[cfg.subcommand](cfg.params)
        manifest = _manifest(cfg, result)  # refuses a non-finite value before any file opens
    except UsageError as exc:
        usage = " ".join(by_name[ns.subcommand].format_usage().split())
        sys.stderr.write(f"error: {exc} (offending flag: {exc.flag})\n{usage}\n")
        return 2
    except (ValueError, LaurentError, CascadeDivergenceError, OverflowError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    csv_name, manifest_name = _write_outputs(cfg, result.csv, manifest)
    print(result.summary)
    print(f"wrote {csv_name} and {manifest_name} in {cfg.params.get('output') or '.'}")
    return result.exit_code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
