"""One benchmark workload in one process: set up, time a closed loop, check.

Run by bench/run.py, which sets the numeric thread pools to one thread
before this process imports numpy.  The process:

1. imports waveq from the checkout's src/ and draws a pool of inputs from
   the seed (`random.Random(f"{workload}:{seed}")`);
2. warms up by running every pool input once, keeping each output as the
   reference the repeats must reproduce exactly;
3. reports set-up time (process start to the first timed operation) and,
   unless it only sets up, runs whole rounds over the pool with one caller
   until --seconds have passed and at least MIN_OPS operations are done,
   timing each operation alone;
4. checks every reference output against the oracles in bench/oracles.py
   and against the properties the library promises.

It prints one JSON object on its last stdout line.  Operation composition
is fixed per workload; the seed picks values (s, alpha, masks, symbols,
amplitudes), never sizes, so per-operation times form one cluster.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
MIN_OPS = 100
U = 2.0**-53

sys.path.insert(0, str(ROOT / "src"))


def _dyadic(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), den)


def _nonzero_dyadic(rng: random.Random, bound: int, den: int) -> Fraction:
    return Fraction(rng.choice([k for k in range(-bound, bound + 1) if k]), den)


def _poly(d: dict):
    from waveq import LaurentPoly

    return LaurentPoly.from_dict({float(e): float(c) for e, c in d.items()})


def _l1(terms) -> float:
    return sum(abs(complex(t.coeff)) for t in terms)


def _closure_bound(a: float, b_plus: float, b_minus: float, g: float, f: float) -> float:
    """Rounding bound for the closure residuals r1, r2, r3.

    Each residual is a merged sum of products of generator coefficients;
    every coefficient passes through at most a few multiplications, one
    phase factor and the merge additions, so 16 u times the sum of the
    magnitudes of the products involved bounds it.
    """
    return 16.0 * U * (2.0 * a * max(b_plus, b_minus) + g * max(b_plus, b_minus)
                       + 2.0 * b_plus * b_minus + f)


def _word_action_tolerance(terms, lam: complex, n: int) -> tuple[float, float]:
    """Bounds for the coefficient and the rates of a word applied to e^{lam x}.

    A term's exponents pass through n compositions, each one multiply and
    one add, so alpha and mu carry relative errors up to 2n u; all partial
    exponents share their sign, so the final max |alpha| and max |mu| bound
    them.  The error moves e^{lam alpha} by |lam| |d alpha| and the phase
    factors e^{i m2 a1} by |d(m2 a1)| <= 2n u max|mu| max|alpha|; each
    coefficient product adds another n u.
    """
    amax = max(abs(float(t.alpha.value)) for t in terms)
    mmax = max(abs(float(t.mu.value)) for t in terms)
    mags = sum(abs(complex(t.coeff)) * math.exp((lam * float(t.alpha.value)).real)
               for t in terms)
    coeff_tol = 4.0 * n * U * mags * (2.0 + abs(lam) * amax + mmax * amax)
    bmax = max(2.0 ** float(t.beta.value) for t in terms)
    rate_tol = 4.0 * n * U * (abs(lam) * bmax + mmax)
    return coeff_tol, rate_tol


class Workload:
    """A pool of seeded inputs and one fixed operation run on each.

    Subclasses set inputs and define run (the timed operation), digest (a
    comparable fingerprint of an output) and check (oracle and property
    checks of one output, returned as a list of failures).
    """

    pool_size = 8

    def after_run(self, x, out):
        """Untimed work that completes an output, such as reading files."""
        return out

    def cleanup(self):
        pass


# -- words: L1 normal-form algebra ---------------------------------------------------


class Words(Workload):
    """Halving words, Laurent powers and closure residuals."""

    def __init__(self, rng: random.Random, tiny: bool):
        self.n = 5 if tiny else 9
        self.power = 4 if tiny else 8
        self.inputs = []
        for _ in range(self.pool_size):
            # one exponent pattern moved and mirrored by the seed: the sums
            # that coincide in p^k, and so the work, stay the same
            offset, sign = rng.randint(-8, 0), rng.choice((1, -1))
            p = {Fraction(offset + sign * b, 8): _nonzero_dyadic(rng, 4, 4)
                 for b in (0, 1, 3, 7)}
            self.inputs.append({
                "s": rng.uniform(0.3, 0.95),
                "omega": rng.uniform(0.25, 2.0),
                "closure": (rng.uniform(0.3, 0.95), rng.uniform(0.2, 1.8)),
                "p": p,
                "j0": {Fraction(1): Fraction(1, 2), Fraction(-1): Fraction(1, 2),
                       Fraction(rng.choice((1, 3)), 4): _dyadic(rng, -4, 4, 8)},
                "j": {Fraction(0): Fraction(1, 2), Fraction(-1): Fraction(1, 2),
                      Fraction(-rng.choice((1, 3)), 4): _dyadic(rng, -4, 4, 8)},
                "s_general": rng.uniform(0.3, 0.95),
            })
        for x in self.inputs:
            x["p_poly"] = _poly(x["p"])
            x["j0_poly"] = _poly(x["j0"])
            x["j_poly"] = _poly(x["j"])

    def run(self, x):
        from waveq import AlgebraParams, LaurentPoly, OpExpr, check_closure, verify_general_closure
        from waveq.qdeform import w_minus

        n = self.n
        word_one = (2.0 * w_minus(1.0)) ** n
        rhs = (OpExpr.identity() - OpExpr.translation(-(2.0**-n))) * word_one
        lhs = (OpExpr.identity() - OpExpr.translation(-1)) * OpExpr.dilation(n)
        exchange = (lhs - rhs).max_abs_coeff()
        word_s = (2.0 * w_minus(x["s"])) ** n
        lp = LaurentPoly.one()
        for _ in range(self.power):
            lp = lp * x["p_poly"]
        dyadic = check_closure(AlgebraParams(1.0, 1.0))
        generic = check_closure(AlgebraParams(*x["closure"]))
        general = verify_general_closure(x["j0_poly"], x["j_poly"], x["s_general"])
        return {
            "word_one": word_one.terms(),
            "exchange": exchange,
            "word_s": word_s.terms(),
            "power": lp.terms(),
            "dyadic": [dyadic[k] for k in ("r1", "r2", "r3")],
            "generic": [generic[k] for k in ("r1", "r2", "r3")],
            "general": [general[k] for k in ("r1", "r2", "r3")],
        }

    def digest(self, out):
        def words(terms):
            return [(complex(t.coeff), float(t.mu.value), float(t.beta.value),
                     float(t.alpha.value)) for t in terms]

        return repr((words(out["word_one"]), out["exchange"], words(out["word_s"]),
                     [(float(e.value), complex(c)) for e, c in out["power"]],
                     out["dyadic"], out["generic"], out["general"]))

    def check(self, x, out) -> list[str]:
        import oracles
        from waveq import AlgebraParams, build_generators

        errs = []
        n = self.n
        if oracles.word_from_terms(out["word_one"]) != oracles.doubled_halving_word(n):
            errs.append("(2 W-(1))^n differs from the exact rational expansion")
        if out["exchange"] != 0.0:
            errs.append(f"exchange identity residual {out['exchange']!r}, not exactly 0.0")
        if out["dyadic"] != [0.0, 0.0, 0.0]:
            errs.append(f"closure residuals at s = alpha = 1 are {out['dyadic']}, not 0.0")

        lam = 1j * x["omega"]
        total, rates, _ = oracles.normal_form_on_exponential(out["word_s"], lam)
        coeff, rate = oracles.word_on_exponential(x["s"], n, lam)
        coeff_tol, rate_tol = _word_action_tolerance(out["word_s"], lam, n)
        if abs(complex(total - coeff)) > coeff_tol:
            errs.append(f"(2 W-({x['s']}))^n on e^(i{x['omega']} x): coefficient off by "
                        f"{abs(complex(total - coeff)):.3e} > {coeff_tol:.3e}")
        worst_rate = max(abs(complex(r - rate)) for r in rates)
        if worst_rate > rate_tol:
            errs.append(f"(2 W-({x['s']}))^n output rate off by {worst_rate:.3e} > {rate_tol:.3e}")

        if oracles.laurent_from_terms(out["power"]) != oracles.laurent_power(x["p"], self.power):
            errs.append(f"p^{self.power} differs from the exact rational power")

        gs = build_generators(AlgebraParams(*x["closure"]))
        tol = _closure_bound(_l1(gs.w0.terms()), _l1(gs.w_plus.terms()),
                             _l1(gs.w_minus.terms()), _l1(gs.g.terms()), _l1(gs.f.terms()))
        if max(out["generic"]) > tol:
            errs.append(f"closure residuals {out['generic']} at {x['closure']} exceed {tol:.3e}")
        j0 = sum(abs(float(c)) for c in x["j0"].values())
        j = sum(abs(float(c)) for c in x["j"].values())
        tol = _closure_bound(j0, j, j, 2.0 * j0, 2.0 * j * j)
        if max(out["general"]) > tol:
            errs.append(f"general closure residuals {out['general']} exceed {tol:.3e}")
        return errs

# -- deformed: the 2^n-term word applied to samples ------------------------------------


class Deformed(Workload):
    """deformed_scaling(s, n, resolution) over seeded s."""

    points = (0.25, 0.5, 0.75)

    def __init__(self, rng: random.Random, tiny: bool):
        self.n = 4 if tiny else 8
        self.resolution = 4 if tiny else 7
        # s = 1 telescopes to two terms, a different cost class; the exact
        # dyadic word is exercised by `words` instead.
        self.inputs = [{"s": rng.uniform(0.35, 0.95)} for _ in range(self.pool_size)]

    def run(self, x):
        from waveq import deformed_scaling

        return deformed_scaling(x["s"], self.n, self.resolution)

    def digest(self, out):
        return (out.resolution, out.window, out.values.tobytes())

    def check(self, x, out) -> list[str]:
        import oracles

        errs = []
        step = 2.0**-self.resolution
        vals = out.values
        mass = complex(vals.sum() * step)
        tol = (len(vals) + 4) * U * float(abs(vals).sum() * step)
        if abs(mass - 1.0) > tol:
            errs.append(f"s = {x['s']}: integral {mass!r} is not 1 within {tol:.3e}")
        idx = [int((p - out.lo) / step) for p in self.points]
        got = [complex(vals[i]) for i in idx]
        ref = oracles.deformed_values(x["s"], self.n, self.points)
        for i in (0, 2):
            want = complex(ref[i][0] / ref[1][0])
            rel = abs(got[i] / got[1] - want) / abs(want)
            tol = oracles.ratio_tolerance(ref, i, 1, 2 ** (self.n + 1))
            if rel > tol:
                errs.append(f"s = {x['s']}: profile ratio at x = {self.points[i]} off by "
                            f"{rel:.3e} > {tol:.3e}")
        return errs

# -- grids: numpy application on dyadic lattices -------------------------------------


class Grids(Workload):
    """Cascades, wavelets, limit builds, grid application and ladder checks."""

    window = (-1, 2)

    def __init__(self, rng: random.Random, tiny: bool):
        import numpy as np

        self.resolutions = (5, 6) if tiny else (12, 13, 14)
        self.apply_res = 5 if tiny else 10
        self.limit_res = 6 if tiny else 11
        lo, hi = self.window
        self.inputs = []
        for _ in range(self.pool_size):
            n_apply = (hi - lo) << self.apply_res
            terms = []
            for _ in range(4):
                terms.append((float(_nonzero_dyadic(rng, 8, 8)), rng.randint(0, 1),
                              Fraction(rng.randint(-2 << self.apply_res, 2 << self.apply_res),
                                       1 << self.apply_res)))
            self.inputs.append({
                "amp_box": float(_dyadic(rng, 1, 16, 8)),
                "amp_hat": float(_dyadic(rng, 1, 16, 8)),
                "amp_mid": float(_dyadic(rng, 1, 16, 8)),
                "limit_n": sorted(rng.sample(range(4, 21), 4)),
                "apply_terms": terms,
                "apply_values": np.array([rng.randint(-256, 256) / 256 for _ in range(n_apply)]),
                "a_tilde": rng.uniform(0.1, 1.0),
            })

    def run(self, x):
        from waveq import (GridFunction, OpExpr, apply_op_grid, b2_system, box_grid, cascade,
                           hat_grid, haar_system, ladder_check, limit_build_report,
                           wavelet_from_scaling)
        from waveq.scaling import box_midpoint_profile

        haar, b2 = haar_system(), b2_system()
        fixed = []
        for r in self.resolutions:
            box = box_grid(r, self.window) * x["amp_box"]
            hat = hat_grid(r, self.window) * x["amp_hat"]
            fixed.append((box, cascade(haar, box, 1)))
            fixed.append((hat, cascade(b2, hat, 1)))
        start = GridFunction.from_callable(box_midpoint_profile, self.resolutions[0],
                                           self.window) * x["amp_mid"]
        moving = cascade(haar, start, 2)
        wavelets = (
            wavelet_from_scaling(haar, fixed[0][1].phi, form="literal"),
            wavelet_from_scaling(b2, fixed[1][1].phi, form="canonical"),
        )
        limits = (
            limit_build_report("haar", "arctan", tuple(x["limit_n"]), self.limit_res, self.window),
            limit_build_report("b2", "tri", tuple(x["limit_n"]), self.limit_res, self.window),
        )
        op = OpExpr.zero()
        for c, b, a in x["apply_terms"]:
            op = op + OpExpr.term(c, beta=b, alpha=float(a))
        applied = apply_op_grid(op, GridFunction(self.apply_res, self.window, x["apply_values"]))
        ladder = ladder_check(x["a_tilde"], range(4))
        return {"fixed": fixed, "start": start, "moving": moving, "wavelets": wavelets,
                "limits": limits, "applied": applied, "ladder": ladder}

    def digest(self, out):
        h = hashlib.sha256()
        for start, res in out["fixed"]:
            h.update(res.phi.values.tobytes())
            h.update(repr(res.residual).encode())
        h.update(out["moving"].phi.values.tobytes())
        for w in out["wavelets"]:
            h.update(w.values.tobytes())
        h.update(repr([rep["errors"] for rep in out["limits"]]).encode())
        h.update(out["applied"].values.tobytes())
        h.update(repr(out["ladder"]).encode())
        return h.hexdigest()

    def check(self, x, out) -> list[str]:
        import numpy as np
        import oracles

        errs = []
        for start, res in out["fixed"]:
            label = f"cascade at 2^-{start.resolution}"
            if res.residual != 0.0:
                errs.append(f"{label}: fixed-point residual {res.residual!r}, not exactly 0.0")
            if not np.array_equal(res.phi.values, start.values):
                errs.append(f"{label}: scaled fixed point moved")
        # The box with midpoint values flows to the box in one step while its
        # lattice integral stays put.  Each application sums two mask terms
        # per point and the integral sums N points; a nonnegative mask with
        # sum 2 does not grow sum |phi| under sigma = 1, so the start's
        # magnitude bounds every iterate's.
        start, moving = out["start"], out["moving"]
        step = 2.0**-start.resolution
        before, after = start.values.sum() * step, moving.phi.values.sum() * step
        tol = ((moving.iterations + 1) * (len(start.values) + 2) * U
               * float(np.abs(start.values).sum()) * step)
        if abs(after - before) > tol:
            errs.append(f"cascade integral moved by {abs(after - before):.3e} > {tol:.3e}")
        for w in out["wavelets"]:
            wstep = 2.0**-w.resolution
            tol = len(w.values) * U * float(np.abs(w.values).sum()) * wstep
            if abs(w.integral()) > tol:
                errs.append(f"wavelet mean {w.integral()!r} exceeds {tol:.3e}")
        for rep in out["limits"]:
            if not rep["monotone_l1"]:
                errs.append(f"{rep['preset']} limit errors do not decrease over n = {x['limit_n']}")
        want = oracles.apply_on_lattice(x["apply_terms"], list(x["apply_values"]),
                                        self.apply_res, self.window[0])
        if not np.array_equal(out["applied"].values, np.array(want, dtype=complex)):
            errs.append("apply_op_grid differs from point-by-point index arithmetic")
        errs.extend(_ladder_errors(out["ladder"], x["a_tilde"]))
        return errs

def _ladder_errors(rep, a_tilde: float) -> list[str]:
    """Compare ladder rows with cosh/cos and (1 + e^{-+rate})/2 in mpmath.

    Each program value is a sum of two exponential terms of magnitude at
    most e^{|rate|}/2 or 1/2, so 8 u times that magnitude bounds it.
    """
    import mpmath

    errs = []
    for row in rep["ladder_rows"]:
        lam = mpmath.mpf(2) ** row["n"] * mpmath.mpf(a_tilde)
        mag = float(mpmath.exp(abs(lam)))
        pairs = (
            ("a_n", row["a_n"], mpmath.cosh(lam)),
            ("minus_coeff", row["minus_coeff"], (1 + mpmath.exp(-lam)) / 2),
            ("plus_coeff", row["plus_coeff"], (1 + mpmath.exp(lam)) / 2),
        )
        for name, got, want in pairs:
            if abs(complex(got) - complex(want)) > 8 * U * mag:
                errs.append(f"ladder n = {row['n']}: {name} {got!r} vs {complex(want)!r}")
    for row in rep["mode_rows"]:
        k = row["k"]
        z = 1j * mpmath.pi / k
        pairs = (
            ("minus_coeff", row["minus_coeff"], (1 + mpmath.exp(-z)) / 2),
            ("plus_coeff", row["plus_coeff"], (1 + mpmath.exp(z)) / 2),
        )
        for name, got, want in pairs:
            if abs(complex(got) - complex(want)) > 8 * U:
                errs.append(f"mode k = {k}: {name} {got!r} vs {complex(want)!r}")
    return errs


# -- cli: in-process subcommand runs -----------------------------------------------------


class Cli(Workload):
    """One pass over every subcommand except fig2 and check."""

    pool_size = 4

    def __init__(self, rng: random.Random, tiny: bool):
        self.out_root = OUT_DIR / f"cli-{os.getpid()}"
        self.inputs = []
        for i in range(self.pool_size):
            out = str(self.out_root / f"input{i}")
            h = Fraction(1, rng.choice((1, 2, 4)))
            m = 3
            mask = _mask_text(h, m)
            j0c, jc = _dyadic(rng, -4, 4, 8), _dyadic(rng, -4, 4, 8)
            a0 = rng.uniform(-1.0, 1.0)
            fig_n = sorted(rng.sample(range(2, 9), 3))
            spec_n = 6 if tiny else 12
            window = 4 if tiny else 12
            prop_window = 8 if tiny else 64
            res = 5 if tiny else 9
            argvs = [
                ["cascade", "--system", "b2", "--start", "hat", "--iters", "2",
                 "--resolution", str(res)],
                ["wavelet", "--system", "b2", "--resolution", str(res - 1)],
                ["limit", "--n", ",".join(map(str, sorted(rng.sample(range(4, 21), 4)))),
                 "--resolution", str(res + 1)],
                ["spectrum", f"--a0={a0!r}", "--n", str(spec_n)],
                ["ladder", f"--a-tilde={rng.uniform(0.1, 1.0)!r}"],
                ["closure", f"--s={rng.uniform(0.3, 0.95)!r}",
                 f"--alpha={rng.uniform(0.2, 1.8)!r}"],
                ["general-closure", "--j0", "1/2*T^1 + 1/2*T^-1" + _term_text(j0c, "1/4"),
                 "--j", "1/2 + 1/2*T^-1" + _term_text(jc, "-1/4"),
                 f"--s={rng.uniform(0.3, 0.95)!r}"],
                ["solve-b", "--c", mask, "--window", str(window)],
                ["casimir", f"--a-tilde={rng.uniform(0.1, 1.0)!r}"],
                ["prop1", "--window", str(prop_window)],
                ["gamma", f"--b={rng.uniform(0.5, 2.0)!r}", "--points", "100"],
                ["bridge", f"--s={rng.uniform(0.3, 0.95)!r}",
                 f"--a-tilde={rng.uniform(0.1, 1.0)!r}"],
                ["fig1", "--n", ",".join(map(str, fig_n)), "--grid", "256"],
            ]
            self.inputs.append({
                "out": out,
                "argvs": [a + ["--output=" + out] for a in argvs],
                "mask": (h, m, window),
                "a0": a0,
            })

    def run(self, x):
        from waveq.cli import dispatch

        sink = io.StringIO()
        codes = []
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in x["argvs"]:
                codes.append(dispatch(argv))
        return {"codes": codes, "log": sink.getvalue()}

    def after_run(self, x, out):
        out["files"] = {}
        for name in sorted(os.listdir(x["out"])):
            with open(os.path.join(x["out"], name), "rb") as fh:
                out["files"][name] = fh.read()
        return out

    def digest(self, out):
        return out["codes"], out["files"]

    def check(self, x, out) -> list[str]:
        import oracles

        errs = []
        for argv, code in zip(x["argvs"], out["codes"]):
            if code != 0:
                errs.append(f"waveq {argv[0]} exited {code}: {out['log'][-300:]!r}")
        files = out["files"]
        expected = {f"{a[0]}{sfx}" for a in x["argvs"] for sfx in (".csv", ".manifest.json")}
        if set(files) != expected:
            errs.append(f"output files {sorted(files)} are not {sorted(expected)}")
            return errs

        h, m, window = x["mask"]
        manifest = json.loads(files["solve-b.manifest.json"])["results"]
        b_want, rho_want = oracles.bspline_detail(h, m)
        got = {Fraction(e): complex(re, im) for e, re, im in manifest["b"]["terms"]}
        tol = oracles.refinement_tolerance(h, m, window)
        if set(got) != set(b_want):
            errs.append(f"solve-b: exponents {sorted(got)} are not {sorted(b_want)}")
        else:
            worst = max(abs(got[e] - float(c)) for e, c in b_want.items())
            if worst > tol:
                errs.append(f"solve-b: b off by {worst:.3e} > {tol:.3e}")
        if complex(*manifest["rho"]) != float(rho_want):
            errs.append(f"solve-b: rho {manifest['rho']} is not {rho_want}")

        rows = [line.split(",") for line in files["spectrum.csv"].decode().splitlines()[1:]]
        for n_text, a_text in rows:
            n = int(n_text)
            want = float(oracles.doubling_closed_form(x["a0"], n))
            tol = oracles.iteration_tolerance(x["a0"], n)
            if abs(float(a_text) - want) > tol:
                errs.append(f"spectrum a0 = {x['a0']}: a_{n} off by "
                            f"{abs(float(a_text) - want):.3e} > {tol:.3e}")
        rows = [line.split(",") for line in files["fig1.csv"].decode().splitlines()[1:]]
        for a0_text, n_text, an_text in rows:
            a0, n = float(a0_text), int(n_text)
            want = float(oracles.doubling_closed_form(a0, n))
            tol = oracles.closed_form_tolerance(a0, n)
            if abs(float(an_text) - want) > tol:
                errs.append(f"fig1 a0 = {a0}, n = {n}: off by {abs(float(an_text) - want):.3e}")
        return errs

    def cleanup(self):
        shutil.rmtree(self.out_root, ignore_errors=True)


def _frac_text(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _term_text(c: Fraction, exponent: str) -> str:
    """' + c*T^exponent' with the sign pulled out, or '' for c = 0."""
    if c == 0:
        return ""
    return f" {'-' if c < 0 else '+'} {_frac_text(abs(c))}*T^{exponent}"


def _mask_text(h: Fraction, m: int) -> str:
    """The B-spline mask 2((1 + T^-h)/2)^m in waveq's symbol grammar."""
    parts = []
    for k in range(m + 1):
        c = Fraction(2 * math.comb(m, k), 2**m)
        e = -k * h
        parts.append(f"{_frac_text(c)}*T^{_frac_text(e)}" if e else _frac_text(c))
    return " + ".join(parts)


WORKLOADS = {"words": Words, "deformed": Deformed, "grids": Grids, "cli": Cli}


# -- the loop -------------------------------------------------------------------------------


def _timed_rounds(wl, refs, seconds: float, min_ops: int, tracer):
    """Whole rounds over the pool until time is up and min_ops are done.

    Returns the latency of every operation, the completed operations per
    second of each round (operations over the round's summed latencies),
    the failed count and any output that differed from its reference.
    """
    latencies, round_rates = [], []
    failed = 0
    mismatched = []
    clock = time.perf_counter
    deadline = clock() + seconds
    op_id = 0
    while True:
        busy, done = 0.0, 0
        for i, x in enumerate(wl.inputs):
            if tracer is not None:
                tracer.op_id = op_id
            t0 = clock()
            try:
                out = wl.run(x)
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                print(f"operation failed on input {i}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                continue
            finally:
                dt = clock() - t0
                latencies.append(dt)
                busy += dt
                if tracer is not None:
                    tracer.op_id = -1
            done += 1
            op_id += 1
            if wl.digest(wl.after_run(x, out)) != refs[i]:
                mismatched.append(f"input {i}: output differs from its first run")
        round_rates.append(done / busy)
        if clock() >= deadline and len(latencies) >= min_ops:
            return latencies, round_rates, failed, mismatched


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="minimal sizes, for the self-test")
    args = ap.parse_args(argv)

    import waveq.cli  # noqa: F401  (the package and its front end: part of set-up)

    rng = random.Random(f"{args.workload}:{args.seed}")
    wl = WORKLOADS[args.workload](rng, args.tiny)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()
    try:
        outputs = [wl.after_run(x, wl.run(x)) for x in wl.inputs]
        refs = [wl.digest(o) for o in outputs]
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        # the self-test's tiny mode stops after one round; a measurement needs
        # MIN_OPS so that p90 has at least ten samples beyond it
        min_ops = wl.pool_size if args.tiny else MIN_OPS
        latencies, round_rates, failed, mismatched = _timed_rounds(
            wl, refs, args.seconds, min_ops, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        errors = list(mismatched)
        for i, (x, out) in enumerate(zip(wl.inputs, outputs)):
            errors.extend(f"input {i}: {e}" for e in wl.check(x, out))
    finally:
        wl.cleanup()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": len(latencies),
        "failed": failed,
        "errors": errors,
        "throughput_ops_s": statistics.median(round_rates),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    if tracer is not None:
        ops = len(latencies) - failed
        result["layers"] = tracer.layer_metrics(ops)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write_spans(str(path))
        result["spans"] = len(tracer.spans)
        result["span_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
