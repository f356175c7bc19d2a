"""The benchmark's workloads: seeded lists of mbeval argument lists, each with
the check its output must pass.

Every seeded parameter is drawn from a finite grid, so that every reference a
seed can ask for is in ``references.json`` (see ``reference_keys``).  The draws
use ``random.Random("<workload>:<seed>")``, which is the same on every platform.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction as F

WORKLOADS = ("contour-multifold", "contour-onefold", "residue-series", "oracles")

# a QMC value passes when it is within this many of its own error estimates
QMC_MULT = 8.0

H1_FILE = "h1.json"          # written under bench/out during set-up


@dataclass(frozen=True)
class Case:
    """One mbeval call and how its value is checked.

    check is one of
      ("ref", key)       |value - references[key]| <= tol
      ("exact", x)       |value - x| <= tol, x exact or closed form
      ("qmc", key|x)     |value - reference| <= QMC_MULT * abs_err_est
      ("swap", i)        |value - value of case i| <= tol   (C5 symmetry)
      ("contour", argv)  |value - mbeval contour value at argv| <= tol
    """
    argv: tuple[str, ...]
    tol: float
    check: tuple


def _s(x: F) -> str:
    """A grid value as the CLI reads it: an exact decimal when there is one
    (argparse takes "-1.5" but not "-3/2" as a value), else p/q."""
    d = x.denominator
    while d % 2 == 0:
        d //= 2
    while d % 5 == 0:
        d //= 5
    if d != 1:
        return f"{x.numerator}/{x.denominator}"
    return format(Decimal(x.numerator) / Decimal(x.denominator), "f")


def _pick(rng: random.Random, grid, n: int, key=None) -> list:
    """n draws, one from each of n equal runs of the grid sorted by key, in
    random order.  Cost follows the key, so each seed gets the same mix of
    cheap and dear cases; n >= len(grid) takes every point once."""
    items = sorted(grid, key=key)
    if n >= len(items):
        out = list(items)
    else:
        bounds = [len(items) * i // n for i in range(n + 1)]
        out = [items[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]
    rng.shuffle(out)
    return out


def _grid(lo: F, hi: F, step: F, gap: F = F(0)) -> list[F]:
    """lo, lo+step, ... <= hi, leaving out |x| < gap."""
    out, x = [], lo
    while x <= hi:
        if abs(x) >= gap:
            out.append(x)
        x += step
    return out


# s grids (step 1/50).  B3 contour windows sit where the cost of one case is
# nearly flat in s: it climbs steeply toward s = 0, s = 2 and s = -1/2.
S_WIDE = _grid(F(-19, 10), F(19, 10), F(1, 50), gap=F(1, 10))
S_POS = _grid(F(1, 10), F(19, 10), F(1, 50))
S_B3_WINDOWS = (_grid(F(-3, 2), F(-34, 25), F(1, 50)), _grid(F(1, 5), F(3, 5), F(1, 50)))

# parametrized Ising exponents; the Bessel-product reference needs
# k + 1 - sum(e) >= 1/4
EXPONENTS = (F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4))
EXPONENTS4 = (F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(2, 3))


def _param_grid(n: int, values, ks) -> list[tuple[int, tuple[F, ...]]]:
    return [(k, es) for k in ks
            for es in itertools.combinations_with_replacement(values, n)
            if k + 1 - sum(es) >= F(1, 4)]


PARAM3 = _param_grid(3, EXPONENTS, (0, 1, 2))
PARAM4 = _param_grid(4, EXPONENTS4, (1, 2))
# for the residue series: three distinct exponents, no two summing to an
# integer, since otherwise two pole families of the derived MB collide
PARAM3_SERIES = [(k, es) for k, es in PARAM3 if len(set(es)) == 3
                 and all((a + b).denominator != 1 for a, b in itertools.combinations(es, 2))]

H1_GRID = (F(1, 2), F(2, 3), F(1), F(4, 3), F(3, 2), F(2), F(3))
H1_PAIRS = [(a, b) for a in H1_GRID for b in H1_GRID]
H1_SERIES_PAIRS = [(a, b) for a, b in H1_PAIRS if b / a <= F(3, 4)]

C5_CONTOUR_GRID = _grid(F(1, 2), F(2), F(1, 20))
C5_SERIES_GRID = (F(1, 100), F(1, 80), F(1, 60), F(1, 50))

QMC_TOL_B = 2e-4
QMC_TOL_DELTA = {1: 3e-3, 2: 2e-4, 3: 5e-4, 4: 2e-4}


def _exps(es) -> str:
    return ",".join(f"{e.numerator}/{e.denominator}" for e in es)


def _param_key(k: int, es) -> str:
    return f"param:{k}:{_exps(sorted(es))}"


def _h1_argv(a: F, b: F, method: str, h1_path: str) -> tuple[str, ...]:
    return ("mb", "--file", h1_path, "--param", f"a={_s(a)}", "--param", f"b={_s(b)}",
            "--method", method)


def _param_cases(rng, n, grid, count, method) -> list[Case]:
    out = []
    for k, es in _pick(rng, grid, count, key=lambda p: (p[0], sum(p[1]), p[1])):
        es = list(es)
        rng.shuffle(es)
        out.append(Case(("ising-param", "--n", str(n), "--k", str(k), "--exponents",
                         _exps(es), "--method", method), 1e-8, ("ref", _param_key(k, es))))
    return out


def _h1_cases(rng, pairs, count, method, h1_path) -> list[Case]:
    return [Case(_h1_argv(a, b, method, h1_path), 1e-8, ("ref", f"h1:{a}:{b}"))
            for a, b in _pick(rng, pairs, count, key=lambda p: (min(p) / max(p), p))]


def contour_multifold(rng: random.Random, h1_path: str) -> list[Case]:
    cases = []
    # one swap pair per k, two for k = 2: the k = 2 points (about 0.1 s each)
    # then hold the median case, with the k = 3 points below and the k = 1,
    # B3 and J3 points above it
    for k, pairs in ((1, 1), (2, 2), (3, 1)):
        cases.append(Case(("c5", "--k", str(k), "--alpha", "1", "--beta", "1",
                           "--method", "contour"), 1e-8, ("ref", f"ising:5:{k}")))
        for _ in range(pairs):
            a, b = rng.sample(C5_CONTOUR_GRID, 2)
            i = len(cases)
            for x, y, partner in ((a, b, i + 1), (b, a, i)):
                cases.append(Case(("c5", "--k", str(k), "--alpha", _s(x), "--beta", _s(y),
                                   "--method", "contour"), 1e-8, ("swap", partner)))
    for window in S_B3_WINDOWS:
        s = rng.choice(window)
        cases.append(Case(("box", "--n", "3", "--s", _s(s), "--method", "contour"),
                          1e-8, ("ref", f"box:3:{s}")))
    cases.append(Case(("jellium", "--n", "3", "--method", "contour"), 1e-8,
                      ("exact", ("jellium3",))))
    return cases


def contour_onefold(rng: random.Random, h1_path: str) -> list[Case]:
    cases = [Case(("ising", "--n", str(n), "--k", str(k), "--method", "contour"),
                  1e-8, ("ref", f"ising:{n}:{k}"))
             for n in (3, 4) for k in range(9)]
    cases += _param_cases(rng, 3, PARAM3, 40, "contour")
    cases += _param_cases(rng, 4, PARAM4, 30, "contour")
    cases += _h1_cases(rng, H1_PAIRS, 40, "contour", h1_path)
    cases += [Case(("box", "--n", "2", "--s", _s(s), "--method", "contour"),
                   1e-8, ("ref", f"box:2:{s}")) for s in _pick(rng, S_WIDE, 40)]
    return cases


def residue_series(rng: random.Random, h1_path: str) -> list[Case]:
    cases = []
    # per k, every grid value once as alpha and once as beta, paired at
    # random: the cost of a C5 point grows with alpha and beta, and this
    # keeps the cost of the whole round nearly the same for every seed
    for k in (1, 2, 3):
        n = len(C5_SERIES_GRID)
        for a, b in zip(rng.sample(C5_SERIES_GRID, n), rng.sample(C5_SERIES_GRID, n)):
            argv = ("c5", "--k", str(k), "--alpha", _s(a), "--beta", _s(b), "--method", "series")
            cases.append(Case(argv, 1e-8, ("contour", argv[:-1] + ("contour",))))
    cases += [Case(("ising", "--n", "3", "--k", str(k), "--method", "series"), 1e-8,
                   ("ref", f"ising:3:{k}")) for k in range(9)]
    cases += _param_cases(rng, 3, PARAM3_SERIES, len(PARAM3_SERIES), "series")
    cases += _h1_cases(rng, H1_SERIES_PAIRS, len(H1_SERIES_PAIRS), "series", h1_path)
    return cases


def oracles(rng: random.Random, h1_path: str) -> list[Case]:
    cases = []
    qseed = lambda: str(rng.randrange(1000))
    for n in (2, 4, 5):
        for s in _pick(rng, S_POS, 3):
            cases.append(Case(("box", "--n", str(n), "--s", _s(s), "--method", "oracle",
                               "--tol", repr(QMC_TOL_B), "--seed", qseed()),
                              QMC_TOL_B, ("qmc", f"box:{n}:{s}")))
        cases.append(Case(("box", "--n", str(n), "--s", "2", "--method", "oracle",
                           "--tol", repr(QMC_TOL_B), "--seed", qseed()),
                          QMC_TOL_B, ("qmc", ("box_even", n, 1))))
    for n in (1, 2, 3, 4):
        tol = QMC_TOL_DELTA[n]
        for s in _pick(rng, S_POS, 2):
            cases.append(Case(("delta", "--n", str(n), "--s", _s(s), "--method", "oracle",
                               "--tol", repr(tol), "--seed", qseed()),
                              tol, ("qmc", f"delta:{n}:{s}")))
        cases.append(Case(("delta", "--n", str(n), "--s", "2", "--method", "oracle",
                           "--tol", repr(tol), "--seed", qseed()),
                          tol, ("qmc", ("delta_two", n))))
    # a fixed QMC case that doubles its point count three times
    cases.append(Case(("delta", "--n", "3", "--s", "1", "--method", "oracle",
                       "--tol", "1e-05", "--seed", "0"), 1e-5, ("qmc", "delta:3:1")))
    for n, k in _pick(rng, [(n, k) for n in (3, 4, 5) for k in range(9)], 8):
        cases.append(Case(("ising", "--n", str(n), "--k", str(k), "--method", "oracle"),
                          1e-8, ("ref", f"ising:{n}:{k}")))
    for s in _pick(rng, S_WIDE, 8):
        cases.append(Case(("box", "--n", "3", "--s", _s(s), "--method", "oracle"),
                          1e-8, ("ref", f"box:3:{s}")))
    for _ in range(6):
        l, a = rng.choice(((0, 0), (0, 1), (1, 0)))
        d, r = rng.choice((F(2), F(5, 2), F(3), F(4))), rng.choice((F(1, 2), F(1), F(3, 2), F(2)))
        cases.append(Case(("ruby", "--l", str(l), "--d", _s(d), "--a", str(a), "--R", _s(r),
                           "--method", "oracle"), 1e-8, ("exact", ("ruby", l, d, a, r))))
    cases += _param_cases(rng, 3, PARAM3, 6, "oracle")
    for n in (1, 2, 3):
        for s in _pick(rng, S_POS, 3):
            cases.append(Case(("delta", "--n", str(n), "--s", _s(s), "--tol", "1e-08"),
                              1e-8, ("ref", f"delta:{n}:{s}")))
        cases.append(Case(("delta", "--n", str(n), "--s", "2", "--tol", "1e-08"),
                          1e-8, ("exact", ("delta_two", n))))
    return cases


BUILDERS = {
    "contour-multifold": contour_multifold,
    "contour-onefold": contour_onefold,
    "residue-series": residue_series,
    "oracles": oracles,
}


def cases_for(workload: str, seed: int, h1_path: str) -> list[Case]:
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), h1_path)


def reference_keys() -> set[str]:
    """Every cached reference any seed of any workload can ask for."""
    keys = {f"ising:{n}:{k}" for n in (3, 4, 5) for k in range(9)}
    keys |= {_param_key(k, es) for k, es in PARAM3 + PARAM4}
    keys |= {f"h1:{a}:{b}" for a, b in H1_PAIRS}
    keys |= {f"box:2:{s}" for s in S_WIDE} | {f"box:3:{s}" for s in S_WIDE}
    keys |= {f"box:3:{s}" for w in S_B3_WINDOWS for s in w}
    keys |= {f"box:{n}:{s}" for n in (2, 4, 5) for s in S_POS}
    keys |= {f"delta:{n}:{s}" for n in (1, 2, 3, 4) for s in S_POS}
    return keys
