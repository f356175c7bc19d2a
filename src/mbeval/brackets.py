"""Bracket-series construction and candidate enumeration for the method of brackets.

A bracket series is a formal multi-index sum

    prefactor * prod(base^exp) * sum_{n} phi_{n1} ... phi_{nr}
        * prod(symbol^exponent(n)) * prod(Gamma(arg(n))^mult) * prod <bracket(n)>

with phi_n = (-1)^n / Gamma(n+1) attached to every summation index exactly once.
Improper integrals over (0, inf) turn integration variables into brackets; the
candidate enumerator solves the bracket equations exactly and classifies each
series as convergent-candidate / divergent / resonant.  No regulators are ever
inserted: degenerate candidates are reported, not patched.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from .errors import NoCandidates, NoConvergence
from .gammafn import gammaln_signed
from .symcore import (GammaFactor, LinearForm, LinSolution, Rational, SingularSystemError,
                      SymbolKind, SymbolTable, lin_solve, merge_gammas, rat)


@dataclass(frozen=True)
class PowerTerm:
    """One multinomial term: coefficient * prod(symbol^exponent)."""
    coefficient: Rational
    powers: tuple[tuple[str, LinearForm], ...]

    @staticmethod
    def make(coefficient, powers: Mapping[str, object]) -> "PowerTerm":
        items = []
        for name, e in sorted(powers.items()):
            e = e if isinstance(e, LinearForm) else LinearForm.constant(rat(e))
            if not (e.is_constant() and e.const == 0):
                items.append((name, e))
        return PowerTerm(rat(coefficient), tuple(items))


def _merge_powers(*dicts: Mapping[str, LinearForm]) -> dict[str, LinearForm]:
    out: dict[str, LinearForm] = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out[k] + v if k in out else v
    return {k: v for k, v in out.items() if not (v.is_constant() and v.const == 0)}


def _merge_bases(*lists) -> tuple[tuple[Rational, LinearForm], ...]:
    acc: dict[Rational, LinearForm] = {}
    for lst in lists:
        for base, e in lst:
            acc[base] = acc[base] + e if base in acc else e
    return tuple(sorted(((b, e) for b, e in acc.items()
                         if not (e.is_constant() and e.const == 0)),
                        key=lambda t: t[0]))


@dataclass(frozen=True)
class BracketSeries:
    table: SymbolTable
    indices: tuple[str, ...]
    prefactor: Rational
    base_powers: tuple[tuple[Rational, LinearForm], ...]  # numeric base ** LinearForm
    powers: tuple[tuple[str, LinearForm], ...]            # symbol ** LinearForm
    gammas: tuple[GammaFactor, ...]
    brackets: tuple[LinearForm, ...]

    def powers_dict(self) -> dict[str, LinearForm]:
        return dict(self.powers)

    def multiply(self, other: "BracketSeries") -> "BracketSeries":
        if self.table is not other.table:
            raise ValueError("series must share a symbol table")
        return BracketSeries(
            table=self.table,
            indices=self.indices + other.indices,
            prefactor=self.prefactor * other.prefactor,
            base_powers=_merge_bases(self.base_powers, other.base_powers),
            powers=tuple(sorted(_merge_powers(self.powers_dict(),
                                              other.powers_dict()).items())),
            gammas=tuple(merge_gammas(self.gammas + other.gammas)),
            brackets=self.brackets + other.brackets,
        )

    def scaled(self, coefficient) -> "BracketSeries":
        return BracketSeries(self.table, self.indices, self.prefactor * rat(coefficient),
                             self.base_powers, self.powers, self.gammas, self.brackets)


def constant_series(table: SymbolTable, coefficient=1) -> BracketSeries:
    return BracketSeries(table, (), rat(coefficient), (), (), (), ())


def power_series_factor(table: SymbolTable, powers: Mapping[str, object],
                        coefficient=1) -> BracketSeries:
    """A bare monomial as a (trivial) bracket series."""
    pt = PowerTerm.make(coefficient, powers)
    base = () if pt.coefficient == 1 else ((pt.coefficient, LinearForm.constant(1)),)
    return BracketSeries(table, (), Fraction(1), base, pt.powers, (), ())


def expand_multinomial(table: SymbolTable, terms: Sequence[PowerTerm],
                       exponent: LinearForm, index_prefix: str = "n") -> BracketSeries:
    """(A_1 + ... + A_r)^exponent as a bracket series with r fresh indices.

    Produces sum phi_m prod A_i^{m_i} <-exponent + sum m_i> / Gamma(-exponent).
    The degenerate r=1 case absorbs the exponent directly (no index, no bracket).
    """
    if not terms:
        raise ValueError("need at least one term")
    exponent = exponent if isinstance(exponent, LinearForm) \
        else LinearForm.constant(rat(exponent))
    if len(terms) == 1:
        t = terms[0]
        powers = {}
        for name, e in t.powers:
            if e.is_constant():
                powers[name] = exponent * e.const
            elif exponent.is_constant():
                powers[name] = e * exponent.const
            else:
                raise ValueError("cannot raise a symbolic exponent to a symbolic power")
        base = () if t.coefficient == 1 else ((t.coefficient, exponent),)
        return BracketSeries(table, (), Fraction(1), base,
                             tuple(sorted(powers.items())), (), ())
    fresh = [table.fresh(index_prefix, SymbolKind.SUMMATION_INDEX) for _ in terms]
    powers: dict[str, LinearForm] = {}
    bases: list[tuple[Rational, LinearForm]] = []
    for idx, t in zip(fresh, terms):
        m = LinearForm.symbol(idx)
        for name, e in t.powers:
            if not e.is_constant():
                raise ValueError(
                    f"term power {name}^({e!r}) must be constant inside a multinomial")
            powers[name] = powers.get(name, LinearForm.constant(0)) + m * e.const
        if t.coefficient != 1:
            bases.append((t.coefficient, m))
    bracket = -exponent
    for idx in fresh:
        bracket = bracket + LinearForm.symbol(idx)
    return BracketSeries(
        table=table, indices=tuple(fresh), prefactor=Fraction(1),
        base_powers=_merge_bases(bases),
        powers=tuple(sorted(powers.items())),
        gammas=(GammaFactor(-exponent, -1),),
        brackets=(bracket,),
    )


def expand_exponential(table: SymbolTable, term: PowerTerm,
                       index_prefix: str = "n") -> BracketSeries:
    """exp(-X) = sum_m phi_m X^m for a single positive-coefficient monomial X."""
    if term.coefficient <= 0:
        raise ValueError("exponential rule expects a positive-coefficient monomial")
    idx = table.fresh(index_prefix, SymbolKind.SUMMATION_INDEX)
    m = LinearForm.symbol(idx)
    powers = {}
    for name, e in term.powers:
        if not e.is_constant():
            raise ValueError("exponential rule expects constant powers")
        powers[name] = m * e.const
    base = () if term.coefficient == 1 else ((term.coefficient, m),)
    return BracketSeries(table, (idx,), Fraction(1), base,
                         tuple(sorted(powers.items())), (), ())


def integrate_to_brackets(series: BracketSeries,
                          integration_vars: Sequence[str]) -> BracketSeries:
    """Each int_0^inf x^{e} dx contributes the bracket <e + 1> and removes x."""
    powers = series.powers_dict()
    new_brackets = []
    for var in integration_vars:
        e = powers.pop(var, LinearForm.constant(0))
        new_brackets.append(e + LinearForm.constant(1))
    return BracketSeries(series.table, series.indices, series.prefactor,
                         series.base_powers, tuple(sorted(powers.items())),
                         series.gammas, series.brackets + tuple(new_brackets))


STATUS_CONVERGENT = "convergent-candidate"
STATUS_DIVERGENT = "divergent"
STATUS_RESONANT = "resonant"


@dataclass(frozen=True)
class SeriesCandidate:
    free_indices: tuple[str, ...]
    solution: LinSolution
    det: Rational
    status: str
    prefactor: Rational
    base_powers: tuple[tuple[Rational, LinearForm], ...]
    powers: tuple[tuple[str, LinearForm], ...]   # over free indices + parameters
    gammas: tuple[GammaFactor, ...]              # substituted; includes eliminated Gamma(-n*)


def _is_nonpositive_int(c: Rational) -> bool:
    return c.denominator == 1 and c <= 0


def _classify(gammas: Sequence[GammaFactor], free: Sequence[str]) -> str:
    numerator = [g.arg for g in gammas for _ in range(max(g.mult, 0))]
    for arg in numerator:
        # a single free index and nothing else
        if len(arg.coeffs) == 1 and arg.without(free).is_constant():
            (coef,) = arg.coeffs.values()
            if coef == -1 and _is_nonpositive_int(arg.const):
                return STATUS_DIVERGENT
    seen = set()
    for arg in numerator:
        key = arg._key()
        if key in seen:
            return STATUS_RESONANT
        seen.add(key)
    return STATUS_CONVERGENT


def solve_candidate(series: BracketSeries,
                    dependent: Sequence[str]) -> SeriesCandidate:
    """Solve the bracket equations for the given dependent indices."""
    m = len(series.brackets)
    if len(dependent) != m:
        raise ValueError(f"need {m} dependent indices")
    cols = list(series.indices)
    a = [[br.coeff(idx) for idx in cols] for br in series.brackets]
    b = [-br.without(cols) for br in series.brackets]
    sol = lin_solve(a, b, cols, list(dependent))
    free = tuple(i for i in series.indices if i not in set(dependent))

    subs = sol.assignments
    powers = {k: v.substitute(subs) for k, v in series.powers_dict().items()}
    bases = tuple((bb, e.substitute(subs)) for bb, e in series.base_powers)
    gammas = [g.substitute(subs) for g in series.gammas]
    for dep in dependent:
        gammas.append(GammaFactor(-subs[dep], 1))
    gammas = merge_gammas(gammas)
    status = _classify(gammas, free)
    return SeriesCandidate(
        free_indices=free, solution=sol, det=sol.det, status=status,
        prefactor=series.prefactor / sol.det,
        base_powers=tuple((bb, e) for bb, e in bases
                          if not (e.is_constant() and e.const == 0)),
        powers=tuple(sorted((k, v) for k, v in powers.items()
                            if not (v.is_constant() and v.const == 0))),
        gammas=tuple(gammas),
    )


def enumerate_candidates(series: BracketSeries) -> list[SeriesCandidate]:
    """One candidate per nonsingular choice of dependent indices (deterministic order)."""
    m = len(series.brackets)
    if m > len(series.indices):
        # includes index-free brackets such as <1> from int x^0 dx
        raise NoCandidates(f"{m} brackets cannot be solved by "
                           f"{len(series.indices)} indices")
    out = []
    for dep in combinations(series.indices, m):
        try:
            out.append(solve_candidate(series, dep))
        except SingularSystemError:
            continue
    if not out:
        raise NoCandidates("every dependent choice is singular")
    out.sort(key=lambda c: c.free_indices)
    return out


def count_nonsingular_subsets(series: BracketSeries) -> int:
    """Brute-force count of nonsingular bracket-column subsets (test oracle)."""
    from .symcore import det_rational
    m = len(series.brackets)
    cols = list(series.indices)
    count = 0
    for dep in combinations(cols, m):
        block = [[br.coeff(i) for i in dep] for br in series.brackets]
        if det_rational(block) != 0:
            count += 1
    return count


def sum_candidate(candidate: SeriesCandidate, param_values: Mapping[str, float],
                  tol: float = 1e-10, max_terms: int = 4000) -> float:
    """Numerically sum a convergent candidate over its free indices (simple poles only).

    Supports one free index; this is the bracket-level evaluation path used by
    round-trip tests -- the general residue machinery lives in the conic-hull module.
    """
    if candidate.status != STATUS_CONVERGENT:
        raise ValueError(f"cannot sum a {candidate.status} candidate")
    if len(candidate.free_indices) != 1:
        raise NotImplementedError("bracket-level summation supports one free index")
    idx = candidate.free_indices[0]

    def term(n: int) -> float:
        vals: dict[str, object] = dict(param_values)
        vals[idx] = n
        lg = 0.0
        sign = 1.0
        for g in candidate.gammas:
            x = float(g.arg.evaluate(vals))
            l, s = gammaln_signed(x)
            lg += g.mult * l
            sign *= s ** g.mult if g.mult > 0 else s ** (-g.mult)
        for base, e in candidate.base_powers:
            lg += float(e.evaluate(vals)) * math.log(float(base))
        for name, e in candidate.powers:
            if name == idx:
                raise ValueError("free index cannot be a power base")
            lg += float(e.evaluate(vals)) * math.log(float(param_values[name]))
        phi = (-1.0) ** n
        return sign * phi * math.exp(lg - math.lgamma(n + 1))

    total = 0.0
    prev = None
    streak = 0
    for n in range(max_terms):
        t = term(n)
        total += t
        if prev is not None and abs(prev) > 0:
            r = abs(t) / abs(prev)
            if r < 1.0 and abs(t) * r / (1.0 - r) < tol:
                streak += 1
                if streak >= 2:
                    return float(candidate.prefactor) * total
            else:
                streak = 0
        prev = t
    raise NoConvergence("candidate series did not meet tolerance")
