"""Exact-rational symbolic substrate: linear forms, gamma factors, small linear solves.

Everything here is exact (fractions.Fraction); floating point only enters in the
evaluation modules.  All types are immutable values, safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Rational = Fraction

RationalLike = Union[Rational, int, str]


def rat(x: RationalLike) -> Rational:
    """Coerce ints and 'p/q' strings to Fraction (already-exact values pass through)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class SymbolKind:
    SUMMATION_INDEX = "summation-index"
    CONTOUR_VARIABLE = "contour-variable"
    FREE_PARAMETER = "free-parameter"


class SymbolTable:
    """Ordered registry of symbols; name unique, kind fixed at creation."""

    def __init__(self):
        self._kinds: dict[str, str] = {}
        self._order: list[str] = []

    def declare(self, name: str, kind: str) -> str:
        if kind not in (SymbolKind.SUMMATION_INDEX, SymbolKind.CONTOUR_VARIABLE,
                        SymbolKind.FREE_PARAMETER):
            raise ValueError(f"unknown symbol kind {kind!r}")
        if name in self._kinds:
            if self._kinds[name] != kind:
                raise ValueError(f"symbol {name!r} already declared as {self._kinds[name]}")
            return name
        self._kinds[name] = kind
        self._order.append(name)
        return name

    def fresh(self, prefix: str, kind: str) -> str:
        i = 1
        while f"{prefix}{i}" in self._kinds:
            i += 1
        return self.declare(f"{prefix}{i}", kind)

    def kind(self, name: str) -> str:
        return self._kinds[name]

    def __contains__(self, name: str) -> bool:
        return name in self._kinds

    def names(self, kind: str | None = None) -> list[str]:
        if kind is None:
            return list(self._order)
        return [n for n in self._order if self._kinds[n] == kind]

    def indices(self) -> list[str]:
        return self.names(SymbolKind.SUMMATION_INDEX)

    def parameters(self) -> list[str]:
        return self.names(SymbolKind.FREE_PARAMETER)


class LinearForm:
    """Rational linear combination of symbols plus a constant; zero coefficients dropped."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Mapping[str, RationalLike] | None = None,
                 const: RationalLike = 0):
        cc = {}
        if coeffs:
            for name, c in coeffs.items():
                c = rat(c)
                if c != 0:
                    cc[name] = c
        object.__setattr__(self, "coeffs", cc)
        object.__setattr__(self, "const", rat(const))

    def __setattr__(self, *a):
        raise AttributeError("LinearForm is immutable")

    @staticmethod
    def symbol(name: str) -> "LinearForm":
        return LinearForm({name: 1})

    @staticmethod
    def constant(c: RationalLike) -> "LinearForm":
        return LinearForm({}, c)

    def coeff(self, name: str) -> Rational:
        return self.coeffs.get(name, Fraction(0))

    def without(self, names: Iterable[str]) -> "LinearForm":
        """The form with the terms in ``names`` dropped; the constant stays."""
        names = set(names)
        return LinearForm({k: v for k, v in self.coeffs.items() if k not in names},
                          self.const)

    def symbols(self) -> set[str]:
        return set(self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs

    def __add__(self, other) -> "LinearForm":
        other = _as_linform(other)
        cc = dict(self.coeffs)
        for k, v in other.coeffs.items():
            cc[k] = cc.get(k, Fraction(0)) + v
        return LinearForm(cc, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "LinearForm":
        return LinearForm({k: -v for k, v in self.coeffs.items()}, -self.const)

    def __sub__(self, other) -> "LinearForm":
        return self + (-_as_linform(other))

    def __rsub__(self, other) -> "LinearForm":
        return _as_linform(other) + (-self)

    def __mul__(self, c: RationalLike) -> "LinearForm":
        c = rat(c)
        return LinearForm({k: v * c for k, v in self.coeffs.items()}, self.const * c)

    __rmul__ = __mul__

    def __truediv__(self, c: RationalLike) -> "LinearForm":
        return self * (Fraction(1) / rat(c))

    def substitute(self, assignments: Mapping[str, "LinearForm"]) -> "LinearForm":
        out = LinearForm.constant(self.const)
        for name, c in self.coeffs.items():
            repl = assignments.get(name)
            out = out + (repl * c if repl is not None else LinearForm({name: c}))
        return out

    def evaluate(self, values: Mapping[str, object]):
        """Numeric value given complete symbol assignments (numbers of any flavor)."""
        total = self.const if all(isinstance(v, (Fraction, int)) for v in values.values()) \
            else float(self.const)
        for name, c in self.coeffs.items():
            if name not in values:
                raise KeyError(f"no value for symbol {name!r}")
            v = values[name]
            total = total + (c if isinstance(v, (Fraction, int)) else float(c)) * v
        return total

    def _key(self):
        return (tuple(sorted(self.coeffs.items())), self.const)

    def __eq__(self, other):
        return isinstance(other, LinearForm) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        parts = []
        for name in sorted(self.coeffs):
            c = self.coeffs[name]
            if c == 1:
                parts.append(f"+{name}")
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{'+' if c > 0 else '-'}{abs(c)}*{name}")
        if self.const != 0 or not parts:
            parts.append(f"{'+' if self.const >= 0 else '-'}{abs(self.const)}")
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s


def _as_linform(x) -> LinearForm:
    if isinstance(x, LinearForm):
        return x
    return LinearForm.constant(rat(x))


@dataclass(frozen=True)
class GammaFactor:
    """Gamma(arg)**mult; mult > 0 numerator, mult < 0 denominator."""
    arg: LinearForm
    mult: int = 1

    def __post_init__(self):
        if self.mult == 0:
            raise ValueError("GammaFactor with zero multiplicity")

    def substitute(self, assignments: Mapping[str, LinearForm]) -> "GammaFactor":
        return GammaFactor(self.arg.substitute(assignments), self.mult)

    def __repr__(self):
        return f"G({self.arg!r})^{self.mult}"


def merge_gammas(factors: Iterable[GammaFactor]) -> list[GammaFactor]:
    """Combine identical arguments, drop zero multiplicities, sort canonically."""
    acc: dict[LinearForm, int] = {}
    for f in factors:
        acc[f.arg] = acc.get(f.arg, 0) + f.mult
    out = [GammaFactor(a, m) for a, m in acc.items() if m != 0]
    out.sort(key=lambda f: (sorted(f.arg.coeffs.items()), f.arg.const, f.mult))
    return out


class SingularSystemError(ValueError):
    """Raised when the selected dependent block has zero determinant."""


@dataclass(frozen=True)
class LinSolution:
    assignments: dict[str, LinearForm]   # dependent symbol -> form over the free symbols
    det: Rational                        # |det| of the dependent-column block


def det_rational(rows: Sequence[Sequence[Rational]]) -> Rational:
    """Exact determinant of a small square matrix (0 when it is singular)."""
    try:
        return mat_inverse(rows)[1]
    except SingularSystemError:
        return Fraction(0)


def mat_inverse(rows: Sequence[Sequence[Rational]]) -> tuple[list[list[Rational]], Rational]:
    """Exact inverse and determinant of a small square matrix.

    Raises SingularSystemError on zero determinant.
    """
    m = len(rows)
    a = [list(map(rat, r)) + [Fraction(int(i == j)) for j in range(m)]
         for i, r in enumerate(rows)]
    det = Fraction(1)
    for col in range(m):
        piv = None
        for r in range(col, m):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            raise SingularSystemError("singular matrix")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[m:] for row in a], det


def lin_solve(a: Sequence[Sequence[RationalLike]], b: Sequence[object],
              columns: Sequence[str], dependent: Sequence[str]) -> LinSolution:
    """Solve A x = b for the chosen dependent columns, exactly.

    ``a`` is m x n over the named ``columns``; ``b`` entries may be rationals or
    LinearForms over further free symbols.  The m ``dependent`` names are expressed
    as LinearForms over the remaining columns and any symbols appearing in ``b``.
    Returns the solution together with |det| of the dependent-column block.
    """
    m = len(a)
    if m != len(b):
        raise ValueError("row/rhs length mismatch")
    if len(dependent) != m:
        raise ValueError(f"need exactly {m} dependent columns, got {len(dependent)}")
    col_index = {name: j for j, name in enumerate(columns)}
    dep_idx = [col_index[name] for name in dependent]
    free = [name for name in columns if name not in set(dependent)]

    block = [[rat(a[i][j]) for j in dep_idx] for i in range(m)]
    # rhs_i = b_i - sum over free columns
    rhs: list[LinearForm] = []
    for i in range(m):
        r = _as_linform(b[i])
        for name in free:
            c = rat(a[i][col_index[name]])
            if c != 0:
                r = r - LinearForm({name: c})
        rhs.append(r)

    inv, det = None, None
    try:
        inv, det = mat_inverse(block)
    except SingularSystemError:
        raise SingularSystemError(
            f"dependent block for {list(dependent)} is singular")

    assignments: dict[str, LinearForm] = {}
    for i, name in enumerate(dependent):
        acc = LinearForm.constant(0)
        for j in range(m):
            if inv[i][j] != 0:
                acc = acc + rhs[j] * inv[i][j]
        assignments[name] = acc
    return LinSolution(assignments=assignments, det=abs(det))
