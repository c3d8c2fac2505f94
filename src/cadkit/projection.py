"""Projection operators producing the level sets P_n .. P_1.

Four operators are provided: the classical Collins operator (reducta and
principal subresultant coefficients, which are read off the subresultant
chain of ``polynomial.subresultants``), the reduced McCallum operator
(coefficients, discriminants, cross resultants), the equational-constraint
operator, and the truth-table-invariant operator for clause lists.  Every
step tags its output polynomials with how they arose.  ``project_all``
assembles the full tower, placing each polynomial at its true level and
keeping each level's tagged inputs, from which
``ProjectionLevels.tags_for`` derives a basis polynomial's provenance when
it is asked for.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .polynomial import (
    Polynomial,
    PolynomialError,
    VarOrder,
    discriminant,
    poly_gcd,
    resultant,
    squarefree_basis,
    subresultants,
)

OPERATORS = ("collins", "mccallum", "ec", "tti")


class ProjectionError(PolynomialError):
    pass


@dataclass(frozen=True)
class Tagged:
    """A projection polynomial with its provenance."""

    poly: Polynomial
    tag: str
    parents: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ClauseSpec:
    """One clause of a truth-table-invariant problem.

    ``ec`` is the clause's equational constraint, if it has one; ``others``
    are the remaining polynomials of the clause.
    """

    ec: Optional[Polynomial]
    others: Tuple[Polynomial, ...] = ()

    def __post_init__(self):
        for p in self.all_polys():
            if p.is_constant:
                raise ProjectionError("clause polynomials must be non-constant")

    def all_polys(self) -> Tuple[Polynomial, ...]:
        return ((self.ec,) if self.ec is not None else ()) + tuple(self.others)


@dataclass(frozen=True)
class ProjectionConfig:
    operator: str
    order: VarOrder

    def __post_init__(self):
        if self.operator not in OPERATORS:
            raise ProjectionError("unknown projection operator %r" % (self.operator,))


@dataclass
class ProjectionLevels:
    """The projection tower: ``by_level[k]`` is the square-free basis P_k,
    and ``raw[k]`` the tagged polynomials it was computed from."""

    order: VarOrder
    by_level: Dict[int, List[Polynomial]] = field(default_factory=dict)
    raw: Dict[int, List[Tagged]] = field(default_factory=dict)

    @property
    def nvars(self) -> int:
        return len(self.order.names)

    def at_level(self, k: int) -> List[Polynomial]:
        return self.by_level.get(k, [])

    def tags_for(self, k: int, p: Polynomial) -> List[Tagged]:
        """The level-k inputs that share a factor with ``p``: how the
        basis polynomial ``p`` arose."""
        return [t for t in self.raw.get(k, [])
                if not poly_gcd(p, t.poly).is_constant]

    def counts(self) -> Dict[int, int]:
        return {k: len(v) for k, v in sorted(self.by_level.items())}


def count_by_tag(tagged: Sequence[Tagged]) -> Counter:
    """Tally a raw (pre-basis) step output by provenance tag."""
    return Counter(t.tag for t in tagged)


# -- the individual operators (raw, tagged output) ----------------------

def _coeff_tags(p: Polynomial, var: str) -> List[Tagged]:
    # coefficients from the leading one down, stopping at the first that
    # provably cannot vanish (a nonzero constant): beyond that point the
    # degree structure over any cell is already pinned down
    src = (str(p),)
    out = []
    for c in reversed(p.coeffs_in(var)):
        if c.is_constant:
            if not c.is_zero:
                break
            continue
        out.append(Tagged(c, "coefficient", src))
    return out


def _disc_tag(p: Polynomial, var: str) -> List[Tagged]:
    if p.degree(var) < 2:
        return []
    d = discriminant(p, var)
    if d.is_constant:
        return []
    return [Tagged(d, "discriminant", (str(p),))]


def _res_tag(p: Polynomial, q: Polynomial, var: str) -> List[Tagged]:
    r = resultant(p, q, var)
    if r.is_constant:
        return []
    return [Tagged(r, "resultant", (str(p), str(q)))]


def mccallum_tagged(polys: Sequence[Polynomial], var: str) -> List[Tagged]:
    out: List[Tagged] = []
    polys = list(polys)
    for p in polys:
        out.extend(_coeff_tags(p, var))
        out.extend(_disc_tag(p, var))
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            out.extend(_res_tag(polys[i], polys[j], var))
    return out


def _reducta(p: Polynomial, var: str) -> List[Polynomial]:
    out = []
    while not p.is_constant and p.degree(var) >= 1:
        out.append(p)
        p = p.reductum(var)
    return out


def _psc_tags(f: Polynomial, g: Polynomial, var: str,
              parents: Tuple[str, ...]) -> List[Tagged]:
    # psc_j is the leading coefficient of S_j when deg S_j = j and zero
    # otherwise; the chain yields S_j by falling j
    pscs = [s.leading_coeff(var) for j, s in subresultants(f, g, var)
            if s.degree(var) == j]
    return [Tagged(p, "resultant", parents) for p in reversed(pscs)
            if not p.is_constant]


def collins_tagged(polys: Sequence[Polynomial], var: str) -> List[Tagged]:
    out: List[Tagged] = []
    red_sets = [_reducta(p, var) for p in polys]
    for p, reds in zip(polys, red_sets):
        src = (str(p),)
        for g in reds:
            lc = g.leading_coeff(var)
            if not lc.is_constant:
                out.append(Tagged(lc, "coefficient", src))
            if g.degree(var) >= 2:
                out.extend(_psc_tags(g, g.derivative(var), var, src))
        # the trailing constant coefficient survives as the final reductum
        tail = reds[-1].reductum(var) if reds else p
        if not tail.is_constant and tail.degree(var) == 0:
            out.append(Tagged(tail, "coefficient", src))
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            for g in red_sets[i]:
                for h in red_sets[j]:
                    out.extend(_psc_tags(g, h, var,
                                         (str(polys[i]), str(polys[j]))))
    return out


def ec_tagged(clause: ClauseSpec, var: str) -> List[Tagged]:
    f = clause.ec
    if f is None or f.degree(var) < 1:
        raise ProjectionError("equational constraint missing or trivial in %s" % var)
    out = _coeff_tags(f, var) + _disc_tag(f, var)
    for g in clause.others:
        out.extend(_res_tag(f, g, var))
    return out


def tti_tagged(clauses: Sequence[ClauseSpec], var: str) -> List[Tagged]:
    if not clauses:
        raise ProjectionError("tti projection needs at least one clause")
    out: List[Tagged] = []
    contributions: List[List[Polynomial]] = []
    for c in clauses:
        if c.ec is not None and c.ec.degree(var) >= 1:
            out.extend(ec_tagged(c, var))
            contributions.append([c.ec])
        else:
            out.extend(mccallum_tagged(c.all_polys(), var))
            contributions.append(list(c.all_polys()))
    for i in range(len(clauses)):
        for j in range(i + 1, len(clauses)):
            done = set()
            for g in contributions[i]:
                for h in contributions[j]:
                    key = (str(g), str(h))
                    if key not in done:
                        done.add(key)
                        out.extend(_res_tag(g, h, var))
    return out


def implicit_product_tagged(clauses: Sequence[ClauseSpec], var: str) -> List[Tagged]:
    """The implicit-EC route: treat the product of the clause ECs as a single
    equational constraint, expanding disc and res multiplicatively into
    factors instead of forming the product."""
    ecs = [c.ec for c in clauses if c.ec is not None]
    if not ecs:
        raise ProjectionError("no equational constraints to multiply")
    out: List[Tagged] = []
    for f in ecs:
        out.extend(_coeff_tags(f, var))
        out.extend(_disc_tag(f, var))
    for i in range(len(ecs)):
        for j in range(i + 1, len(ecs)):
            out.extend(_res_tag(ecs[i], ecs[j], var))
    others = [g for c in clauses for g in c.others]
    for f in ecs:
        for g in others:
            out.extend(_res_tag(f, g, var))
    return out


# -- basis reduction and the public steps -------------------------------

def mccallum_step(polys: Sequence[Polynomial], var: str) -> List[Polynomial]:
    return squarefree_basis([t.poly for t in mccallum_tagged(polys, var)])


def collins_step(polys: Sequence[Polynomial], var: str) -> List[Polynomial]:
    return squarefree_basis([t.poly for t in collins_tagged(polys, var)])


# -- the full tower -----------------------------------------------------

def project_all(inputs, config: ProjectionConfig) -> ProjectionLevels:
    """Run projection from the top level down to the univariate set.

    ``inputs`` is a list of polynomials for the collins/mccallum operators,
    or a list of ClauseSpec for ec/tti.  Generated polynomials are placed
    at the level of their main variable; constants are dropped.
    """
    order = config.order
    if config.operator in ("ec", "tti"):
        clauses = list(inputs)
        if not clauses or not all(isinstance(c, ClauseSpec) for c in clauses):
            raise ProjectionError("%s projection requires clauses" % config.operator)
        base_polys = [p for c in clauses for p in c.all_polys()]
    else:
        clauses = None
        base_polys = list(inputs)
        if not base_polys:
            raise ProjectionError("no input polynomials")

    n = len(order.names)
    pending: Dict[int, List[Tagged]] = {k: [] for k in range(1, n + 1)}
    for p in base_polys:
        if p.is_constant:
            continue
        if p.order is not order:
            p = Polynomial(order, p.terms)
        pending[p.level()].append(Tagged(p, "input"))

    result = ProjectionLevels(order)
    for k in range(n, 0, -1):
        raw = pending[k]
        basis = squarefree_basis([t.poly for t in raw])
        # the basis splits off main-variable contents, which live at a
        # lower level; route them there instead of keeping them here
        for b in [b for b in basis if b.level() < k]:
            src = tuple(str(t.poly) for t in raw
                        if not poly_gcd(b, t.poly).is_constant)
            pending[b.level()].append(Tagged(b, "content", src))
        basis = [b for b in basis if b.level() == k]
        result.by_level[k] = basis
        result.raw[k] = raw
        if k == 1 or not basis:
            continue
        var = order.names[k - 1]
        tagged = _run_step(basis, raw, clauses, config, var)
        for t in tagged:
            if t.poly.is_constant:
                continue
            pending[t.poly.level()].append(t)
    return result


def _run_step(basis, raw, clauses, config: ProjectionConfig, var: str):
    op = config.operator
    if op == "mccallum":
        return mccallum_tagged(basis, var)
    if op == "collins":
        return collins_tagged(basis, var)
    # clause-aware operators apply only where a designated EC lives in the
    # current main variable; below that they fall back to mccallum
    has_ec = any(c.ec is not None and c.ec.degree(var) >= 1 for c in clauses)
    only_inputs = all(t.tag == "input" for t in raw)
    if has_ec and only_inputs:
        if op == "ec":
            if len(clauses) != 1:
                raise ProjectionError("ec projection expects a single clause")
            return ec_tagged(clauses[0], var)
        return tti_tagged(clauses, var)
    return mccallum_tagged(basis, var)
