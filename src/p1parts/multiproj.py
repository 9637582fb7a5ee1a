"""Partition of a variety over projective-line coordinates into parts.

Coordinates live on the projective line: coordinate j is a ratio pair
(y_{2j} : y_{2j-1}), pinned to the canonical representative (1:0) or
(a:1) by the constraints y_{2j-1}(y_{2j-1}-1) = 0 and
(y_{2j}-1)(y_{2j-1}-1) = 0.  Every polynomial has the 2n slots
y_{2n} > ... > y_1.  A *part* is a node of the decomposition tree:
equality generators (a reduced basis), inequality constraints in the
already-chosen low slots, and the freezing level that created it.  The
level only decides names: slots at or below it print as z_k.

Splitting rule, applied bottom coordinate first: freeze the slots at or
below a level, look at each generator's leading coefficient in the
frozen slots, and saturate it by the part's inequality constraints.
Freezing is no substitution: the frozen slots are already the lex-least
ones, so only the split position of ``lead_split`` moves.  If what
remains could still be zero or nonzero on the part, the part does not
extend uniformly and is split in two: one child adjoins the squarefree
reduced coefficient J as an equality, the other saturates it away and
records J as an inequality.  A part where every leading coefficient at
every level is certified nonzero is a leaf, and that is what a leaf
certifies: every frozen leading coefficient is nonzero on the part.
Values for the low slots are meant to extend to roots of the lowest
generator in the next slot, yet on some known leaves they do not
(ROADMAP item 2); ``p1parts --oracle`` checks stepwise extension.
A child's basis carries the slots whose eliminant the parent's radical
closure proved squarefree, since its ideal contains the parent's, so the
child's closure computes no eliminant for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .fields import Field
from .groebner import (  # buchberger stays bound: perfbench traces it here
    _EMPTY, IdealBasis, _extend, _lead_spans, buchberger, elimination_subbasis,
    heuristic_radical, ideal_saturate, principal_saturate, radical_membership,
)
from .parser import ProblemSpec
from .poly import (
    Polynomial, ProjLayout, lead_split, squarefree_part, support_level,
)


class MaxNodesExceeded(RuntimeError):
    """Raised when the node budget runs out; carries the partial tree."""

    def __init__(self, tree):
        super().__init__(f"node budget exhausted at {len(tree.nodes)} nodes")
        self.tree = tree


@dataclass(frozen=True)
class Part:
    """One node of the decomposition.

    ``eq`` is a reduced basis, printed with the slots at or below
    ``frozen_level`` named z_k; ``neq`` holds monic, squarefree, pairwise
    distinct constraints in frozen slots (printed all in z names) that
    must stay nonzero on the part.  With the radical closure on, ``eq``
    carries the slots the closure proved squarefree as ``eq.proved``;
    the closures of the part's children start from them.
    """

    id: int
    prev: int
    eq: IdealBasis
    neq: tuple
    frozen_level: int


@dataclass
class PartTree:
    nodes: list
    layout: ProjLayout
    field: Field
    discarded_unit: int = 0
    discarded_empty: int = 0
    diagnostics: list = dc_field(default_factory=list)

    def path(self, node_id: int) -> tuple:
        out = []
        i = node_id
        while i >= 0:
            out.append(i)
            i = self.nodes[i].prev
        return tuple(reversed(out))

    def leaf_ids(self) -> list:
        parents = {p.prev for p in self.nodes}
        return [p.id for p in self.nodes if p.id not in parents]


@dataclass(frozen=True)
class SplitFinding:
    """A freezing level plus the generator whose lead coefficient splits."""

    level: int
    pivot: Polynomial
    J: Polynomial


def multihomogenize(b: Polynomial, layout: ProjLayout) -> Polynomial:
    """Clear denominators of b(x) with each x_j read as y_{2j}/y_{2j-1}.

    Each term c * prod x_j^{e_j} becomes
    c * prod y_{2j}^{e_j} y_{2j-1}^{d_j - e_j} with d_j the x_j-degree of
    b, making the result homogeneous of degree d_j in every pair.
    """
    if b.is_zero():
        raise ValueError("cannot homogenize the zero polynomial")
    n = layout.n
    if b.nslots != n:
        raise ValueError("input must be written in the n affine slots")
    degs = [b.degree_in(pos) for pos in range(n)]  # pos i holds x_{n-i}
    out = {}
    for mono, c in b.terms.items():
        new = [0] * layout.nslots
        for i, e in enumerate(mono):
            j = n - i
            new[layout.y_pos(2 * j)] = e
            new[layout.y_pos(2 * j - 1)] = degs[i] - e
        out[tuple(new)] = c
    return Polynomial(b.field, layout.nslots, out)


def canonical_constraints(layout: ProjLayout, field: Field) -> list:
    """The 2n constraints pinning each pair to (1:0) or (a:1)."""
    out = []
    nslots = layout.nslots
    for j in range(1, layout.n + 1):
        h = Polynomial.var(field, nslots, layout.y_pos(2 * j - 1))
        g = Polynomial.var(field, nslots, layout.y_pos(2 * j))
        one = Polynomial.const(field, nslots, 1)
        out.append(h * h - h)
        out.append((g - one) * (h - one))
    return out


def homogenized_generators(problem: ProblemSpec) -> list:
    """The problem's nonzero generators written in the pair slots."""
    gens = [b for b in problem.generators if not b.is_zero()]
    if problem.form == "x":
        layout = ProjLayout(problem.n)
        gens = [multihomogenize(b, layout) for b in gens]
    return gens


def reduced_lead_coefficient(lc: Polynomial, neq) -> Polynomial:
    """Saturate a frozen leading coefficient by each inequality constraint.

    A constant result certifies the coefficient nonzero on the part;
    otherwise the returned monic polynomial is the undetermined factor.
    """
    if lc.is_zero():
        raise ValueError("leading coefficient is zero")
    m = lc.monic()
    for q in neq:
        if m.is_constant():
            break
        m = principal_saturate(m, q)
    return m


def _scan_key(g: Polynomial):
    return (g.lead_monomial(), sorted(g.terms.items()))


def split_scan(part: Part) -> Optional[SplitFinding]:
    """Find the first freezing level whose lead coefficients force a split.

    Levels are tried bottom-up, and within a level the generators in
    basis order, each only inside its window: the levels [lo, hi) from
    the lowest to the highest slot of its leading monomial, read off the
    packed lead by ``_lead_spans``.  Generators with an empty window are
    never visited, and the levels run from the lowest window start to the
    highest window end.  Saturating a coefficient by the inequality
    constraints at or below the level certifies it nonzero when a
    constant remains; higher ones may not certify, since the extension
    step starts from partial solutions that meet only the constraints
    down there.  Returns None, making the part a leaf, when every
    coefficient at every level is certified.

    The window holds every level at which the leading monomial has a
    frozen and a live factor; at level L the slots k <= L are frozen.
    From hi = ``support_level(g)`` up, g is fully frozen.  Below lo the
    lead has no frozen factor, and then its frozen coefficient is the
    constant leading coefficient, which certifies itself: a term sharing
    the lead's live part agrees with the lead wherever the lead is
    nonzero and is no smaller anywhere else, so it is the lead.  From lo
    up, the frozen factor makes the coefficient nonconstant.

    The low equalities could certify nothing more.  Say g = M*r*m + (terms
    of smaller live monomial), m the nonconstant saturated coefficient.
    If u*m = 1 modulo I meet k[slots <= level], then u*g - M*r*(u*m - 1)
    lies in I and leads with M*LM(r), a proper divisor of LM(g), so
    another basis element's leading monomial divides LM(g).  A minimal
    basis forbids that, and ``part.eq`` is a reduced basis.
    """
    spans = zip(part.eq.generators, _lead_spans(part.eq))
    windows = [(g, lo, hi) for g, (lo, hi) in spans if lo < hi]
    if not windows:
        return None
    nslots = windows[0][0].nslots
    neq_levels = [(q, support_level(q)) for q in part.neq]
    for level in range(min(lo for _, lo, _ in windows),
                       max(hi for _, _, hi in windows)):
        low_neq = [q for q, lvl in neq_levels if lvl <= level]
        for g, lo, hi in windows:
            if lo <= level < hi:
                m = reduced_lead_coefficient(lead_split(g, nslots - level)[1], low_neq)
                if not m.is_constant():
                    return SplitFinding(level, g, squarefree_part(m))
    return None


def normalize_neq(neq, eq: IdealBasis, parent: Optional[Part] = None):
    """Irredundant inequality constraints sorted by ``_scan_key``, or None.

    Precondition: the constraints are monic, squarefree, nonconstant and
    pairwise distinct.  A parent's ``neq`` is, and adjoining the ``J`` of
    a split keeps it so: ``J`` is the squarefree part of a coefficient
    saturated by every inequality at or below the split level, hence
    coprime to each of them, and every other inequality lives above that
    level while ``J`` lives at or below it.

    None signals an empty part: some constraint vanishes identically on
    the equality set.  A constraint is dropped as redundant when the
    equality generators supported at or below its own top level already
    keep it from vanishing; redundancy against higher-level generators
    does not count, since the constraint still carries information for
    the extension steps below them.

    Both verdicts depend only on the constraint and those low generators.
    So a constraint the ``parent`` part kept is kept again, without a
    Groebner run, when the low generators are the parent's.  The one
    constraint new to a child of ``parent`` is the split's J, and that
    child's ideal lies between I : J^infinity and its radical, with the
    closure on or off.  If a power of J lay in its low generators, J
    would lie in that radical, so I : J^infinity would be the unit ideal,
    and so would the child's; ``partition_variety`` discards a unit child
    before this runs.  So J gets no emptiness test.
    """
    out = []
    for q in neq:
        # exact: a power of q lies in eq iff it lies in the generators
        # supported at or below the level of q
        level = support_level(q)
        low_eq = elimination_subbasis(eq, level)
        if (parent is not None and q in parent.neq and low_eq.generators
                == elimination_subbasis(parent.eq, level).generators):
            out.append(q)
            continue
        if (parent is None or q in parent.neq) and radical_membership(q, low_eq):
            return None
        if not _extend(low_eq, (q,)).is_unit():
            out.append(q)
    out.sort(key=_scan_key)
    return tuple(out)


def _closed(basis: IdealBasis, radical: bool) -> IdealBasis:
    """The part's basis, closed when ``radical``."""
    return heuristic_radical(basis) if radical else basis


def root_part(problem: ProblemSpec, radical: bool = True) -> Part:
    """Node 0: the empty basis extended by the canonical constraints, then
    by the homogenized generators, one signature step each (seconds faster
    on some inputs than one run over all of them)."""
    canonical = canonical_constraints(ProjLayout(problem.n), problem.field)
    eq = _extend(_EMPTY, canonical + homogenized_generators(problem))
    return Part(0, -1, _closed(eq, radical), (), 0)


def partition_variety(problem: ProblemSpec, *, max_nodes: int = 10000,
                      radical: bool = True) -> PartTree:
    """Decompose the variety of the problem ideal into disjoint parts.

    Nodes are processed first-in first-out; each split appends the
    equality child before the inequality child, so node numbering is
    deterministic.  Children that collapse to the unit ideal or whose
    inequality set is unsatisfiable are discarded and counted.  The root
    counts against ``max_nodes``, which must be at least 1.

    Both children of a split contain their parent's ideal, so each
    child's basis carries the slots its parent proved squarefree
    (``IdealBasis.proved``), and its radical closure starts from them.
    """
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be at least 1, got {max_nodes}")
    layout = ProjLayout(problem.n)
    tree = PartTree([], layout, problem.field)
    root = root_part(problem, radical)
    if root.eq.is_unit():
        tree.diagnostics.append("inconsistent input: equality ideal is the unit ideal")
        return tree
    tree.nodes.append(root)

    def append_child(parent: Part, eq: IdealBasis, neq, level: int, branch: str):
        if eq.is_unit():
            tree.discarded_unit += 1
            tree.diagnostics.append(
                f"discarded unit-ideal {branch} child of node {parent.id}")
            return
        cleaned = normalize_neq(neq, eq, parent)
        if cleaned is None:
            tree.discarded_empty += 1
            tree.diagnostics.append(
                f"discarded empty {branch} child of node {parent.id}")
            return
        if len(tree.nodes) >= max_nodes:
            raise MaxNodesExceeded(tree)
        tree.nodes.append(Part(len(tree.nodes), parent.id, eq, cleaned, level))

    current = 0
    while current < len(tree.nodes):
        part = tree.nodes[current]
        finding = split_scan(part)
        if finding is not None:
            level, J = finding.level, finding.J
            eq_a = _closed(_extend(part.eq, (J,)), radical)
            append_child(part, eq_a, part.neq, level, "equality")
            eq_b = _closed(ideal_saturate(part.eq, J), radical)
            append_child(part, eq_b, part.neq + (J,), level, "inequality")
        current += 1
    return tree


def leaf_parts(tree: PartTree) -> list:
    """Parts never referenced as a parent, in node order."""
    return [tree.nodes[i] for i in tree.leaf_ids()]
