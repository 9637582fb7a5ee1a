"""Sparse multivariate polynomials under the lex monomial order.

Monomials are exponent tuples indexed by variable slot, slot 0 being the
lex-greatest variable, so plain tuple comparison is exactly the lex order.
Polynomials are immutable term maps; all operations are pure functions.
Like terms merge in ``_accumulate`` alone: construction, sums, products
and exact division all add a coefficient into a term map through it.

The gcd is Euclid's on dense coefficient lists in one slot, and f*g
divided by the lcm otherwise, with the lcm taken from the Groebner core.
No factorization into irreducibles happens anywhere; squarefree parts
come from gcds with partial derivatives (with exact p-th powers handled
by exponent division in characteristic p).
"""

from __future__ import annotations

from .fields import QQ, Field, FieldError


class Layout:
    """Ordered variable slots, lex-greatest first.

    ``_texts`` memoizes the factor text of each monomial for
    ``to_canonical_text``; the names never change, so no entry goes stale.
    """

    __slots__ = ("names", "_pos", "_texts")

    def __init__(self, names):
        self.names = tuple(names)
        self._pos = {name: i for i, name in enumerate(self.names)}
        if len(self._pos) != len(self.names):
            raise ValueError("duplicate variable names in layout")
        self._texts = {}

    @classmethod
    def affine(cls, n: int) -> "Layout":
        """Slots x_n > ... > x_1."""
        return cls(f"x_{n - i}" for i in range(n))

    @property
    def nslots(self) -> int:
        return len(self.names)

    def pos(self, name: str) -> int:
        return self._pos[name]

    def term_factor_positions(self, mono):
        """Print order of a term's variable factors (subclasses may reorder)."""
        return [i for i, e in enumerate(mono) if e]

    def __repr__(self):
        return f"Layout({', '.join(self.names)})"


class ProjLayout(Layout):
    """Slots for n projective-line coordinates, y_{2n} > ... > y_1.

    Point coordinate j is the pair (y_{2j} : y_{2j-1}); slot k sits at
    position 2n - k.  At a frozen level the slots k <= level, whose
    coordinates are already chosen, are named z_k instead.  They are the
    lex-least slots, so freezing renames them without changing the
    order; their factors print first, as the scalar part of a term.
    """

    __slots__ = ("n", "level")

    def __init__(self, n: int, level: int = 0):
        if n < 0:
            raise ValueError("coordinate count must be nonnegative")
        if not 0 <= level <= 2 * n:
            raise ValueError(f"freeze level {level} out of range")
        super().__init__(
            f"{'z' if k <= level else 'y'}_{k}" for k in range(2 * n, 0, -1))
        self.n = n
        self.level = level

    def at_level(self, level: int) -> "ProjLayout":
        """The same slots, named for the given frozen level."""
        return ProjLayout(self.n, level)

    def y_pos(self, k: int) -> int:
        if not 1 <= k <= 2 * self.n:
            raise ValueError(f"y index {k} out of range")
        return 2 * self.n - k

    def term_factor_positions(self, mono):
        # frozen factors print first, each group by decreasing slot index
        first_frozen = 2 * self.n - self.level
        zs = [i for i, e in enumerate(mono) if e and i >= first_frozen]
        ys = [i for i, e in enumerate(mono) if e and i < first_frozen]
        return zs + ys


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _accumulate(out, mono, c, field):
    """Add c into the term map's entry for mono, dropping a zero sum."""
    if mono in out:
        c = field.add(out[mono], c)
    if c:
        out[mono] = c
    else:
        out.pop(mono, None)


class Polynomial:
    """Immutable sparse polynomial: a term map exponent-tuple -> coefficient.

    Construction normalizes (zero coefficients dropped, values coerced to
    the field's canonical form).  Never mutate ``terms`` after creation.
    The only facts kept about the object are ``_hash`` and ``_oracle``
    (what the finite-field oracle finds about it), filled on first use;
    no constructor sets them.  The leading monomial is read off the terms
    per call: a basis element's lead is held, packed, by its basis.
    """

    __slots__ = ("field", "nslots", "terms", "_hash", "_oracle")

    def __init__(self, field: Field, nslots: int, terms=None):
        self.field = field
        self.nslots = nslots
        clean = {}
        if terms:
            for mono, c in (terms.items() if isinstance(terms, dict) else terms):
                mono = tuple(mono)
                if len(mono) != nslots:
                    raise ValueError("exponent tuple length does not match slot count")
                if any(e < 0 for e in mono):
                    raise ValueError("negative exponent")
                _accumulate(clean, mono, field.coerce(c), field)
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, field, nslots, terms):
        """Trusted constructor: terms already canonical, no zero values."""
        p = object.__new__(cls)
        p.field = field
        p.nslots = nslots
        p.terms = terms
        return p

    @classmethod
    def zero(cls, field, nslots):
        return cls._raw(field, nslots, {})

    @classmethod
    def const(cls, field, nslots, value):
        v = field.coerce(value)
        if not v:
            return cls.zero(field, nslots)
        return cls._raw(field, nslots, {(0,) * nslots: v})

    @classmethod
    def var(cls, field, nslots, pos, exp=1):
        if not 0 <= pos < nslots:
            raise ValueError(f"slot position {pos} out of range")
        mono = tuple(exp if i == pos else 0 for i in range(nslots))
        return cls(field, nslots, {mono: 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or self.terms.keys() == {(0,) * self.nslots}

    def constant_value(self):
        if self.is_zero():
            return self.field.zero()
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[(0,) * self.nslots]

    def lead_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms)

    def lead_coeff(self):
        return self.terms[self.lead_monomial()]

    def occurring_slots(self):
        used = set()
        for mono in self.terms:
            for i, e in enumerate(mono):
                if e:
                    used.add(i)
        return used

    def sorted_terms(self):
        return [(m, self.terms[m]) for m in sorted(self.terms, reverse=True)]

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.field != other.field:
            raise FieldError("operands belong to different fields")
        if self.nslots != other.nslots:
            raise ValueError("operands have different slot counts")

    def __add__(self, other):
        self._check(other)
        field = self.field
        out = dict(self.terms)
        for mono, c in other.terms.items():
            _accumulate(out, mono, c, field)
        return Polynomial._raw(field, self.nslots, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        field = self.field
        return Polynomial._raw(
            field, self.nslots, {m: field.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        field = self.field
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _accumulate(out, _mono_mul(m1, m2), field.mul(c1, c2), field)
        return Polynomial._raw(field, self.nslots, out)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.const(self.field, self.nslots, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c):
        """Multiply by a field scalar."""
        field = self.field
        c = field.coerce(c)
        if not c:
            return Polynomial.zero(field, self.nslots)
        return Polynomial._raw(
            field, self.nslots, {m: field.mul(v, c) for m, v in self.terms.items()})

    def monic(self):
        if self.is_zero():
            return self
        lc = self.lead_coeff()
        if lc == self.field.one():
            return self
        inv = self.field.inv(lc)
        return self.scale(inv)

    # -- structure ops -------------------------------------------------------

    def degree_in(self, pos: int) -> int:
        """Largest exponent of the slot; 0 if absent, -1 for the zero poly."""
        if not self.terms:
            return -1
        return max(m[pos] for m in self.terms)

    def evaluate(self, values):
        """Evaluate at raw field values, one per slot; returns a raw value."""
        if len(values) != self.nslots:
            raise ValueError("value count does not match slot count")
        field = self.field
        p = field.characteristic
        acc = field.zero()
        for mono, c in self.terms.items():
            t = c
            for pos, e in enumerate(mono):
                if e:
                    t = field.mul(t, pow(values[pos], e, p) if p else values[pos] ** e)
            acc = field.add(acc, t)
        return acc

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.field == other.field
                and self.nslots == other.nslots
                and self.terms == other.terms)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.field, self.nslots,
                               frozenset(self.terms.items())))
            return self._hash

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for m, c in self.sorted_terms():
            mono = "*".join(f"s{i}^{e}" for i, e in enumerate(m) if e) or "1"
            bits.append(f"{c}*{mono}")
        return "Poly(" + " + ".join(bits) + ")"


def support_level(f: Polynomial) -> int:
    """Highest slot index occurring in f, 0 for a constant.

    Read off the leading monomial alone: a term with a nonzero exponent
    in a slot before the lead's first nonzero one would be lex-greater
    than the lead.
    """
    if f.terms:
        for i, e in enumerate(f.lead_monomial()):
            if e:
                return f.nslots - i
    return 0


def _check_pair_homogeneous(g: Polynomial, n: int):
    """Raise ValueError unless g, in the slots of ``ProjLayout(n)``, is
    homogeneous in each pair (y_{2j}, y_{2j-1})."""
    for j in range(1, n + 1):
        a = 2 * n - 2 * j
        if len({m[a] + m[a + 1] for m in g.terms}) > 1:
            raise ValueError(
                f"generator is not homogeneous in pair {j}; its vanishing "
                "would depend on the representative")


def lead_split(f: Polynomial, first_frozen_pos: int):
    """Leading data with respect to an unfrozen/frozen slot split.

    Slots before ``first_frozen_pos`` are live, the rest frozen.  Terms
    are grouped by their live monomial part; the result is the
    lex-greatest live monomial together with its full frozen coefficient
    polynomial.  A polynomial lying entirely in the frozen slots yields
    the trivial monomial and itself as coefficient.

    The live slots come first, so the greatest live part is that of the
    leading monomial: a term with a greater live part would be the lead.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no leading data")
    if not 0 <= first_frozen_pos <= f.nslots:
        raise ValueError(f"split position {first_frozen_pos} out of range")
    live = f.lead_monomial()[:first_frozen_pos]
    zeros_head = (0,) * first_frozen_pos
    coeff_terms = {zeros_head + mono[first_frozen_pos:]: c
                   for mono, c in f.terms.items()
                   if mono[:first_frozen_pos] == live}
    best = live + (0,) * (f.nslots - first_frozen_pos)
    return best, Polynomial._raw(f.field, f.nslots, coeff_terms)


def derivative(f: Polynomial, pos: int) -> Polynomial:
    field = f.field
    out = {}
    for mono, c in f.terms.items():
        e = mono[pos]
        if not e:
            continue
        v = field.mul(c, field.coerce(e))
        if not v:
            continue
        # lowering one exponent keeps distinct monomials distinct
        out[mono[:pos] + (e - 1,) + mono[pos + 1:]] = v
    return Polynomial._raw(field, f.nslots, out)


def exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient f/g; raises ValueError if g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    f._check(g)
    field = f.field
    if g.is_constant():
        return f.scale(field.inv(g.constant_value()))
    lm_g = g.lead_monomial()
    inv_lc = field.inv(g.lead_coeff())
    work = dict(f.terms)
    quot = {}
    while work:
        m = max(work)
        if not _mono_divides(lm_g, m):
            raise ValueError("not an exact division")
        q_mono = _mono_div(m, lm_g)
        q = quot[q_mono] = field.mul(work[m], inv_lc)
        minus_q = field.neg(q)
        for mono, c in g.terms.items():
            _accumulate(work, _mono_mul(mono, q_mono), field.mul(c, minus_q), field)
    return Polynomial._raw(field, f.nslots, quot)


def _pth_root(f: Polynomial, p: int) -> Polynomial:
    # Over F_p every coefficient is its own p-th root (Frobenius fixes F_p).
    terms = {tuple(e // p for e in m): c for m, c in f.terms.items()}
    return Polynomial._raw(f.field, f.nslots, terms)


def _dense_rem(a: list, b: list, p: int) -> list:
    """Remainder of dense coefficient lists, lowest degree first.

    ``b`` has a nonzero last entry; ``p`` is the characteristic, 0 for
    the rationals.  Trailing zeros are stripped from the result.
    """
    a = a[:]
    db = len(b) - 1
    inv = pow(b[-1], -1, p) if p else QQ.inv(b[-1])
    while len(a) > db:
        q = a.pop() * inv
        shift = len(a) - db
        for i in range(db):
            v = a[shift + i] - q * b[i]
            a[shift + i] = v % p if p else v
        while a and not a[-1]:
            a.pop()
    return a


def _dense(f: Polynomial, pos: int) -> list:
    """Coefficient list of f in the one slot pos, lowest degree first."""
    a = [0] * (f.degree_in(pos) + 1)
    for mono, c in f.terms.items():
        a[mono[pos]] = c
    return a


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd.

    Inputs that share no slot are coprime, since every factor of a
    polynomial lies in its own slots.  In one slot the gcd is Euclid's
    on dense coefficient lists.  Otherwise it is f*g divided by their
    lcm, the generator of <f> ∩ <g>, which the Groebner core reads off
    <t*f, (1-t)*g> by eliminating a fresh slot t (Cox, Little & O'Shea,
    ch. 4 section 3).
    """
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    f._check(g)
    slots = f.occurring_slots()
    if not slots & g.occurring_slots():
        return Polynomial.const(f.field, f.nslots, 1)
    slots |= g.occurring_slots()
    if len(slots) == 1:
        pos, = slots
        p = f.field.characteristic
        a, b = _dense(f, pos), _dense(g, pos)
        while b:
            a, b = b, _dense_rem(a, b, p)
        return Polynomial(f.field, f.nslots, {
            tuple(e if i == pos else 0 for i in range(f.nslots)): c
            for e, c in enumerate(a)}).monic()
    # imported here because groebner imports this module
    from .groebner import _poly_lcm
    return exact_div(f * g, _poly_lcm(f, g)).monic()


def squarefree_part(f: Polynomial) -> Polynomial:
    """The product of the distinct irreducible factors of f, monic.

    Computed from gcds of f with its partial derivatives; in positive
    characteristic exact p-th powers are peeled off by exponent division
    first, and factors whose multiplicity the derivatives miss are
    recovered recursively.  A polynomial in one slot only ever meets the
    dense univariate Euclid of ``poly_gcd``.
    """
    if f.is_zero():
        raise ValueError("squarefree part of the zero polynomial")
    f = f.monic()
    return f if f.is_constant() else _squarefree_monic(f)


def _squarefree_monic(f: Polynomial) -> Polynomial:
    p = f.field.characteristic
    if p:
        while all(e % p == 0 for mono in f.terms for e in mono):
            f = _pth_root(f, p)
        if f.is_constant():
            return f
    g = f
    for pos in sorted(f.occurring_slots()):
        d = derivative(f, pos)
        if not d.is_zero():
            g = poly_gcd(g, d)
            if g.is_constant():
                return f
    w = exact_div(f, g).monic()
    s = squarefree_part(g)
    extra = exact_div(s, poly_gcd(s, w))
    return (w * extra).monic()


def to_canonical_text(f: Polynomial, layout: Layout) -> str:
    """Deterministic text form: terms in decreasing lex order, '*' between
    factors, '^' for powers, magnitude-1 coefficients and the leading '+'
    suppressed."""
    if f.nslots != layout.nslots:
        raise ValueError("polynomial does not match layout")
    if f.is_zero():
        return "0"
    factors = layout._texts
    rational = f.field.characteristic == 0
    one, names = f.field.one(), layout.names
    chunks = []
    for mono, c in f.sorted_terms():
        if rational and c < 0:
            sign, mag = "-", -c
        else:
            sign, mag = "+", c
        text = factors.get(mono)
        if text is None:
            text = factors[mono] = "*".join(
                names[pos] if mono[pos] == 1 else f"{names[pos]}^{mono[pos]}"
                for pos in layout.term_factor_positions(mono))
        if not text:
            body = str(mag)
        elif mag == one:
            body = text
        else:
            body = str(mag) + "*" + text
        chunks.append(sign + body)
    return "".join(chunks).removeprefix("+")
