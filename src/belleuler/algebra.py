"""Exact coefficient algebra: sparse polynomials and truncated power series.

Everything is computed over arbitrary-precision rationals; there is no
floating point anywhere.  Two value types do all the work:

* :class:`Poly` -- a sparse polynomial in a fixed tuple of named variables
  (the default ring is ``("x", "y")``).  It stores integer numerators over
  one common denominator, as FLINT's ``fmpq_poly`` does: a map
  ``{monomial key: nonzero int}`` and an int ``den > 0``, reduced so that
  ``den`` and the numerators share no factor.  A monomial key packs the
  exponent tuple ``(e_0, e_1, ...)`` into the one int
  ``sum_i e_i << (FIELD_BITS * i)`` (Kronecker substitution), so the key of
  a product of monomials is the sum of their keys.  The top bit of each
  field is a guard: exponents stay below
  ``EXPONENT_CEILING = 2**(FIELD_BITS - 1)``, and a product or
  antiderivative that reaches the ceiling raises ``ValueError`` instead of
  carrying into the next variable.  That form is canonical, so equality is
  a comparison of ints and is the library's notion of "identity holds";
  every writer hands its raw int sums to :meth:`Poly._make`, the one step
  that drops the zero numerators and divides out the gcd.  A scalar,
  whether a coefficient or an operand, is an int or a Fraction
  (``_is_exact``); ``Poly`` reads it through ``_exact``, as it is, since
  both carry ``numerator`` and ``denominator``, so an int builds no
  Fraction.  ``_as_fraction`` converts only where Fraction arithmetic
  follows, as in a :class:`Series` over the rationals, where int / int
  would be a float.
  :meth:`Poly.sum_of_products` is the one kernel for the sums
  ``sum_k c_k * a_k * b_k`` that the identity checks, the dual pairing,
  the operator action and the Appell reconstruction build; the Appell
  expansion writes its int numerators from the x = 0 rows in one pass of
  its own.  :meth:`Poly.subs` keeps its own loop, off the kernel.  It
  raises where multiplying the images out would: at an image power, at
  each addend before a term's last factor in three or more source
  variables, or in the result, after cancellation.  :meth:`Poly.columns`
  splits a polynomial into its columns in one variable in one scan, which
  the dual pairing reads.  :attr:`Poly.terms` shows the coefficients as
  Fractions under exponent tuples.  Each formatter sorts the packed keys once:
  :meth:`Poly.pretty` orders the terms by the first exponent descending,
  then the others ascending, and :meth:`Poly.to_json_map` by total
  degree, then exponent tuple, both descending.  The spelling of the
  ordered terms is two functions of the module, ``_pretty_terms`` and
  ``_json_terms``, which the command line also calls for members it
  writes without a Poly.  They take each term as a
  key, a numerator and a denominator, spell every power that occurs once,
  into a table per variable, write each coefficient with one gcd against
  its denominator (none when it is 1), and join the text once.

* :class:`Series` -- a formal power series in ``t``, truncated at a fixed
  order ``N``, over either plain Fractions or a polynomial ring.  Position
  ``k`` holds the raw coefficient of ``t^k`` (never divided by ``k!``);
  ``n! * s.coefficient(n)`` is the single conversion point for the
  exponential-generating-function convention.

All binary series operations insist on equal truncation orders; use
:meth:`Series.truncate` to align operands explicitly.  Asking for a
coefficient beyond the truncation order raises instead of silently
returning zero.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm

_FRACTION_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")

# bits per variable in a packed monomial key; the top one is the guard
FIELD_BITS = 15
EXPONENT_CEILING = 1 << (FIELD_BITS - 1)
_FIELD_MASK = (1 << FIELD_BITS) - 1


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact Fraction; reject anything else."""
    text = text.strip()
    if not _FRACTION_RE.match(text):
        raise ValueError(f"not an exact rational: {text!r} (expected 'p' or 'p/q')")
    return Fraction(text)


def format_fraction(value: Fraction) -> str:
    """Canonical "p/q" form (sign on p, q > 0) or plain "p" when q = 1."""
    return str(value)


def _format_ratio(num: int, den: int) -> str:
    # format_fraction(Fraction(num, den)) with one gcd and no Fraction
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _is_exact(value) -> bool:
    """The one exact-scalar rule: an int or a Fraction, never a bool."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _exact(value):
    """``value`` unchanged, if :func:`_is_exact` admits it: an int and a
    Fraction both carry ``.numerator`` and ``.denominator``."""
    if not _is_exact(value):
        raise ValueError(f"exact scalar required, got {type(value).__name__}")
    return value


def _as_fraction(value) -> Fraction:
    """``value`` as a Fraction, if :func:`_is_exact` admits it: for callers
    whose Fraction arithmetic follows, where int / int would be a float."""
    value = _exact(value)
    return value if isinstance(value, Fraction) else Fraction(value)


def _count(value, name: str) -> int:
    """The one count rule: a non-negative int, never a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a non-negative int, got {value!r}")
    return value


def _pack(exps, nvars: int) -> int:
    """The packed key of an exponent tuple, after checking each exponent."""
    exps = tuple(exps)
    if len(exps) != nvars:
        raise ValueError("exponent tuple does not match variables")
    key = 0
    for i, e in enumerate(exps):
        if _count(e, "exponent") >= EXPONENT_CEILING:
            raise ValueError(f"exponent {e} outside 0..{EXPONENT_CEILING - 1}")
        key |= e << (FIELD_BITS * i)
    return key


def _unpack(key: int, nvars: int) -> tuple:
    if nvars == 2:   # (x, y): the checks that substitute run 20% slower without it
        return key & _FIELD_MASK, key >> FIELD_BITS
    return tuple([(key >> shift) & _FIELD_MASK
                  for shift in range(0, FIELD_BITS * nvars, FIELD_BITS)])


def _guard(nvars: int) -> int:
    """The guard bits of ``nvars`` fields: the ceiling times the int that
    holds a 1 at the foot of each field."""
    return EXPONENT_CEILING * (((1 << (FIELD_BITS * nvars)) - 1) // _FIELD_MASK)


def _check_ceiling(poly: "Poly") -> "Poly":
    # two exponents below the ceiling sum below 2 * ceiling, so a key that
    # outgrew its field shows its guard bit and never a carry
    if any(map(_guard(len(poly.names)).__and__, poly._num)):
        raise ValueError(f"exponent reaches the ceiling {EXPONENT_CEILING}")
    return poly


def _times(left, right) -> dict:
    """The product of two term lists ``[(key, int)]``, as raw sums."""
    acc = {}
    get = acc.get
    for k1, v1 in left:
        for k2, v2 in right:
            k = k1 + k2
            acc[k] = get(k, 0) + v1 * v2
    return acc


def _power_rows(terms: list, top: int) -> list:
    """The numerators of [image^0, ..., image^top] over [1, q, ..., q^top],
    for an image of ``terms`` over q: each row grows from the one before."""
    rows = [[(0, 1)]]
    for _ in range(top):
        rows.append(list(_times(rows[-1], terms).items()))
    return rows


class Poly:
    """Sparse polynomial with rational coefficients in named variables.

    The coefficient of the monomial with packed key ``k`` is
    ``_num[k] / _den``: ``_num`` maps keys to nonzero ints and ``_den > 0``
    is reduced against them, so equal polynomials have equal
    ``(names, _num, _den)``.  ``Poly(names, terms)`` is the public
    constructor; it validates a map ``{exps: Fraction | int}`` whose
    exponents are ints in ``0..EXPONENT_CEILING - 1``.  Internal results
    come from the trusted :meth:`_make`, the one canonical-form step: each
    writer hands it raw int sums, zeros included, and it drops the zeros
    and divides out the common gcd.

    Instances are immutable values: every operation returns a new Poly.

    >>> x, y = Poly.gens("x", "y")
    >>> (x + y) * (x - y) == x**2 - y**2
    True
    >>> (x**2 * y).derivative("x").pretty()
    '2*x*y'
    >>> (x / 2 + y / 6).terms
    {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 6)}
    """

    __slots__ = ("names", "_num", "_den")

    def __init__(self, names, terms):
        names = tuple(names)
        coeffs = {}
        for exps, coeff in terms.items():
            key = _pack(exps, len(names))
            coeff = _exact(coeff)
            if coeff:
                coeffs[key] = coeff
        # over the lcm of reduced denominators the numerators share no factor
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.names = names
        self._num = {k: c.numerator * (den // c.denominator)
                     for k, c in coeffs.items()}
        self._den = den

    @classmethod
    def _make(cls, names: tuple, num: dict, den: int) -> "Poly":
        """Trusted constructor, the one canonical-form step: ``num`` holds
        ints, zeros too, under packed keys of ``len(names)`` fields, and
        ``den > 0``.  It drops the zeros, copying ``num`` only if it has one,
        and divides out the gcd; the Poly may keep ``num``, so the caller
        must not change it afterwards."""
        if not all(num.values()):
            num = {k: c for k, c in num.items() if c}
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {k: c // g for k, c in num.items()}
                den //= g
        poly = object.__new__(cls)
        poly.names = names
        poly._num = num
        poly._den = den
        return poly

    @classmethod
    def sum_of_products(cls, names, items) -> "Poly":
        """sum c * a * b over ``items`` of ``(c, a, b)``: c an int or
        Fraction, a and b Polys in ``names``, and b None for c * a alone.

        The kernel under every identity sum and every umbral sum but the
        Appell expansion, which writes its own from int rows: the products go
        straight into one map of int numerators over the lcm of the items'
        denominators, and the gcd is taken once, at the end.

        >>> x, y = Poly.gens("x", "y")
        >>> Poly.sum_of_products(("x", "y"), [(2, x, y), (Fraction(1, 3), y, None)])
        Poly('2*x*y + 1/3*y')
        >>> Poly.sum_of_products(("x", "y"), [(1, x, x), (-1, x, x)])
        Poly('0')
        """
        names = tuple(names)
        work, den, products = [], 1, False
        for c, a, b in items:
            if not _is_exact(c):
                _exact(c)   # raises the exact-scalar error
            if a.names != names or (b is not None and b.names != names):
                raise ValueError(f"variable mismatch: expected {names}")
            if not c or not a._num or (b is not None and not b._num):
                continue
            d = c.denominator * a._den
            if b is not None:
                d *= b._den
                products = True
                # the longer factor runs in the inner loop
                if len(a._num) > len(b._num):
                    a, b = b, a
            work.append((c.numerator, d, a._num,
                         None if b is None else list(b._num.items())))
            den = lcm(den, d)
        acc = {}
        get = acc.get
        for p, d, left, right in work:
            scale = p * (den // d)
            if right is None:
                for k, v in left.items():
                    acc[k] = get(k, 0) + scale * v
                continue
            for k1, v1 in left.items():
                s = scale * v1
                for k2, v2 in right:
                    k = k1 + k2
                    acc[k] = get(k, 0) + s * v2
        poly = cls._make(names, acc, den)
        return _check_ceiling(poly) if products else poly

    # -- construction -----------------------------------------------------

    @classmethod
    def constant(cls, value, names=("x", "y")) -> "Poly":
        value = _exact(value)
        return cls._make(tuple(names), {0: value.numerator}, value.denominator)

    @classmethod
    def zero(cls, names=("x", "y")) -> "Poly":
        return cls._make(tuple(names), {}, 1)

    @classmethod
    def gen(cls, name, names=("x", "y")) -> "Poly":
        names = tuple(names)
        if names.count(name) != 1:
            raise ValueError(f"{name!r} is not one of {names}")
        return cls._make(names, {1 << (FIELD_BITS * names.index(name)): 1}, 1)

    @classmethod
    def gens(cls, *names) -> "tuple[Poly, ...]":
        return tuple(cls.gen(n, names) for n in names)

    @property
    def terms(self) -> "dict[tuple, Fraction]":
        """The coefficients as a fresh map ``{exps: Fraction}``, no zeros."""
        den, nvars = self._den, len(self.names)
        return {_unpack(k, nvars): Fraction(c, den) for k, c in self._num.items()}

    # -- ring structure ---------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.names != self.names:
                raise ValueError(f"variable mismatch: {self.names} vs {other.names}")
            return other
        return Poly.constant(other, self.names)

    def _plus(self, other, sign: int) -> "Poly":
        """self + sign * other over the lcm of the two denominators."""
        other = self._coerce(other)
        d1, d2 = self._den, other._den
        g = gcd(d1, d2)
        m1, m2 = d2 // g, sign * (d1 // g)
        num = {k: c * m1 for k, c in self._num.items()} if m1 != 1 \
            else dict(self._num)
        get = num.get
        for k, c in other._num.items():
            num[k] = get(k, 0) + c * m2
        return Poly._make(self.names, num, d1 * m1)

    def __add__(self, other):
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Poly._make(self.names, {k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other):
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        return self._coerce(other) - self

    def _scaled(self, numerator: int, denominator: int) -> "Poly":
        """self * numerator / denominator, with denominator > 0."""
        return Poly._make(self.names,
                          {k: c * numerator for k, c in self._num.items()},
                          self._den * denominator)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _exact(other)
            return self._scaled(other.numerator, other.denominator)
        other = self._coerce(other)
        return _check_ceiling(Poly._make(
            self.names, _times(self._num.items(), other._num.items()),
            self._den * other._den))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        scalar = _exact(scalar)
        if not scalar:
            raise ZeroDivisionError("polynomial division by zero")
        p, q = scalar.numerator, scalar.denominator
        return self._scaled(-q, -p) if p < 0 else self._scaled(q, p)

    def __pow__(self, exponent: int):
        exponent = _count(exponent, "exponent")
        result = Poly.constant(1, self.names)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Poly):
            return (self.names == other.names and self._den == other._den
                    and self._num == other._num)
        if _is_exact(other):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        # a constant equals its scalar value, so it must hash like it too
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.names, self._den, frozenset(self._num.items())))

    def __bool__(self):
        return bool(self._num)

    def __repr__(self):
        return f"Poly({self.pretty()!r})"

    # -- structure queries ------------------------------------------------

    def _shift(self, var) -> int:
        """Bit offset of ``var``'s field in a packed key."""
        return FIELD_BITS * self.names.index(var)

    def degree(self, var=None) -> int:
        """Largest exponent of ``var`` (total degree if None); -1 for the zero poly."""
        if not self._num:
            return -1
        if var is None:
            nvars = len(self.names)
            return max(sum(_unpack(k, nvars)) for k in self._num)
        shift = self._shift(var)
        return max((k >> shift) & _FIELD_MASK for k in self._num)

    def coefficient(self, exps) -> Fraction:
        return Fraction(self._num.get(_pack(exps, len(self.names)), 0), self._den)

    def coefficient_in(self, var, k: int) -> "Poly":
        """Coefficient of ``var**k`` as a polynomial in the remaining
        variables: the column of :meth:`columns`, or zero."""
        column = self.columns(var).get(k)
        return column if column is not None else Poly.zero(self.names)

    def columns(self, var) -> "dict[int, Poly]":
        """``{k: coefficient_in(var, k)}`` for every k whose column is
        nonzero, from one scan of the terms.

        >>> x, y = Poly.gens("x", "y")
        >>> (x**2 * y + x**2 + 3 * y).columns("x")
        {2: Poly('1 + y'), 0: Poly('3*y')}
        """
        shift = self._shift(var)
        split = {}
        for key, c in self._num.items():
            k = (key >> shift) & _FIELD_MASK
            column = split.get(k)
            if column is None:
                split[k] = column = {}
            column[key - (k << shift)] = c
        return {k: Poly._make(self.names, num, self._den)
                for k, num in split.items()}

    def is_constant(self) -> bool:
        return not any(self._num)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self.pretty()}")
        return Fraction(self._num.get(0, 0), self._den)

    # -- calculus ---------------------------------------------------------

    def derivative(self, var) -> "Poly":
        shift = self._shift(var)
        unit = 1 << shift
        num = {}
        for k, c in self._num.items():
            e = (k >> shift) & _FIELD_MASK
            if e:
                num[k - unit] = c * e
        return Poly._make(self.names, num, self._den)

    def antiderivative(self, var) -> "Poly":
        """Formal antiderivative with zero constant term in ``var``."""
        shift = self._shift(var)
        unit = 1 << shift
        steps = {k: ((k >> shift) & _FIELD_MASK) + 1 for k in self._num}
        scale = lcm(*steps.values())
        num = {k + unit: c * (scale // steps[k]) for k, c in self._num.items()}
        return _check_ceiling(Poly._make(self.names, num, self._den * scale))

    # -- substitution -----------------------------------------------------

    def subs(self, mapping) -> "Poly":
        """Substitute polynomials or scalars for variables.

        ``mapping`` sends variable names to replacement values; replacements
        that are Polys fix the target ring (they must all share one variable
        tuple).  Unmapped variables must exist in the target ring and are
        carried through unchanged.  Any image is accepted; the powers of one
        with two or more terms are built for this call only.

        >>> x, y = Poly.gens("x", "y")
        >>> (x**2 * y).subs({"x": x + 1, "y": Fraction(1, 2)})
        Poly('1/2*x^2 + x + 1/2')
        """
        rings = {value.names for value in mapping.values() if isinstance(value, Poly)}
        if len(rings) > 1:
            raise ValueError("substitution images live in different rings")
        target = rings.pop() if rings else self.names

        # each image is a term list [(key, int)] over a denominator q: a term's
        # exponent e takes a one-term image p/q * m to p^e q^(top-e), over one
        # q^top, and a key offset e * m, and any other to q^(top-e) times its
        # e-th power row
        num, nvars = self._num, len(self.names)
        scaled, moved, polys, den = [], [], [], self._den
        for i, name in enumerate(self.names):
            image = mapping[name] if name in mapping else Poly.gen(name, target)
            if not isinstance(image, Poly):
                image = Poly.constant(image, target)
            terms, q = list(image._num.items()), image._den
            unit, p = (None, 1) if len(terms) > 1 else (terms or [(0, 0)])[0]
            degree = max([max(_unpack(k, len(target))) for k, _ in terms], default=0)
            if unit is None or p != q or degree > 1:
                shift = FIELD_BITS * i
                exps = {(k >> shift) & _FIELD_MASK for k in num}
                top = max(exps, default=0)
                if top * degree >= EXPONENT_CEILING:
                    raise ValueError(f"exponent reaches the ceiling {EXPONENT_CEILING}")
                if p != q:
                    scaled.append((i, {e: p ** e * q ** (top - e) for e in exps}))
                    den *= q ** top
            if unit is None:
                polys.append((i, _power_rows(terms, top)))
            elif unit:
                moved.append((i, unit))

        # a term becomes c at its offset times its power rows: each row but
        # the last multiplies into the head, and the last adds straight into
        # the result.  No sum of two addends below the ceiling carries, so
        # the result's check after cancellation sees a term's last factor;
        # in three or more source variables each addend before it is
        # checked.  Off sum_of_products, the oracle paths that substitute
        # share no code with the kernel
        guard = _guard(len(target)) if nvars > 2 else 0
        acc = {}
        get = acc.get
        for key, c in num.items():
            exps = _unpack(key, nvars)
            for i, factors in scaled:
                c *= factors[exps[i]]
            if not c:
                continue
            offset = 0
            for i, unit in moved:
                if offset & guard:
                    raise ValueError(f"exponent reaches the ceiling {EXPONENT_CEILING}")
                offset += exps[i] * unit
            powers = [rows[exps[i]] for i, rows in polys if exps[i]]
            if not powers:
                acc[offset] = get(offset, 0) + c
                continue
            head, last = [(offset, c)], len(powers) - 1
            for j, row in enumerate(powers):
                if guard and any(guard & k for k, v in head if v):
                    raise ValueError(f"exponent reaches the ceiling {EXPONENT_CEILING}")
                if j < last:
                    head = _times(head, row).items()
            for k1, v1 in head:
                for k2, v2 in powers[last]:
                    k = k1 + k2
                    acc[k] = get(k, 0) + v1 * v2
        return _check_ceiling(Poly._make(target, acc, den))

    def evaluate(self, assignments) -> Fraction:
        """Evaluate at an exact rational point; every variable must be assigned."""
        return self.subs({name: _exact(assignments[name])
                          for name in self.names}).constant_value()

    # -- serialization ----------------------------------------------------

    def to_json_map(self) -> "dict[str, str]":
        """Ordered monomial-key map, e.g. {"x^2": "1", "x^1*y^1": "2"}.

        Terms run by total degree, then by exponent tuple, both descending;
        every power is written out ("x^1") and "1" keys the constant term.
        """
        num, den = self._num, self._den
        nvars = len(self.names)

        def order(k):
            e = _unpack(k, nvars)
            return sum(e), e
        keys = sorted(num, key=order, reverse=True)
        return dict(_json_terms(self.names, keys, map(num.__getitem__, keys),
                                repeat(den)))

    def pretty(self) -> str:
        """Human-readable form: "x^2 - x", "1/2 - y", "0" for the zero poly.

        Terms run by the first variable's exponent descending, then by the
        other exponents ascending; a coefficient of 1 is left out of a term
        with a monomial.
        """
        num = self._num
        nvars = len(self.names)
        keys = sorted(num, key=lambda k: (-(k & _FIELD_MASK),) + _unpack(k, nvars)[1:])
        return _pretty_terms(self.names, keys, map(num.__getitem__, keys),
                             repeat(self._den))


# -- term spelling ----------------------------------------------------------
#
# Both formatters of Poly, and any writer that has a polynomial's terms
# without the Poly, spell them here: the terms come as packed keys, in the
# order they are printed, with a numerator and a denominator > 0 each.

def _monomials(names, keys, pretty: bool) -> list:
    """The text of each monomial in ``keys``, "" for the constant one.  Each
    power is ``x^e``, or ``x`` for e = 1 in pretty text, and the powers of a
    monomial are joined by "*".  Each power that occurs is spelled once per
    call, into a table per variable; a table that ran to the degree would
    make ``x^16383 + 1`` spell 16383 powers."""
    def power(name, e):
        return name if pretty and e == 1 else f"{name}^{e}"

    if len(names) == 2:   # (x, y): compute and table write 25-50% slower without it
        x, y = names
        xs = {e: power(x, e) for e in set(map(_FIELD_MASK.__and__, keys))}
        ys = {e: power(y, e) for e in {k >> FIELD_BITS for k in keys}}
        # a power of y follows a power of x after "*", or stands alone
        tail = {e: "*" + text for e, text in ys.items()}
        xs[0] = ys[0] = tail[0] = ""
        return [xs[k & _FIELD_MASK] + tail[k >> FIELD_BITS] if k & _FIELD_MASK
                else ys[k >> FIELD_BITS] for k in keys]
    exps = [_unpack(k, len(names)) for k in keys]
    tables = [{e: power(name, e) for e in {t[i] for t in exps} if e}
              for i, name in enumerate(names)]
    return ["*".join([t[e] for t, e in zip(tables, ex) if e]) for ex in exps]


def _pretty_terms(names, keys, nums, dens) -> str:
    """The text of ``Poly.pretty`` for the terms ``num/den`` times the
    monomial of each key: a sign between terms, a coefficient of 1 left out
    of a term with a monomial, ``_format_ratio`` for the others, and "0"
    for no term.  ``den`` need not be reduced against ``num``."""
    parts = []
    append = parts.append
    for mono, c, den in zip(_monomials(names, keys, True), nums, dens):
        if c < 0:
            append(" - ")
            c = -c
        else:
            append(" + ")
        if c != den or not mono:
            body = str(c) if den == 1 else _format_ratio(c, den)
            mono = f"{body}*{mono}" if mono else body
        append(mono)
    if not parts:
        return "0"
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)


def _json_terms(names, keys, nums, dens):
    """The pairs of ``Poly.to_json_map`` for the same terms, one at a time:
    every power written out ("x^1"), "1" for the constant monomial, and the
    value ``_format_ratio(num, den)``."""
    return ((mono or "1", str(c) if den == 1 else _format_ratio(c, den))
            for mono, c, den in zip(_monomials(names, keys, False), nums, dens))


class CoefficientRing:
    """Descriptor for a series coefficient ring: Fractions, or Polys in fixed vars."""

    __slots__ = ("names",)

    def __init__(self, names=None):
        self.names = tuple(names) if names is not None else None

    @property
    def zero(self):
        return Fraction(0) if self.names is None else Poly.zero(self.names)

    @property
    def one(self):
        return Fraction(1) if self.names is None else Poly.constant(1, self.names)

    def coerce(self, value):
        if self.names is None:
            if isinstance(value, Poly):
                raise ValueError("polynomial coefficient in a rational series")
            return _as_fraction(value)
        if isinstance(value, Poly):
            if value.names != self.names:
                raise ValueError(f"variable mismatch: {value.names} vs {self.names}")
            return value
        return Poly.constant(value, self.names)

    def gen(self, name) -> Poly:
        return Poly.gen(name, self.names)

    def __eq__(self, other):
        return isinstance(other, CoefficientRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "QQ" if self.names is None else f"CoefficientRing({self.names})"


QQ = CoefficientRing()
XY = CoefficientRing(("x", "y"))


def _invert_coefficient(value):
    if isinstance(value, Fraction):
        if not value:
            raise ValueError("constant term is zero; series not invertible")
        return 1 / value
    if isinstance(value, Poly):
        if not value.is_constant() or not value:
            raise ValueError("constant term is not an invertible polynomial "
                             f"(got {value.pretty()})")
        return Poly.constant(1 / value.constant_value(), value.names)
    raise TypeError(type(value))


class Series:
    """Formal power series in t over an exact ring, truncated at fixed order.

    ``coeffs[k]`` is the raw coefficient of ``t^k``.  Binary operations
    require equal truncation orders.

    >>> t = Series.t(QQ, 4)
    >>> e = t.exp()
    >>> e.coefficient(3)
    Fraction(1, 6)
    >>> (e * e).coefficient(3)   # e^{2t}
    Fraction(4, 3)
    >>> e.log() == t
    True
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CoefficientRing, coeffs):
        if not coeffs:
            raise ValueError("a series needs at least the t^0 coefficient")
        self.ring = ring
        self.coeffs = [ring.coerce(c) for c in coeffs]

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, ring, order) -> "Series":
        return cls(ring, [ring.zero] * (order + 1))

    @classmethod
    def one(cls, ring, order) -> "Series":
        return cls(ring, [ring.one] + [ring.zero] * order)

    @classmethod
    def t(cls, ring, order) -> "Series":
        if order < 1:
            raise ValueError("order must be at least 1 to represent t")
        return cls(ring, [ring.zero, ring.one] + [ring.zero] * (order - 1))

    @classmethod
    def constant(cls, value, ring, order) -> "Series":
        return cls(ring, [value] + [ring.zero] * order)

    @classmethod
    def exp_t(cls, ring, order) -> "Series":
        """The series of e^t: coefficient 1/k! at t^k."""
        coeffs, fact = [], 1
        for k in range(order + 1):
            fact = fact * k if k else 1
            coeffs.append(Fraction(1, fact))
        return cls(ring, coeffs)

    # -- basic queries ----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int):
        """Coefficient of t^k.  Out-of-range k is an error, never a silent zero."""
        if not 0 <= k <= self.order:
            raise ValueError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def valuation(self):
        """Index of the lowest nonzero coefficient; None if zero up to order."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None

    def is_invertible(self) -> bool:
        return self.valuation() == 0

    def is_delta(self) -> bool:
        return self.valuation() == 1

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError(f"cannot extend truncation order {self.order} to {order}")
        return Series(self.ring, self.coeffs[: order + 1])

    # -- ring operations --------------------------------------------------

    def _align(self, other) -> "Series":
        if not isinstance(other, Series):
            raise TypeError("expected a Series")
        if other.ring != self.ring:
            raise ValueError("series live over different coefficient rings")
        if other.order != self.order:
            raise ValueError(
                f"truncation orders differ ({self.order} vs {other.order}); "
                "truncate explicitly first")
        return other

    def __add__(self, other):
        if isinstance(other, Series):
            other = self._align(other)
            return Series(self.ring, [a + b for a, b in zip(self.coeffs, other.coeffs)])
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] + self.ring.coerce(other)
        return Series(self.ring, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return Series(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, Series):
            return self + (-self._align(other))
        return self + (-self.ring.coerce(other) if isinstance(other, Poly) else -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Series):
            other = self._align(other)
            n = self.order
            out = [self.ring.zero] * (n + 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] = out[i + j] + a * b
            return Series(self.ring, out)
        scalar = self.ring.coerce(other)
        return Series(self.ring, [c * scalar for c in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / _as_fraction(scalar))

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.ring == other.ring and self.order == other.order
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring, tuple(self.coeffs)))

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:5])
        tail = ", ..." if self.order > 4 else ""
        return f"Series[{self.order}]({shown}{tail})"

    # -- transcendental operations ----------------------------------------

    def exp(self) -> "Series":
        """exp of a series with zero constant term."""
        if self.coeffs[0]:
            raise ValueError("exp needs a zero constant term")
        n = self.order
        out = [self.ring.one] + [self.ring.zero] * n
        for m in range(1, n + 1):
            acc = self.ring.zero
            for k in range(1, m + 1):
                if self.coeffs[k]:
                    acc = acc + k * self.coeffs[k] * out[m - k]
            out[m] = acc / m
        return Series(self.ring, out)

    def log(self) -> "Series":
        """log of a series with constant term one."""
        if self.coeffs[0] != self.ring.one:
            raise ValueError("log needs constant term 1")
        n = self.order
        out = [self.ring.zero] * (n + 1)
        for m in range(1, n + 1):
            acc = self.ring.zero
            for k in range(1, m):
                if out[k] and self.coeffs[m - k]:
                    acc = acc + k * out[k] * self.coeffs[m - k]
            out[m] = self.coeffs[m] - acc / m
        return Series(self.ring, out)

    def inverse(self) -> "Series":
        """Multiplicative inverse; requires an invertible constant term."""
        inv0 = _invert_coefficient(self.coeffs[0])
        n = self.order
        out = [inv0] + [self.ring.zero] * n
        for m in range(1, n + 1):
            acc = self.ring.zero
            for k in range(1, m + 1):
                if self.coeffs[k]:
                    acc = acc + self.coeffs[k] * out[m - k]
            out[m] = -(inv0 * acc)
        return Series(self.ring, out)

    def pow(self, alpha) -> "Series":
        """f**alpha for integer alpha, or exact rational alpha via exp(alpha*log f)."""
        if isinstance(alpha, Fraction) and alpha.denominator == 1:
            alpha = int(alpha)
        if isinstance(alpha, int):
            base = self.inverse() if alpha < 0 else self
            result = Series.one(self.ring, self.order)
            k = abs(alpha)
            while k:
                if k & 1:
                    result = result * base
                k >>= 1
                if k:
                    base = base * base
            return result
        if isinstance(alpha, Fraction):
            if self.coeffs[0] != self.ring.one:
                raise ValueError("rational powers need constant term 1")
            return (self.log() * alpha).exp()
        raise ValueError(f"exponent must be an int or Fraction, got {type(alpha).__name__}")

    __pow__ = pow

    def compose(self, inner: "Series") -> "Series":
        """Substitute a delta series (valuation >= 1) for t."""
        inner = self._align(inner)
        if inner.coeffs[0]:
            raise ValueError("composition needs inner constant term 0")
        result = Series.constant(self.coeffs[self.order], self.ring, self.order)
        for k in range(self.order - 1, -1, -1):
            result = result * inner + self.coeffs[k]
        return result

    def shift(self, k: int) -> "Series":
        """Multiply by t^k (k > 0, top coefficients fall off) or divide by t^|k|.

        Division requires the low coefficients to vanish and lowers the
        truncation order, so it stays exact at every order.
        """
        if k >= 0:
            return Series(self.ring, [self.ring.zero] * k
                          + self.coeffs[: self.order + 1 - k])
        k = -k
        if k > self.order:
            raise ValueError("shift below t^0")
        if any(self.coeffs[i] for i in range(k)):
            raise ValueError(f"cannot divide by t^{k}: low coefficients nonzero")
        return Series(self.ring, self.coeffs[k:])
