"""Exact scalars and semiring/monoid operation tables.

Values are exact: arbitrary-precision integers, ``fractions.Fraction``,
pairs of fractions for gaussian rationals, and a distinct infinity token
for the tropical semiring. No floating point exists anywhere in this
package, so value equality is structural and decidable, which is what the
law checkers rely on.

A :class:`SemiringDescriptor` is a pure operation table, and its name is
the semiring's identity. The five built-in instances (``nat``, ``bool``,
``tropical``, ``ratnn``, ``gaussian``) operate on :class:`Scalar` values
whose tag is the descriptor's name, and check it; descriptors synthesized
elsewhere in the package (homset semirings, evaluation of a monad at the
one-point set) reuse the same dataclass under their own names and carry
whatever value type their construction dictates.

The arithmetic of the built-ins is written once, on bare payloads, in the
table ``_PAYLOAD_OPS``. Each built-in descriptor checks the tags of its
arguments, applies the table's operation and wraps the result, and the
matrix kernels of :mod:`semicat.matcat` compute with the same table. The
gaussian product takes each part over the common denominator of the integer
ratios of the factors' parts: one reduced ``Fraction``, the textbook value.
That ``Fraction``, each rational the grammar reads and each entry of a
ratnn or gaussian compose are built by :func:`_ratio`: the one gcd that
``Fraction(n, d)`` takes, then the two slots of ``Fraction`` set directly,
without the type dispatch of ``Fraction.__new__``. The ratnn sum and
product and the gaussian sum are ``Fraction``'s own steps, taken on the
slots by :func:`_rational_add` and :func:`_rational_mul` and set the same
way, and the gaussian star negates a reduced numerator, which needs no gcd.
The text grammar and the canonical text of the built-ins are written the
same way, on bare payloads, in ``_GRAMMARS`` and ``_RENDERERS``:
:func:`parse_scalar` and :func:`render_scalar` apply them to one scalar,
the file readers of :mod:`semicat.matcat` and :mod:`semicat.cli` to each
line of a file as it is read, and the writers to whole tables.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd
from typing import Callable, Sequence

from .errors import (
    FormatError,
    MonoidMismatch,
    TagMismatch,
    UnknownSemiring,
)

__all__ = [
    "Scalar",
    "Word",
    "SemiringDescriptor",
    "MonoidDescriptor",
    "nat",
    "boolean",
    "tropical",
    "rational",
    "gaussian",
    "word",
    "NAT",
    "BOOL",
    "TROPICAL",
    "RATNN",
    "GAUSSIAN",
    "FREE_WORDS",
    "SEMIRINGS",
    "MONOIDS",
    "semiring_by_name",
    "monoid_by_name",
    "multiplicative_monoid",
    "additive_monoid",
    "canonical_from_nat",
    "parse_scalar",
    "render_scalar",
]


# ---------------------------------------------------------------------------
# Scalar values


def _same_payload(x, y) -> bool:
    """``x == y`` as a tuple compares its items, with two ``Fraction``
    payloads, or two pairs of them, compared by their integer ratios:
    ``Fraction.__eq__`` first asks the ``numbers.Rational`` ABC about its
    argument, which costs more than the comparison. ``Scalar`` and
    ``matcat.Matrix`` compare payloads by this rule."""
    if x is y:
        return True
    if x.__class__ is Fraction is y.__class__:
        return x._numerator == y._numerator and x._denominator == y._denominator
    if x.__class__ is tuple is y.__class__ and len(x) == 2 == len(y):
        (a, b), (c, d) = x, y
        if a.__class__ is b.__class__ is c.__class__ is d.__class__ is Fraction:
            return (a._numerator, a._denominator, b._numerator, b._denominator) == (
                c._numerator, c._denominator, d._numerator, d._denominator)
    return x == y


def _payload_key(x):
    """What ``Scalar`` and ``matcat.Matrix`` hash a payload as, in place of
    ``Fraction.__hash__``'s modular inverse: a ``Fraction`` n/d as n where
    d == 1, so like the int it equals, and as (n, d) otherwise; a pair as
    the pair of its parts' keys; anything else as itself. Two canonical
    payloads that :func:`_same_payload` calls equal have equal keys."""
    if x.__class__ is Fraction:
        n, d = x._numerator, x._denominator
        return n if d == 1 else (n, d)
    if x.__class__ is tuple and len(x) == 2:
        a, b = x
        if a.__class__ is Fraction:
            n, d = a._numerator, a._denominator
            a = n if d == 1 else (n, d)
        if b.__class__ is Fraction:
            n, d = b._numerator, b._denominator
            b = n if d == 1 else (n, d)
        return a, b
    return x


@dataclass(frozen=True)
class Scalar:
    """An exact element of a named semiring.

    ``payload`` is canonical by construction: ints for ``nat``, bool for
    ``bool``, ``int | None`` for ``tropical`` (``None`` is the infinity
    token), a reduced ``Fraction`` for ``ratnn``, and a pair of reduced
    fractions ``(re, im)`` for ``gaussian``. Use the module constructors
    (:func:`nat`, :func:`tropical`, ...) rather than instantiating directly.

    Equality is ``(tag, payload)`` tuple equality, and the hash is that of
    ``(tag, key)``, with the payload compared by :func:`_same_payload` and
    keyed by :func:`_payload_key`: a ``Fraction``, or each part of a pair,
    by its integer ratio. Equal scalars hash alike when their payloads are
    canonical, as the constructors build them.
    """

    tag: str
    payload: object

    def __eq__(self, other) -> bool:
        if other.__class__ is not Scalar:
            return NotImplemented
        return self.tag == other.tag and _same_payload(self.payload, other.payload)

    def __hash__(self) -> int:
        return hash((self.tag, _payload_key(self.payload)))

    def key(self) -> tuple:
        """Orders by tag, then payload, with ``None`` (tropical infinity)
        after every other payload of its tag; equal exactly when the scalars are."""
        x = self.payload
        return ("scalar", self.tag, (1, 0) if x is None else (0, x))

    def __str__(self) -> str:
        return render_scalar(self)


def nat(n: int) -> Scalar:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"natural number expected, got {n!r}")
    return Scalar("nat", n)


def boolean(b: bool) -> Scalar:
    return Scalar("bool", bool(b))


def tropical(v: int | None) -> Scalar:
    """Tropical scalar: an integer weight, or ``None`` for infinity."""
    if v is not None and (not isinstance(v, int) or isinstance(v, bool)):
        raise ValueError(f"tropical payload must be int or None, got {v!r}")
    return Scalar("tropical", v)


def _ratio(n: int, d: int) -> Fraction:
    """``Fraction(n, d)`` for ints n and d > 0: one gcd, a division only
    where it is not 1, and the two slots that ``fractions`` keeps on
    Python 3.10-3.13 set on a bare instance. It skips the type dispatch
    of ``Fraction.__new__``, which costs more than the gcd on the
    numbers the kernels make."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    q = object.__new__(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def _rational_add(a: Fraction, b: Fraction) -> Fraction:
    """``a + b`` by ``Fraction``'s own steps (Knuth, TAOCP 4.5.1) on the
    slots: where the denominators share a factor g, only a factor of g can
    divide the sum over their lcm."""
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g = gcd(da, db)
    if g == 1:
        n, d = na * db + da * nb, da * db
    else:
        s = da // g
        n, d = na * (db // g) + nb * s, s * db
        g2 = gcd(n, g)
        if g2 != 1:
            n //= g2
            d //= g2
    q = object.__new__(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def _rational_mul(a: Fraction, b: Fraction) -> Fraction:
    """``a * b`` by ``Fraction``'s own steps on the slots: each numerator
    reduced against the other denominator leaves the product reduced."""
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    q = object.__new__(Fraction)
    q._numerator = na * nb
    q._denominator = da * db
    return q


def _fraction(value) -> Fraction:
    return value if type(value) is Fraction else Fraction(value)


def rational(value) -> Scalar:
    q = _fraction(value)
    if q < 0:
        raise ValueError(f"nonnegative rational expected, got {q}")
    return Scalar("ratnn", q)


def gaussian(re_part=0, im_part=0) -> Scalar:
    return Scalar("gaussian", (_fraction(re_part), _fraction(im_part)))


@dataclass(frozen=True)
class Word:
    """Element of a free monoid: a finite string of letters."""

    letters: tuple[str, ...]

    def key(self) -> tuple:
        return ("word", self.letters)

    def __str__(self) -> str:
        return "".join(self.letters) if self.letters else "eps"


def word(text: str) -> Word:
    return Word(tuple(text))


# ---------------------------------------------------------------------------
# Descriptors


@dataclass(frozen=True, eq=False)
class SemiringDescriptor:
    """Operation table of a commutative semiring, optionally with a star.

    ``name`` identifies the semiring: the values of a matrix or multiset
    over it carry it, and a name in ``_PAYLOAD_OPS`` marks a built-in,
    whose :class:`Scalar` values carry it as their tag.
    """

    name: str
    add: Callable
    zero: object
    mul: Callable
    one: object
    star: Callable | None = None

    def __deepcopy__(self, memo) -> SemiringDescriptor:
        # The object is the semiring's identity: matcat keys its kernels on it.
        return self


@dataclass(frozen=True, eq=False)
class MonoidDescriptor:
    """Operation table of a monoid. ``commutative`` is a claim, not a fact:
    the ``commutativity`` suite tests it on the action monad.
    ``member`` optionally recognizes elements, for mismatch errors."""

    name: str
    op: Callable
    unit: object
    commutative: bool
    member: Callable[[object], bool] | None = None

    def check_member(self, m: object) -> None:
        if self.member is not None and not self.member(m):
            raise MonoidMismatch(
                f"{_describe(m)} is not an element of monoid {self.name}"
            )


# ---------------------------------------------------------------------------
# Built-in semirings


def _tropical_add(x, y):
    return y if x is None else x if y is None else min(x, y)


def _tropical_mul(x, y):
    return None if x is None or y is None else x + y


def _gaussian_add(x, y):
    return (_rational_add(x[0], y[0]), _rational_add(x[1], y[1]))


def _gaussian_mul(x, y):
    # (p/q + r/s i)(t/u + v/w i), each part over the denominator q*s*u*w
    (xr, xi), (yr, yi) = x, y
    p, q, r, s = xr._numerator, xr._denominator, xi._numerator, xi._denominator
    t, u, v, w = yr._numerator, yr._denominator, yi._numerator, yi._denominator
    qu, sw = q * u, s * w
    return (
        _ratio(p * t * sw - r * v * qu, qu * sw),
        _ratio(p * v * s * u + r * t * q * w, qu * sw),
    )


def _gaussian_star(x):
    # The conjugate. Negating a reduced numerator keeps it reduced: no gcd.
    im = object.__new__(Fraction)
    im._numerator = -x[1]._numerator
    im._denominator = x[1]._denominator
    return (x[0], im)


def _same(x):
    return x


# The arithmetic of each built-in on bare payloads, as (add, mul, star).
# The descriptors below wrap these for Scalar values, and the matrix
# kernels of :mod:`semicat.matcat` compute with them directly.
_PAYLOAD_OPS: dict[str, tuple[Callable, Callable, Callable]] = {
    "nat": (operator.add, operator.mul, _same),
    "bool": (operator.or_, operator.and_, _same),
    "tropical": (_tropical_add, _tropical_mul, _same),
    "ratnn": (_rational_add, _rational_mul, _same),
    "gaussian": (_gaussian_add, _gaussian_mul, _gaussian_star),
}


def _describe(v) -> str:
    """``v`` in an error message: its own text when its type renders
    itself, else only its type, so that no message shows an address."""
    if isinstance(v, Scalar):
        return f"the {v.tag} scalar {v}"
    if type(v).__str__ is object.__str__:
        return f"an object of type {type(v).__name__}"
    return str(v)


def _payload(s: Scalar, tag: str):
    if not isinstance(s, Scalar) or s.tag != tag:
        raise TagMismatch(f"expected a {tag} scalar, got {_describe(s)}")
    return s.payload


def _payloads(xs: Sequence, tag: str) -> list:
    """The payloads of ``xs``, each checked as :func:`_payload` checks one;
    a bad entry raises through :func:`_payload`, with its message."""
    for x in xs:
        if not isinstance(x, Scalar) or x.tag != tag:
            _payload(x, tag)
    return [x.payload for x in xs]


def _builtin(tag: str, zero: Scalar, one: Scalar) -> SemiringDescriptor:
    """The descriptor of a built-in: its ``_PAYLOAD_OPS`` on scalars, each
    argument checked to carry ``tag`` and each result wrapped once."""
    padd, pmul, pstar = _PAYLOAD_OPS[tag]

    def add(a: Scalar, b: Scalar) -> Scalar:
        return Scalar(tag, padd(_payload(a, tag), _payload(b, tag)))

    def mul(a: Scalar, b: Scalar) -> Scalar:
        return Scalar(tag, pmul(_payload(a, tag), _payload(b, tag)))

    def star(a: Scalar) -> Scalar:
        return Scalar(tag, pstar(_payload(a, tag)))

    return SemiringDescriptor(tag, add, zero, mul, one, star)


NAT = _builtin("nat", nat(0), nat(1))
BOOL = _builtin("bool", boolean(False), boolean(True))
TROPICAL = _builtin("tropical", tropical(None), tropical(0))
RATNN = _builtin("ratnn", rational(0), rational(1))
GAUSSIAN = _builtin("gaussian", gaussian(0, 0), gaussian(1, 0))


SEMIRINGS: dict[str, SemiringDescriptor] = {
    d.name: d for d in (NAT, BOOL, TROPICAL, RATNN, GAUSSIAN)
}


def semiring_by_name(name: str) -> SemiringDescriptor:
    try:
        return SEMIRINGS[name]
    except KeyError:
        raise UnknownSemiring(
            f"unknown semiring {_quote(name)}; known: {', '.join(sorted(SEMIRINGS))}"
        ) from None


# ---------------------------------------------------------------------------
# Built-in monoids


def _word_op(a: Word, b: Word) -> Word:
    if not isinstance(a, Word) or not isinstance(b, Word):
        raise MonoidMismatch(
            f"free-word op expects words, got {_describe(a)}, {_describe(b)}"
        )
    return Word(a.letters + b.letters)


FREE_WORDS = MonoidDescriptor(
    name="free-words",
    op=_word_op,
    unit=Word(()),
    commutative=False,
    member=lambda m: isinstance(m, Word),
)


def _monoid(desc: SemiringDescriptor, kind: str, op: Callable, unit) -> MonoidDescriptor:
    """The monoid ``name-kind`` of ``op`` and ``unit`` inside the semiring
    ``desc``. Over a built-in its members are the :class:`Scalar` values of
    that tag; other semirings' values, of any type, are not checked."""
    t = desc.name
    member = (lambda m: isinstance(m, Scalar) and m.tag == t) if t in _PAYLOAD_OPS else None
    return MonoidDescriptor(f"{t}-{kind}", op, unit, commutative=True, member=member)


def multiplicative_monoid(desc: SemiringDescriptor) -> MonoidDescriptor:
    """The multiplicative monoid sitting inside a semiring."""
    return _monoid(desc, "mul", desc.mul, desc.one)


def additive_monoid(desc: SemiringDescriptor) -> MonoidDescriptor:
    return _monoid(desc, "add", desc.add, desc.zero)


MONOIDS: dict[str, MonoidDescriptor] = {
    "nat-mul": multiplicative_monoid(NAT),
    "nat-add": additive_monoid(NAT),
    "free-words": FREE_WORDS,
}


def monoid_by_name(name: str) -> MonoidDescriptor:
    try:
        return MONOIDS[name]
    except KeyError:
        raise UnknownSemiring(
            f"unknown monoid {_quote(name)}; known: {', '.join(sorted(MONOIDS))}"
        ) from None


# ---------------------------------------------------------------------------
# Canonical maps


def canonical_from_nat(desc: SemiringDescriptor, n: int) -> Scalar:
    """The n-fold sum of the descriptor's one (empty sum gives zero).

    The induced map from the naturals is a semiring homomorphism, which the
    tests verify on samples; it is how homomorphism witnesses get generated
    for the adjunction round-trips.
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    return reduce(desc.add, [desc.one] * n, desc.zero)


# ---------------------------------------------------------------------------
# Scalar text grammar

_RAT_RE = re.compile(r"(-?\d+)(?:/(\d+))?\Z", re.ASCII)


def _quote(text: str) -> str:
    """``text`` quoted for an error message: whole up to 40 characters,
    else its first 12 and its length, so a huge input is never echoed."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:12]!r}... ({len(text)} characters)"


def _decimal(text: str) -> int:
    """``int(text)`` for a literal the grammar has accepted. Python refuses
    to convert more than ``sys.get_int_max_str_digits()`` digits; here
    that is a FormatError naming the limit."""
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("-"))
        raise FormatError(
            f"{digits}-digit literal {text[:12]}... is above the limit of"
            f" {sys.get_int_max_str_digits()} digits for a decimal integer"
        ) from None


def _parse_fraction(text: str, original: str) -> Fraction:
    m = _RAT_RE.match(text)
    if not m:
        raise FormatError(f"bad rational literal {_quote(original)}")
    den = _decimal(m.group(2) or "1")
    if den == 0:
        raise FormatError(f"bad rational literal {_quote(original)}")
    return _ratio(_decimal(m.group(1)), den)


_ZERO, _ONE, _MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)


def _part(text: str, original: str, parts: dict) -> Fraction:
    """The rational part ``text`` of the literal ``original``, converted on
    its first lookup in ``parts`` and reused after that. A part that fails
    is never stored, so every literal that holds it fails with its own
    text."""
    q = parts.get(text)
    if q is None:
        q = parts[text] = _parse_fraction(text, original)
    return q


def _parse_nat(text: str, parts: dict) -> int:
    if not (text.isascii() and text.isdigit()):
        raise FormatError(f"bad natural literal {_quote(text)}")
    return _decimal(text)


def _parse_bool(text: str, parts: dict) -> bool:
    if text not in ("0", "1"):
        raise FormatError(f"bad boolean literal {_quote(text)} (want 0 or 1)")
    return text == "1"


def _parse_tropical(text: str, parts: dict) -> int | None:
    if text == "inf":
        return None
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise FormatError(f"bad tropical literal {_quote(text)}")
    return _decimal(text)


def _parse_ratnn(text: str, parts: dict) -> Fraction:
    q = _parse_fraction(text, text)
    if q.numerator < 0:
        raise FormatError(
            f"negative literal {_quote(text)} in nonnegative-rational semiring"
        )
    return q


def _parse_gaussian(text: str, parts: dict) -> tuple[Fraction, Fraction]:
    if not text:
        raise FormatError("empty gaussian literal")
    if not text.endswith("i"):
        return (_part(text, text, parts), _ZERO)
    body = text[:-1]
    # split real and imaginary parts at the last sign after the first
    sep = max(body.rfind("+", 1), body.rfind("-", 1))
    re_text, im_text = (body[:sep], body[sep:]) if sep >= 0 else ("", body)
    if im_text in ("", "+"):
        im_part = _ONE
    elif im_text == "-":
        im_part = _MINUS_ONE
    else:
        im_part = _part(im_text.lstrip("+"), text, parts)
    re_part = _part(re_text, text, parts) if re_text else _ZERO
    return (re_part, im_part)


# The text grammar of each built-in, from a stripped literal to its bare
# payload. ``parts`` holds the rational parts of gaussian literals converted
# so far: :func:`parse_scalar` passes a fresh dict, and the ``.mat`` reader
# of :mod:`semicat.matcat` one dict per literal table: one per file, or one
# per semiring of a ``matmul`` call.
_GRAMMARS: dict[str, Callable[[str, dict], object]] = {
    "nat": _parse_nat,
    "bool": _parse_bool,
    "tropical": _parse_tropical,
    "ratnn": _parse_ratnn,
    "gaussian": _parse_gaussian,
}


def parse_scalar(desc: SemiringDescriptor | str, text: str) -> Scalar:
    """Parse a scalar literal in the named semiring's text grammar.

    Grammar per semiring: ``nat`` unsigned integers; ``bool`` ``0``/``1``;
    ``tropical`` an integer or ``inf``; ``ratnn`` ``p`` or ``p/q``;
    ``gaussian`` ``re``, ``imi``, ``re+imi`` or ``re-imi`` with rational
    parts, ``im`` unsigned in the last two and optional for 1 (``i``,
    ``2-i``). A number's only sign is a leading ``-``, save that ``imi``
    alone may take ``+`` (``+i``, ``+3/4i``): ``+3``, ``+1+i`` and
    ``1+-2i`` are errors.
    """
    name = desc if isinstance(desc, str) else desc.name
    grammar = _GRAMMARS.get(name)
    if grammar is None:
        raise UnknownSemiring(f"no scalar grammar for semiring {name!r}")
    return Scalar(name, grammar(text.strip(), {}))


def _render_rationals(vs: Sequence) -> list[str]:
    # One comprehension over each Fraction's two slots, no call per entry.
    return [
        f"{q._numerator}" if q._denominator == 1 else f"{q._numerator}/{q._denominator}"
        for q in vs
    ]


def _render_gaussian(x: tuple[Fraction, Fraction]) -> str:
    re_n, re_d = x[0]._numerator, x[0]._denominator
    im_n, im_d = x[1]._numerator, x[1]._denominator
    re_text = f"{re_n}" if re_d == 1 else f"{re_n}/{re_d}"
    if im_n == 0:
        return re_text
    if im_d == 1 and (im_n == 1 or im_n == -1):
        im_text = "i" if im_n == 1 else "-i"
    else:
        im_text = f"{im_n}i" if im_d == 1 else f"{im_n}/{im_d}i"
    if re_n == 0:
        return im_text
    return f"{re_text}+{im_text}" if im_n > 0 else re_text + im_text


def _render_tropicals(vs: Sequence) -> list[str]:
    # One comprehension, no call per entry: f"{v}" is str(v) for an int.
    return ["inf" if v is None else f"{v}" for v in vs]


# The canonical texts of a sequence of each built-in's bare payloads, a list
# of one text per payload; the inverse of ``_GRAMMARS``. A bool, tropical or
# ratnn grid is written with no Python call per entry, a gaussian grid with
# one that reads the Fractions' slots; a too-long int raises ValueError in an
# f-string.
_RENDERERS: dict[str, Callable[[Sequence], list[str]]] = {
    "nat": lambda vs: list(map(str, vs)),
    "bool": lambda vs: ["1" if v else "0" for v in vs],
    "tropical": _render_tropicals,
    "ratnn": _render_rationals,
    "gaussian": lambda vs: list(map(_render_gaussian, vs)),
}


def render_scalar(s: Scalar) -> str:
    """Canonical text of a scalar; inverse of :func:`parse_scalar`. A value
    with more digits than Python converts to text is a FormatError."""
    if s.tag not in _RENDERERS:
        raise UnknownSemiring(f"no renderer for tag {s.tag!r}")
    return _render_rows(s.tag, _payloads((s,), s.tag), 1, 1)[0]


def _render_rows(tag: str, payloads: Sequence, rows: int, cols: int) -> list[str]:
    """The lines of a rows x cols grid of bare payloads of the built-in
    ``tag``, row major, written by the renderer of ``tag`` and separated
    by single spaces. Nothing is checked: callers take the payloads from
    :func:`_payloads` or from the grammar of ``tag``."""
    try:
        texts = _RENDERERS[tag](payloads)
    except ValueError:
        raise FormatError(
            f"a {tag} value has more than {sys.get_int_max_str_digits()} digits,"
            " the limit for writing a decimal integer"
        ) from None
    return [" ".join(texts[i * cols : (i + 1) * cols]) for i in range(rows)]
