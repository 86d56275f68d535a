"""Metric-interval temporal logic over timed words, point-wise reading.

Grammar (concrete syntax):

    formula := prop | "!" f | f "&" f | f "|" f | f "->" f
             | "X[a,b]" f | "F[a,b]" f | "G[a,b]" f | f "U[a,b]" f

Interval endpoints are rationals (decimal or num/den notation); the upper
endpoint may be ``inf``; a < b is required.  ``|`` and ``->`` are expanded
into negation/conjunction at parse time.

Satisfaction is decided exactly on lasso words: positions at or past the
stem repeat with the cycle, and the relative stamps of a suffix depend only
on the position's residue, so every quantifier scan terminates once it has
either left a bounded window or covered one full cycle past the point where
its window opened.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyInterval, MitlSyntaxError
from .rational import INF, as_fraction
from .wts import TimedWord


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: object  # Fraction or INF

    def __post_init__(self):
        lo = as_fraction(self.lo)
        hi = self.hi if self.hi == INF else as_fraction(self.hi)
        if lo < 0:
            raise EmptyInterval(f"lower endpoint must be nonnegative, got {lo}")
        if not lo < hi:
            raise EmptyInterval(f"interval [{lo}, {hi}] has no width")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def contains(self, q: Fraction) -> bool:
        if q < self.lo:
            return False
        return True if self.hi == INF else q <= self.hi

    def __str__(self):
        hi = "inf" if self.hi == INF else str(self.hi)
        return f"[{self.lo},{hi}]"


@dataclass(frozen=True)
class Prop:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Not:
    sub: object

    def __str__(self):
        return f"!{_wrap(self.sub)}"


@dataclass(frozen=True)
class And:
    left: object
    right: object

    def __str__(self):
        return f"({self.left} & {self.right})"


@dataclass(frozen=True)
class Next:
    interval: Interval
    sub: object

    def __str__(self):
        return f"X{self.interval} {_wrap(self.sub)}"


@dataclass(frozen=True)
class Eventually:
    interval: Interval
    sub: object

    def __str__(self):
        return f"F{self.interval} {_wrap(self.sub)}"


@dataclass(frozen=True)
class Always:
    interval: Interval
    sub: object

    def __str__(self):
        return f"G{self.interval} {_wrap(self.sub)}"


@dataclass(frozen=True)
class Until:
    interval: Interval
    left: object
    right: object

    def __str__(self):
        return f"({self.left} U{self.interval} {self.right})"


def _wrap(f):
    return f"({f})" if isinstance(f, (And, Until)) else str(f)


def props(formula) -> frozenset[str]:
    if isinstance(formula, Prop):
        return frozenset({formula.name})
    if isinstance(formula, Not):
        return props(formula.sub)
    if isinstance(formula, (Next, Eventually, Always)):
        return props(formula.sub)
    if isinstance(formula, (And, Until)):
        return props(formula.left) | props(formula.right)
    raise TypeError(f"not a formula node: {formula!r}")


# -- parser ------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<not>!)|(?P<and>&)|(?P<or>\|)"
    r"|(?P<imp>->)|(?P<temporal>[XFGU]\s*\[[^\]]*\])|(?P<name>[A-Za-z_][A-Za-z0-9_]*))"
)

_KEYWORDS = {"U", "X", "F", "G", "inf"}


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise MitlSyntaxError(
                        f"unexpected character {text[pos:].strip()[0]!r} at offset {pos}"
                    )
                break
            pos = m.end()
            kind = m.lastgroup
            self.items.append((kind, m.group(kind)))
        self.i = 0

    def peek(self):
        return self.items[self.i] if self.i < len(self.items) else (None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok


def _parse_interval(raw: str) -> Interval:
    inner = raw[raw.index("[") + 1 : raw.rindex("]")]
    parts = inner.split(",")
    if len(parts) != 2:
        raise MitlSyntaxError(f"malformed interval [{inner}]")
    lo_s, hi_s = parts[0].strip(), parts[1].strip()
    try:
        lo = as_fraction(lo_s)
        hi = INF if hi_s == "inf" else as_fraction(hi_s)
    except (ValueError, ZeroDivisionError) as exc:
        raise MitlSyntaxError(f"bad interval endpoint in [{inner}]: {exc}") from None
    return Interval(lo, hi)


def parse(text: str, alphabet=None):
    """Parse concrete syntax into a formula tree.

    If ``alphabet`` is given, propositions outside it are rejected.
    """
    toks = _Tokens(text)
    f = _parse_implies(toks)
    kind, val = toks.peek()
    if kind is not None:
        raise MitlSyntaxError(f"trailing input near {val!r}")
    if alphabet is not None:
        extra = props(f) - frozenset(alphabet)
        if extra:
            raise MitlSyntaxError(f"unknown propositions {sorted(extra)}")
    return f


# precedence (loosest to tightest):  ->  |  &  U  unary
def _parse_implies(toks):
    left = _parse_or(toks)
    kind, _ = toks.peek()
    if kind == "imp":
        toks.take()
        right = _parse_implies(toks)
        # a -> b  ==  !(a & !b)
        return Not(And(left, Not(right)))
    return left


def _parse_or(toks):
    left = _parse_and(toks)
    while toks.peek()[0] == "or":
        toks.take()
        right = _parse_and(toks)
        # a | b  ==  !(!a & !b)
        left = Not(And(Not(left), Not(right)))
    return left


def _parse_and(toks):
    left = _parse_u(toks)
    while toks.peek()[0] == "and":
        toks.take()
        left = And(left, _parse_u(toks))
    return left


def _parse_u(toks):
    left = _parse_unary(toks)
    kind, val = toks.peek()
    if kind == "temporal" and val.lstrip().startswith("U"):
        toks.take()
        interval = _parse_interval(val)
        right = _parse_u(toks)
        return Until(interval, left, right)
    return left


def _parse_unary(toks):
    kind, val = toks.take()
    if kind == "not":
        return Not(_parse_unary(toks))
    if kind == "temporal":
        op = val.lstrip()[0]
        if op == "U":
            raise MitlSyntaxError("until needs a left operand")
        interval = _parse_interval(val)
        sub = _parse_unary(toks)
        return {"X": Next, "F": Eventually, "G": Always}[op](interval, sub)
    if kind == "lpar":
        inner = _parse_implies(toks)
        k2, v2 = toks.take()
        if k2 != "rpar":
            raise MitlSyntaxError(f"expected ')', found {v2!r}")
        return inner
    if kind == "name":
        if val in _KEYWORDS:
            raise MitlSyntaxError(f"{val!r} cannot be a proposition")
        return Prop(val)
    raise MitlSyntaxError(f"unexpected token {val!r}")


# -- satisfaction -------------------------------------------------------------


def sat(word: TimedWord, i: int, formula) -> bool:
    """Point-wise satisfaction at position i of a lasso word."""
    if i < 0:
        raise ValueError("positions are nonnegative")
    memo: dict[tuple, bool] = {}
    return _eval(word, word.canon(i), formula, memo)


def _eval(w: TimedWord, j: int, f, memo) -> bool:
    j = w.canon(j)
    key = (id(f), j)
    got = memo.get(key)
    if got is not None:
        return got
    # cycle-safe default: temporal scans below never re-enter (f, j) while
    # computing it, so a plain recursion with memo is sound
    if isinstance(f, Prop):
        out = f.name in w.label(j)
    elif isinstance(f, Not):
        out = not _eval(w, j, f.sub, memo)
    elif isinstance(f, And):
        out = _eval(w, j, f.left, memo) and _eval(w, j, f.right, memo)
    elif isinstance(f, Next):
        gap = w.time(j + 1) - w.time(j)
        out = f.interval.contains(gap) and _eval(w, j + 1, f.sub, memo)
    elif isinstance(f, Eventually):  # F[I] f == true U[I] f
        out = _scan_until(w, j, f.interval, None, f.sub, memo)
    elif isinstance(f, Always):  # G[I] f == !F[I] !f
        out = not _scan_until(w, j, f.interval, None, f.sub, memo, want=False)
    elif isinstance(f, Until):
        out = _scan_until(w, j, f.interval, f.left, f.right, memo)
    else:
        raise TypeError(f"not a formula node: {f!r}")
    memo[key] = out
    return out


def _coverage_end(w: TimedWord, j0: int) -> int:
    """First position index after which suffix behavior provably repeats."""
    return max(j0, w.stem_len) + w.cycle_len


def _scan_until(w, j, interval, left, right, memo, want=True) -> bool:
    """Whether some position in the window has ``right`` evaluate to
    ``want`` with ``left`` holding at every position before it; a ``left``
    of None holds everywhere.
    """
    base = w.time(j)
    k = j
    end = None
    while True:
        t = w.time(k) - base
        if interval.hi != INF and t > interval.hi:
            return False
        if t >= interval.lo:
            if end is None and interval.hi == INF:
                end = _coverage_end(w, k)
            if _eval(w, k, right, memo) == want:
                return True
        if end is not None and k >= end - 1:
            # one full cycle past the opening with the obligation intact and
            # no witness: the same residues repeat forever
            return False
        if left is not None and not _eval(w, k, left, memo):
            return False
        k += 1
