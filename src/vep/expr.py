"""Piecewise-smooth expressions over the variable blocks xi, x and z.

The language is deliberately small: +, -, *, /, integer powers, abs and
binary min/max.  Trees are immutable; evaluation broadcasts over numpy
arrays so grid sweeps stay vectorized.  One forward pass, ``switch_rows``,
differentiates: it lists every abs/min/max node as a switch.  At a kink
point (abs arguments or min/max ties) ``grad_hull`` returns the gradients
of the sign vectors of the tied switches that some direction realizes,
instead of a single gradient.

Grammar::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ['^' INT]
    atom   := NUMBER | IDENT | '(' expr ')'
            | 'abs(' expr ')' | 'min(' expr ',' expr ')' | 'max(' expr ',' expr ')'
    IDENT  := ('xi'|'x'|'z') INT
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry as geo

EPS_DIV = 1e-12
ACTIVE_TOL = 1e-9

_BLOCKS = ("xi", "x", "z")


class ParseError(ValueError):
    """Syntax/identifier error carrying the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class EvalError(ArithmeticError):
    """Evaluation failure (near-zero divisor, bad point dimensions)."""


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    block: str  # 'xi' | 'x' | 'z'
    index: int  # 1-based


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr


@dataclass(frozen=True)
class Abs(Expr):
    a: Expr


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Min2(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Max2(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    power: int


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z]+[0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)

_IDENT = re.compile(r"(xi|x|z)([0-9]+)\Z")
_INT = re.compile(r"[0-9]+\Z")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(m.lastgroup), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, dims: tuple[int, int, int]):
        self.text = text
        self.dims = dims
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return (None, None, len(self.text))

    def _next(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def _expect_op(self, op: str):
        kind, val, off = self._next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", off)

    def parse(self) -> Expr:
        e = self._expr()
        kind, val, off = self._peek()
        if kind is not None:
            raise ParseError(f"unexpected trailing input {val!r}", off)
        return e

    def _expr(self) -> Expr:
        e = self._term()
        while True:
            kind, val, _ = self._peek()
            if kind == "op" and val in "+-":
                self.pos += 1
                rhs = self._term()
                e = Add(e, rhs) if val == "+" else Sub(e, rhs)
            else:
                return e

    def _term(self) -> Expr:
        e = self._factor()
        while True:
            kind, val, _ = self._peek()
            if kind == "op" and val in "*/":
                self.pos += 1
                rhs = self._factor()
                e = Mul(e, rhs) if val == "*" else Div(e, rhs)
            else:
                return e

    def _factor(self) -> Expr:
        kind, val, _ = self._peek()
        if kind == "op" and val == "-":
            self.pos += 1
            return Neg(self._factor())
        e = self._atom()
        kind, val, _ = self._peek()
        if kind == "op" and val == "^":
            self.pos += 1
            k, v, off = self._next()
            if k != "num" or not _INT.match(v):
                raise ParseError("integer exponent expected after '^'", off)
            e = Pow(e, int(v))
        return e

    def _atom(self) -> Expr:
        kind, val, off = self._next()
        if kind == "num":
            return Const(float(val))
        if kind == "op" and val == "(":
            e = self._expr()
            self._expect_op(")")
            return e
        if kind == "name":
            if val == "abs":
                self._expect_op("(")
                e = self._expr()
                self._expect_op(")")
                return Abs(e)
            if val in ("min", "max"):
                self._expect_op("(")
                a = self._expr()
                self._expect_op(",")
                b = self._expr()
                self._expect_op(")")
                return Min2(a, b) if val == "min" else Max2(a, b)
            m = _IDENT.match(val)
            if m is None:
                raise ParseError(f"unknown identifier {val!r}", off)
            block, idx = m.group(1), int(m.group(2))
            bound = dict(zip(_BLOCKS, self.dims))[block]
            if not 1 <= idx <= bound:
                raise ParseError(
                    f"index out of range: {val!r} with {block}-dimension {bound}", off
                )
            return Var(block, idx)
        raise ParseError(f"unexpected token {val!r}", off)


def parse(text: str, dims: tuple[int, int, int]) -> Expr:
    """Parse ``text`` against dims ``(p, n, n_z)``."""
    return _Parser(text, dims).parse()


# ---------------------------------------------------------------------------
# printing (round-trips through parse)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _fmt(e: Expr, parent: int) -> str:
    if isinstance(e, Const):
        s = repr(float(e.value))
    elif isinstance(e, Var):
        s = f"{e.block}{e.index}"
    elif isinstance(e, Abs):
        s = f"abs({_fmt(e.a, 0)})"
    elif isinstance(e, Min2):
        s = f"min({_fmt(e.a, 0)}, {_fmt(e.b, 0)})"
    elif isinstance(e, Max2):
        s = f"max({_fmt(e.a, 0)}, {_fmt(e.b, 0)})"
    elif isinstance(e, Neg):
        s = "-" + _fmt(e.a, _PREC_NEG)
    elif isinstance(e, Pow):
        s = _fmt(e.base, _PREC_ATOM) + "^" + str(e.power)
    elif isinstance(e, Add):
        s = _fmt(e.a, _PREC_ADD) + " + " + _fmt(e.b, _PREC_ADD + 1)
    elif isinstance(e, Sub):
        s = _fmt(e.a, _PREC_ADD) + " - " + _fmt(e.b, _PREC_ADD + 1)
    elif isinstance(e, Mul):
        s = _fmt(e.a, _PREC_MUL) + "*" + _fmt(e.b, _PREC_MUL + 1)
    elif isinstance(e, Div):
        s = _fmt(e.a, _PREC_MUL) + "/" + _fmt(e.b, _PREC_MUL + 1)
    else:  # pragma: no cover
        raise TypeError(f"unknown node {e!r}")
    if _prec(e) < parent:
        return "(" + s + ")"
    return s


def to_string(e: Expr) -> str:
    return _fmt(e, 0)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_expr(e: Expr, xi=(), x=(), z=()):
    """Evaluate at a point.  Entries of xi/x/z may be scalars or arrays."""
    env = {"xi": xi, "x": x, "z": z}
    return _ev(e, env)


def _ev(e: Expr, env):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        block = env[e.block]
        if e.index > len(block):
            raise EvalError(
                f"point has no component {e.block}{e.index} (got {len(block)})"
            )
        return block[e.index - 1]
    if isinstance(e, Neg):
        return -_ev(e.a, env)
    if isinstance(e, Abs):
        return np.abs(_ev(e.a, env))
    if isinstance(e, Add):
        return _ev(e.a, env) + _ev(e.b, env)
    if isinstance(e, Sub):
        return _ev(e.a, env) - _ev(e.b, env)
    if isinstance(e, Mul):
        return _ev(e.a, env) * _ev(e.b, env)
    if isinstance(e, Div):
        den = _ev(e.b, env)
        if np.any(np.abs(den) < EPS_DIV):
            raise EvalError("division by near-zero value")
        return _ev(e.a, env) / den
    if isinstance(e, Min2):
        return np.minimum(_ev(e.a, env), _ev(e.b, env))
    if isinstance(e, Max2):
        return np.maximum(_ev(e.a, env), _ev(e.b, env))
    if isinstance(e, Pow):
        if e.power == 0:
            return np.ones_like(np.asarray(_ev(e.base, env), dtype=float)) + 0.0
        return np.power(_ev(e.base, env), e.power)
    raise TypeError(f"unknown node {e!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# the switch table and branch gradients
# ---------------------------------------------------------------------------

MAX_TIED_SWITCHES = 10


@dataclass(frozen=True, eq=False)
class GradHull:
    """Gradients of the smooth branches that some direction realizes at a point.

    At a point where every piecewise node is strictly on one branch the
    tuple holds exactly the classical gradient.
    """

    generators: tuple

    @property
    def single(self) -> bool:
        return len(self.generators) == 1

    def as_matrix(self) -> np.ndarray:
        return np.asarray(self.generators, dtype=float)


def _pow_rows(v: np.ndarray, k: int) -> np.ndarray:
    """v ** k entry by entry with Python's float power (``np.power`` rounds
    some entries differently)."""
    return np.array([t ** k for t in v.tolist()], dtype=float)


def _differ(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Rows where g and h are two gradients, not one (1e-12 relative)."""
    return np.max(np.abs(g - h), axis=1, initial=0.0) > 1e-12 * np.maximum(
        1.0, np.max(np.abs(g), axis=1, initial=0.0))


def switch_rows(e: Expr, XI: np.ndarray, X: np.ndarray, Z: np.ndarray, wrt: str,
                signs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, list]:
    """One forward-mode pass over N points, the rows of XI, X and Z.

    Returns the values (N,), the gradients (N, dim) w.r.t. the block
    ``wrt`` ('xi', 'x', 'z', or the stacked blocks 'xix' and 'xixz') and the
    switch table.  Every ``abs``/``min``/``max`` node is a switch, listed in
    post-order as (tie, split, grad): ``tie`` (N,) marks the rows where its
    argument (``abs``) or gap (``min``/``max``) is within ``ACTIVE_TOL``,
    ``split`` (N,) the tied rows where its two branch gradients differ, and
    ``grad`` (N, dim) is the gradient of its argument or gap, oriented so
    that branch ``+`` (the ``+`` sign, or operand ``a``) is the one selected
    where it is positive.  A tied switch takes branch ``+``, or the branch
    of the sign that column k of ``signs`` (N, switches) gives switch k.
    """
    N, p = XI.shape
    n = X.shape[1]
    env = {"xi": XI, "x": X, "z": Z}
    dim = {"xi": p, "x": n, "z": Z.shape[1], "xix": p + n, "xixz": p + n + Z.shape[1]}.get(wrt)
    if dim is None:
        raise ValueError(f"unknown block selector {wrt!r}")
    offset = {"xix": {"xi": 0, "x": p}, "xixz": {"xi": 0, "x": p, "z": p + n}}.get(wrt, {wrt: 0})
    table: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def takes_plus(tie: np.ndarray, strict: np.ndarray) -> np.ndarray:
        if signs is None:
            return tie | strict
        return np.where(tie, signs[:, len(table)] > 0, strict)

    def rec(node: Expr) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(node, Const):
            return np.full(N, float(node.value)), np.zeros((N, dim))
        if isinstance(node, Var):
            block = env[node.block]
            if node.index > block.shape[1]:
                raise EvalError(f"point has no component {node.block}{node.index}")
            g = np.zeros((N, dim))
            if node.block in offset:
                g[:, offset[node.block] + node.index - 1] = 1.0
            return block[:, node.index - 1].astype(float), g
        if isinstance(node, Neg):
            v, g = rec(node.a)
            return -v, -g
        if isinstance(node, Abs):
            v, g = rec(node.a)
            tol = ACTIVE_TOL * np.maximum(1.0, np.abs(v))
            tie = ~((v > tol) | (v < -tol))
            take = takes_plus(tie, v > tol)
            table.append((tie, tie & _differ(g, -g) if tie.any() else tie, g))
            return np.abs(v), np.where(take[:, None], g, -g)
        if isinstance(node, (Add, Sub)):
            (va, ga), (vb, gb) = rec(node.a), rec(node.b)
            if isinstance(node, Add):
                return va + vb, ga + gb
            return va - vb, ga - gb
        if isinstance(node, Mul):
            (va, ga), (vb, gb) = rec(node.a), rec(node.b)
            return va * vb, vb[:, None] * ga + va[:, None] * gb
        if isinstance(node, Div):
            (va, ga), (vb, gb) = rec(node.a), rec(node.b)
            if np.any(np.abs(vb) < EPS_DIV):
                raise EvalError("division by near-zero value")
            return va / vb, (ga * vb[:, None] - va[:, None] * gb) / _pow_rows(vb, 2)[:, None]
        if isinstance(node, (Min2, Max2)):
            (va, ga), (vb, gb) = rec(node.a), rec(node.b)
            lo = isinstance(node, Min2)
            # Python's min/max keep operand a unless b is strictly better
            val = np.where((vb < va) if lo else (vb > va), vb, va)
            tie = np.abs(va - vb) <= ACTIVE_TOL * np.maximum(1.0, np.maximum(np.abs(va), np.abs(vb)))
            take_a = takes_plus(tie, (va < vb) if lo else (va > vb))
            table.append((tie, tie & _differ(ga, gb) if tie.any() else tie, gb - ga if lo else ga - gb))
            return val, np.where(take_a[:, None], ga, gb)
        if isinstance(node, Pow):
            va, ga = rec(node.base)
            k = node.power
            if k == 0:
                return np.ones(N), np.zeros((N, dim))
            if k == 1:
                return va, ga
            return _pow_rows(va, k), (k * _pow_rows(va, k - 1))[:, None] * ga
        raise TypeError(f"unknown node {node!r}")  # pragma: no cover

    values, grads = rec(e)
    return values, grads, table


def grad_rows(e: Expr, XI: np.ndarray, X: np.ndarray, Z: np.ndarray,
              wrt: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``switch_rows`` at the default signs: the values (N,), the gradients
    (N, dim) w.r.t. the block ``wrt`` and a mask (N,) of the rows where some
    tied switch splits (a kink of ``abs(xi1)`` is no kink in x).  An
    unmasked row's gradient is ``grad_hull``'s only generator bit for bit; a
    masked row's is the first, all-``+``, row of ``sign_rows``."""
    values, grads, table = switch_rows(e, XI, X, Z, wrt)
    active = np.zeros(len(values), dtype=bool)
    for _, split, _ in table:
        active |= split
    return values, grads, active


def sign_rows(comps, point, wrt: str) -> tuple[np.ndarray, list[np.ndarray]]:
    """The Jacobians of the expressions ``comps`` at one point over the sign
    vectors of the switches tied there, all components sharing one table.

    ``point`` is a triple (xi, x, z) of float sequences.  Returns J (R, m,
    dim) and, for each of the R sign vectors, the signed gradients (k, dim)
    of its split switches: a direction d realizes the vector when every one
    has a positive slope along d.  The vectors run ``+`` first with the
    first switch slowest; where no tied switch splits at the default signs
    no sign can change a gradient (by induction from the innermost tied
    switch), and R = 1.  More than ``MAX_TIED_SWITCHES`` tied switches
    raise EvalError.
    """
    XI, X, Z = (np.asarray(b, dtype=float).reshape(1, -1) for b in point)
    passes = [switch_rows(c, XI, X, Z, wrt) for c in comps]
    J = np.stack([g for _, g, _ in passes], axis=1)
    if not any(split[0] for _, _, table in passes for _, split, _ in table):
        return J, [np.zeros((0, J.shape[2]))]
    tied = [[k for k, (tie, _, _) in enumerate(table) if tie[0]] for _, _, table in passes]
    count = sum(map(len, tied))
    if count > MAX_TIED_SWITCHES:
        raise EvalError(f"{count} switches tied at one point (at most {MAX_TIED_SWITCHES})")
    sigma = np.array(list(itertools.product((1.0, -1.0), repeat=count)))
    rows = [np.repeat(B, len(sigma), axis=0) for B in (XI, X, Z)]
    grads, split, signed, start = [], [], [], 0
    for comp, (_, _, table), idx in zip(comps, passes, tied):
        signs = np.ones((len(sigma), len(table)))
        signs[:, idx] = sigma[:, start:start + len(idx)]
        start += len(idx)
        _, G, table = switch_rows(comp, *rows, wrt, signs)
        grads.append(G)
        split += [s for _, s, _ in table]
        signed += [signs[:, k, None] * g for k, (_, _, g) in enumerate(table)]
    W = np.stack(signed, axis=1)
    return np.stack(grads, axis=1), [w[s] for w, s in zip(W, np.stack(split, axis=1))]


def _realized(W: np.ndarray) -> bool:
    """Gordan's alternative: some d has w·d > 0 for every row w of W iff 0 is
    not in conv(W), and then the min-norm point q of conv(W) is such a d.
    A lone switch always qualifies."""
    if len(W) <= 1:
        return True
    q, _, _ = geo.wolfe_min_norm(W)
    return float(np.min(W @ q)) > 1e-12 * float(np.linalg.norm(q)) * max(1.0, float(np.max(np.abs(W))))


def _branch_jacobians(comps, point, wrt: str) -> list[np.ndarray]:
    """``sign_rows``' Jacobians of the realizable sign vectors, less those
    within 1e-12 relative of an earlier one."""
    out: list[np.ndarray] = []
    for J, W in zip(*sign_rows(comps, point, wrt)):
        scale = 1e-12 * max(1.0, float(np.max(np.abs(J), initial=0.0)))
        if not any(np.max(np.abs(J - H), initial=0.0) <= scale for H in out) and _realized(W):
            out.append(J)
    return out


def grad_hull(e: Expr, point, wrt: str) -> GradHull:
    """Branch gradients of ``e`` at ``point`` w.r.t. a variable block: the
    gradients of the sign vectors of the switches tied there that some
    direction realizes (``sign_rows``, Gordan's test by one Wolfe call).

    ``point`` is a triple (xi, x, z) of float sequences; ``wrt`` is one of
    'xi', 'x', 'z' or 'xix' (the stacked (xi, x) block).  Exact where the
    switches' arguments are affine near the point; elsewhere realizability
    is judged to first order only.
    """
    return GradHull(tuple(J[0] for J in _branch_jacobians((e,), point, wrt)))


# ---------------------------------------------------------------------------
# tree utilities
# ---------------------------------------------------------------------------

def _children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, (Const, Var)):
        return ()
    if isinstance(e, (Neg, Abs)):
        return (e.a,)
    if isinstance(e, Pow):
        return (e.base,)
    return (e.a, e.b)


def vars_of(e: Expr) -> frozenset[tuple[str, int]]:
    if isinstance(e, Var):
        return frozenset({(e.block, e.index)})
    out: set[tuple[str, int]] = set()
    for c in _children(e):
        out |= vars_of(c)
    return frozenset(out)


def substitute(e: Expr, block: str, values) -> Expr:
    """``e`` with each variable of ``block`` replaced: ``block``k by
    ``values[k - 1]``."""
    if isinstance(e, Var):
        return values[e.index - 1] if e.block == block else e
    if isinstance(e, Const):
        return e
    if isinstance(e, Pow):
        return Pow(substitute(e.base, block, values), e.power)
    return type(e)(*(substitute(c, block, values) for c in _children(e)))


def is_affine_in(e: Expr, block: str) -> bool:
    """Structural (conservative) test: is ``e`` affine in the block's vars?"""
    return _affine(e, (block,), False)


def is_piecewise_affine(e: Expr) -> bool:
    """Structural (conservative) test: is ``e`` piecewise affine in all its
    variables, with abs, min and max as its kinks?"""
    return _affine(e, _BLOCKS, True)


def _affine(e: Expr, blocks, kinks: bool) -> bool:
    """Is ``e`` affine in the variables of ``blocks`` (piecewise, with
    ``kinks``): sums of such trees, products and quotients whose other
    factor or divisor holds none of them, and their powers 0 and 1?"""
    def uses(t: Expr) -> bool:
        return any(b in blocks for b, _ in vars_of(t))

    if not uses(e) or isinstance(e, Var):
        return True
    if (isinstance(e, Mul) and uses(e.a) and uses(e.b) or isinstance(e, Div) and uses(e.b)
            or isinstance(e, Pow) and e.power > 1 or isinstance(e, (Abs, Min2, Max2)) and not kinks):
        return False
    return all(_affine(c, blocks, kinks) for c in _children(e))


# ---------------------------------------------------------------------------
# vector functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class VectorFunc:
    """Vector of expressions sharing the dimension declaration (p, n, n_z)."""

    components: tuple
    dims: tuple

    def __post_init__(self):
        p, n, nz = self.dims
        bounds = {"xi": p, "x": n, "z": nz}
        for k, comp in enumerate(self.components):
            for block, idx in vars_of(comp):
                if idx > bounds[block]:
                    raise ValueError(
                        f"component {k}: variable {block}{idx} exceeds dims {self.dims}"
                    )

    @property
    def m(self) -> int:
        return len(self.components)

    def eval(self, xi, x, z) -> np.ndarray:
        vals = [eval_expr(c, xi, x, z) for c in self.components]
        return np.stack(np.broadcast_arrays(*[np.asarray(v, dtype=float) for v in vals]))

    def jac_branches(self, point, wrt: str) -> list[np.ndarray]:
        """All branch Jacobians (rows = components) at ``point``: one sign
        enumeration over the switches of every component (``grad_hull``)."""
        return _branch_jacobians(self.components, point, wrt)

    @cached_property
    def affine_in_z(self) -> bool:
        return all(is_affine_in(c, "z") for c in self.components)
