"""Piecewise-smooth expressions over the variable blocks xi, x and z.

The language is deliberately small: +, -, *, /, integer powers, abs and
binary min/max.  Trees are immutable; evaluation broadcasts over numpy
arrays so grid sweeps stay vectorized.  At kink points (abs arguments or
min/max ties) ``grad_hull`` returns the gradients of every active smooth
branch instead of a single gradient.

Grammar::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ['^' INT]
    atom   := NUMBER | IDENT | '(' expr ')' | '-' atom
            | 'abs(' expr ')' | 'min(' expr ',' expr ')' | 'max(' expr ',' expr ')'
    IDENT  := ('xi'|'x'|'z') INT
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
        if kind == "op" and val == "-":
            return Neg(self._atom())
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
        # the grammar treats '-' atom as an atom itself
        return _PREC_ATOM
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
        s = "-" + _fmt(e.a, _PREC_ATOM)
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
# branch-wise gradients
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GradHull:
    """Gradients of the smooth branches active at a point.

    At a point where every piecewise node is strictly on one branch the
    tuple holds exactly the classical gradient.
    """

    generators: tuple

    @property
    def single(self) -> bool:
        return len(self.generators) == 1

    def as_matrix(self) -> np.ndarray:
        return np.asarray(self.generators, dtype=float)


def _dedup(grads: list[np.ndarray]) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for g in grads:
        if not any(np.max(np.abs(g - h)) <= 1e-12 * max(1.0, np.max(np.abs(g))) for h in out):
            out.append(g)
    return out


def grad_hull(e: Expr, point, wrt: str) -> GradHull:
    """Branch gradients of ``e`` at ``point`` w.r.t. a variable block.

    ``point`` is a triple (xi, x, z) of float sequences; ``wrt`` is one of
    'xi', 'x', 'z' or 'xix' (the stacked (xi, x) block).
    """
    xi, x, z = (np.asarray(b, dtype=float) for b in point)
    p, n = len(xi), len(x)
    if wrt == "xi":
        dim = p
    elif wrt == "x":
        dim = n
    elif wrt == "z":
        dim = len(z)
    elif wrt == "xix":
        dim = p + n
    else:
        raise ValueError(f"unknown block selector {wrt!r}")

    def seed(block: str, index: int) -> np.ndarray:
        g = np.zeros(dim)
        if wrt == "xix":
            if block == "xi":
                g[index - 1] = 1.0
            elif block == "x":
                g[p + index - 1] = 1.0
        elif block == wrt:
            g[index - 1] = 1.0
        return g

    env = {"xi": xi, "x": x, "z": z}

    def rec(node: Expr) -> tuple[float, list[np.ndarray]]:
        if isinstance(node, Const):
            return float(node.value), [np.zeros(dim)]
        if isinstance(node, Var):
            block = env[node.block]
            if node.index > len(block):
                raise EvalError(f"point has no component {node.block}{node.index}")
            return float(block[node.index - 1]), [seed(node.block, node.index)]
        if isinstance(node, Neg):
            v, gs = rec(node.a)
            return -v, _dedup([-g for g in gs])
        if isinstance(node, Abs):
            v, gs = rec(node.a)
            tol = ACTIVE_TOL * max(1.0, abs(v))
            if v > tol:
                return v, gs
            if v < -tol:
                return -v, _dedup([-g for g in gs])
            return abs(v), _dedup([s * g for g in gs for s in (1.0, -1.0)])
        if isinstance(node, (Add, Sub)):
            va, ga = rec(node.a)
            vb, gb = rec(node.b)
            s = 1.0 if isinstance(node, Add) else -1.0
            return va + s * vb, _dedup([a + s * b for a in ga for b in gb])
        if isinstance(node, Mul):
            va, ga = rec(node.a)
            vb, gb = rec(node.b)
            return va * vb, _dedup([vb * a + va * b for a in ga for b in gb])
        if isinstance(node, Div):
            va, ga = rec(node.a)
            vb, gb = rec(node.b)
            if abs(vb) < EPS_DIV:
                raise EvalError("division by near-zero value")
            return va / vb, _dedup([(a * vb - va * b) / vb**2 for a in ga for b in gb])
        if isinstance(node, (Min2, Max2)):
            va, ga = rec(node.a)
            vb, gb = rec(node.b)
            lo = isinstance(node, Min2)
            val = min(va, vb) if lo else max(va, vb)
            tol = ACTIVE_TOL * max(1.0, abs(va), abs(vb))
            if abs(va - vb) <= tol:
                return val, _dedup(ga + gb)
            take_a = (va < vb) if lo else (va > vb)
            return val, ga if take_a else gb
        if isinstance(node, Pow):
            va, ga = rec(node.base)
            k = node.power
            if k == 0:
                return 1.0, [np.zeros(dim)]
            if k == 1:
                return va, ga
            return va**k, _dedup([k * va ** (k - 1) * g for g in ga])
        raise TypeError(f"unknown node {node!r}")  # pragma: no cover

    _, grads = rec(e)
    return GradHull(tuple(grads))


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


def depth(e: Expr) -> int:
    kids = _children(e)
    return 1 + (max(depth(c) for c in kids) if kids else 0)


def uses_block(e: Expr, block: str) -> bool:
    return any(b == block for b, _ in vars_of(e))


def is_affine_in(e: Expr, block: str) -> bool:
    """Structural (conservative) test: is ``e`` affine in the block's vars?"""
    if not uses_block(e, block):
        return True
    if isinstance(e, Var):
        return True
    if isinstance(e, Neg):
        return is_affine_in(e.a, block)
    if isinstance(e, (Add, Sub)):
        return is_affine_in(e.a, block) and is_affine_in(e.b, block)
    if isinstance(e, Mul):
        a_free = not uses_block(e.a, block)
        b_free = not uses_block(e.b, block)
        return (a_free and is_affine_in(e.b, block)) or (b_free and is_affine_in(e.a, block))
    if isinstance(e, Div):
        return not uses_block(e.b, block) and is_affine_in(e.a, block)
    if isinstance(e, Pow):
        return e.power in (0, 1) and is_affine_in(e.base, block)
    # abs / min / max are affine only when the block does not enter them,
    # which was excluded above.
    return False


def subst(e: Expr, block: str, mapping: dict[int, Expr]) -> Expr:
    """Replace variables of ``block`` by expressions."""
    if isinstance(e, Var):
        if e.block == block and e.index in mapping:
            return mapping[e.index]
        return e
    if isinstance(e, Const):
        return e
    if isinstance(e, Neg):
        return Neg(subst(e.a, block, mapping))
    if isinstance(e, Abs):
        return Abs(subst(e.a, block, mapping))
    if isinstance(e, Pow):
        return Pow(subst(e.base, block, mapping), e.power)
    cls = type(e)
    return cls(subst(e.a, block, mapping), subst(e.b, block, mapping))


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

    def jac_hull(self, point, wrt: str) -> list[GradHull]:
        return [grad_hull(c, point, wrt) for c in self.components]

    def jac_branches(self, point, wrt: str) -> list[np.ndarray]:
        """All branch Jacobians (rows = components) at ``point``.

        Branch choices combine independently across components, which is an
        overestimate when components share a kink; flagged by callers.
        """
        hulls = self.jac_hull(point, wrt)
        count = 1
        for h in hulls:
            count *= len(h.generators)
        if count > 64:
            raise EvalError(f"too many kink branch combinations ({count})")

        def build(idx: int, rows: list) -> list:
            if idx == len(hulls):
                return [np.vstack(rows)]
            out = []
            for g in hulls[idx].generators:
                out.extend(build(idx + 1, rows + [g]))
            return out

        return build(0, [])

    @cached_property
    def affine_in_z(self) -> bool:
        return all(is_affine_in(c, "z") for c in self.components)
