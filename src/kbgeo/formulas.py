"""Formula ASTs over a signature: parser, printer, free variables, substitution action.

Formulas are syntax; no identification up to logical equivalence happens here.
Quantifiers bind variables of the ambient variable set (cylindric style), so
`exists x. f` is only well formed when x already belongs to the context.
A substitution node keeps an explicit substitution in front of a formula over
the substitution's source variables; semantically it is a preimage operator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import (
    END,
    MAX_NESTING,
    MismatchError,
    Signature,
    SignatureError,
    Substitution,
    Term,
    TokenStream,
    VarSet,
    check_term,
    compose_subst,
    enumerate_terms,
    parse_term_args,
    parse_term_stream,
    term_to_text,
    term_vars,
    too_deep,
)


class Formula:
    """Base class for formula nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return formula_to_text(self)


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    rel: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Equal(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class SubstNode(Formula):
    subst: Substitution
    body: Formula


TRUE = TrueF()
FALSE = FalseF()


@dataclass(frozen=True)
class FormulaContext:
    """The signature and ambient variable set a formula lives over.  A
    variable may not have the name of a constant, since a printed formula
    could not tell the two apart."""

    sig: Signature
    varset: VarSet

    def __post_init__(self):
        if not self.sig.constants.isdisjoint(self.varset.names):
            name = next(n for n in self.varset.names if n in self.sig.constants)
            raise SignatureError(f"variable {name} has the name of the constant {name}")


# Printer precedence: higher binds tighter.  Binders get the lowest level so
# their bodies extend maximally to the right without parentheses.
_PREC_BINDER = 10
_PREC_IMPLIES = 30
_PREC_OR = 50
_PREC_AND = 70
_PREC_NOT = 90
_PREC_ATOM = 100


_PRECS = {TrueF: _PREC_ATOM, FalseF: _PREC_ATOM, Atom: _PREC_ATOM, Equal: _PREC_ATOM,
          Not: _PREC_NOT, And: _PREC_AND, Or: _PREC_OR, Implies: _PREC_IMPLIES}


def formula_to_text(f: Formula) -> str:
    return _render(f, 0, {})


def _render(f: Formula, min_prec: int, memo: dict) -> str:
    """The text of `f` where the context binds at `min_prec`.  `memo` maps a
    node's identity to its text without parentheses, and its owner keeps the
    keyed nodes alive, so a subformula shared within or between calls is
    rendered once and each context only adds its parentheses.  Dispatch is on
    the exact node class, the classes most frequent in witnesses first."""
    text = memo.get(id(f))
    kind = type(f)
    if text is None:
        if kind is And:
            text = _render(f.left, _PREC_AND, memo) + " & " + _render(f.right, _PREC_AND + 1, memo)
        elif kind is Or:
            text = _render(f.left, _PREC_OR, memo) + " | " + _render(f.right, _PREC_OR + 1, memo)
        elif kind is Not:
            text = "!" + _render(f.body, _PREC_NOT, memo)
        elif kind is Atom:
            text = f.rel + "(" + ",".join(map(term_to_text, f.args)) + ")"
        elif kind is Exists:
            text = f"exists {f.var}. " + _render(f.body, 0, memo)
        elif kind is Equal:
            text = f"{term_to_text(f.left)} = {term_to_text(f.right)}"
        elif kind is TrueF:
            text = "true"
        elif kind is FalseF:
            text = "false"
        elif kind is Implies:
            text = (_render(f.left, _PREC_IMPLIES + 1, memo) + " -> "
                    + _render(f.right, _PREC_IMPLIES, memo))
        elif kind is Forall:
            text = f"forall {f.var}. " + _render(f.body, 0, memo)
        elif kind is SubstNode:
            inner = ", ".join(f"{n} := {term_to_text(t)}"
                              for n, t in zip(f.subst.source.names, f.subst.images))
            text = "subst {" + inner + "} " + _render(f.body, 0, memo)
        else:
            raise SignatureError(f"not a formula: {f!r}")
        memo[id(f)] = text
    return "(" + text + ")" if _PRECS.get(kind, _PREC_BINDER) < min_prec else text


def parse_formula(text: str, ctx: FormulaContext) -> Formula:
    """Parse a formula.  The connectives bind as the printer's `_PRECS` says:
    ! tighter than &, & than |, | than ->; & and | group to the left and ->
    to the right.  Binders (quantifiers and subst blocks) scope maximally to
    the right.  A name that is both a relation and a variable starts an
    atom before `(` and a term elsewhere.  A text nested deeper than
    `core.MAX_NESTING` levels, each connective, parenthesis and term
    application one level, is refused with a `ParseError` at the token that
    passes the bound."""
    ts = TokenStream(text)
    f, _ = _parse_binary(ts, ctx, 0, 0)
    ts.require_done()
    return f


_INFIX = {symbol: (node, _PRECS[node])
          for symbol, node in (("&", And), ("|", Or), ("->", Implies))}
# The tokens that open a nesting level in prefix position.
_OPENERS = frozenset({"!", "(", "exists", "forall", "subst"})


def _parse_binary(ts: TokenStream, ctx: FormulaContext, min_prec: int,
                  depth: int) -> tuple[Formula, int]:
    """A prefix formula, then each infix connective that binds at `min_prec`
    or tighter, with its right operand read at the next strength up; at the
    same strength for ->, which groups to the right.

    The formula sits at nesting level `depth`, and is returned with its
    height, the levels below `depth` that it reaches.  Each connective puts
    the formula read so far one level under it, and its right operand one
    level down."""
    left, height = _parse_unary(ts, ctx, depth)
    values = ts.values
    while True:
        at = ts.pos
        infix = _INFIX.get(values[at])
        if infix is None or infix[1] < min_prec:
            return left, height
        if depth + height >= MAX_NESTING:
            raise too_deep(ts.offset(at))
        ts.pos = at + 1
        node, prec = infix
        right, right_height = _parse_binary(ts, ctx, prec if node is Implies else prec + 1,
                                            depth + 1)
        left = node(left, right)
        height = 1 + (height if height > right_height else right_height)


def _parse_unary(ts: TokenStream, ctx: FormulaContext, depth: int) -> tuple[Formula, int]:
    """A prefix formula at nesting level `depth`, with its height."""
    at = ts.pos
    value = ts.values[at]
    if value == END:
        raise ts.error("unexpected end of input", at)
    if depth >= MAX_NESTING and value in _OPENERS:
        raise too_deep(ts.offset(at))
    if value == "!":
        ts.pos = at + 1
        body, height = _parse_unary(ts, ctx, depth + 1)
        return Not(body), height + 1
    if value == "(":
        ts.pos = at + 1
        f, height = _parse_binary(ts, ctx, 0, depth + 1)
        ts.expect(")")
        return f, height + 1
    if value == "exists" or value == "forall":
        ts.pos = at + 1
        var = ts.name()
        if var not in ctx.varset:
            raise ts.error(f"quantified variable {var} not in {ctx.varset}", ts.pos - 1)
        ts.expect(".")
        body, height = _parse_binary(ts, ctx, 0, depth + 1)
        return (Exists if value == "exists" else Forall)(var, body), height + 1
    if value == "subst":
        ts.pos = at + 1
        ts.expect("{")
        names, parsed = [], []
        while True:
            names.append(ts.name())
            ts.expect(":=")
            parsed.append(parse_term_stream(ts, ctx.sig, ctx.varset, depth + 1))
            if ts.values[ts.pos] != ",":
                break
            ts.pos += 1
        ts.expect("}")
        images, heights = zip(*parsed)
        try:
            inner = FormulaContext(ctx.sig, VarSet(names))
        except SignatureError as exc:
            raise ts.error(f"bad substitution block: {exc}", at) from None
        subst = Substitution(inner.varset, ctx.varset, images)
        body, height = _parse_binary(ts, inner, 0, depth + 1)
        return SubstNode(subst, body), 1 + max(height, *heights)
    if value == "true":
        ts.pos = at + 1
        return TRUE, 0
    if value == "false":
        ts.pos = at + 1
        return FALSE, 0
    # an atom or an equality, whose terms the term parser reads from `depth`;
    # an atom always opens its arguments, so a relation name that is also a
    # variable and is not followed by `(` starts a term
    arity = ctx.sig.rel_arity(value)
    if arity is not None and (ts.values[at + 1] == "(" or value not in ctx.varset):
        ts.pos = at + 1
        args, height = parse_term_args(ts, ctx.sig, ctx.varset, depth)
        if len(args) != arity:
            raise ts.error(f"relation {value} expects {arity} arguments, got {len(args)}", at)
        return Atom(value, args), height
    # anything else must start an equality between terms
    left, height = parse_term_stream(ts, ctx.sig, ctx.varset, depth)
    eq = ts.pos
    if ts.values[eq] != "=":
        raise ts.error("expected '=' after a bare term", eq)
    if not ctx.sig.with_equality:
        raise ts.error("equality is not enabled in this signature", eq)
    ts.pos = eq + 1
    right, right_height = parse_term_stream(ts, ctx.sig, ctx.varset, depth)
    return Equal(left, right), max(height, right_height)


def free_vars(f: Formula) -> frozenset[str]:
    """Free variable names.  For a substitution node these are the variables
    used by the images of the body's free variables."""
    if isinstance(f, (TrueF, FalseF)):
        return frozenset()
    if isinstance(f, Atom):
        out: frozenset[str] = frozenset()
        for t in f.args:
            out |= term_vars(t)
        return out
    if isinstance(f, Equal):
        return term_vars(f.left) | term_vars(f.right)
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or, Implies)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Exists, Forall)):
        return free_vars(f.body) - {f.var}
    if isinstance(f, SubstNode):
        out = frozenset()
        for name in free_vars(f.body):
            out |= term_vars(f.subst.image_of(name))
        return out
    raise SignatureError(f"not a formula: {f!r}")


def check_formula(f: Formula, ctx: FormulaContext, _checked: Optional[set] = None) -> None:
    """Validate relation symbols, arities, terms, and binder scoping."""
    if _checked is None:
        _checked = set()
    if id(f) not in _checked:
        _check_node(f, ctx, _checked)
        _checked.add(id(f))


def _check_node(f: Formula, ctx: FormulaContext, checked: set) -> None:
    """check_formula on one node.  `checked` holds the identities of the nodes
    already validated in ctx, which its owner keeps alive: they are skipped,
    and a node joins once it passes.  A substitution body lives over another
    context, so it starts a set of its own.  Dispatch is on the exact node
    class, as in `_render`."""
    kind = type(f)
    if kind is And or kind is Or or kind is Implies:
        check_formula(f.left, ctx, checked)
        check_formula(f.right, ctx, checked)
    elif kind is Not:
        check_formula(f.body, ctx, checked)
    elif kind is Atom:
        arity = ctx.sig.rel_arity(f.rel)
        if arity is None:
            raise SignatureError(f"unknown relation {f.rel}")
        if arity != len(f.args):
            raise SignatureError(f"relation {f.rel} expects {arity} arguments, got {len(f.args)}")
        for t in f.args:
            check_term(t, ctx.sig, ctx.varset)
    elif kind is Exists or kind is Forall:
        if f.var not in ctx.varset:
            raise MismatchError(f"quantified variable {f.var} not in {ctx.varset}")
        check_formula(f.body, ctx, checked)
    elif kind is Equal:
        if not ctx.sig.with_equality:
            raise SignatureError("equality is not enabled in this signature")
        check_term(f.left, ctx.sig, ctx.varset)
        check_term(f.right, ctx.sig, ctx.varset)
    elif kind is SubstNode:
        if f.subst.target != ctx.varset:
            raise MismatchError(
                f"substitution targets {f.subst.target}, context is over {ctx.varset}")
        for t in f.subst.images:
            check_term(t, ctx.sig, ctx.varset)
        check_formula(f.body, FormulaContext(ctx.sig, f.subst.source), set())
    elif kind is not TrueF and kind is not FalseF:
        raise SignatureError(f"not a formula: {f!r}")


def _mentions_quantifier(f: Formula) -> bool:
    # substitution nodes are treated as atomic: their bodies live over another
    # variable set and compose through the substitution instead
    if isinstance(f, (Exists, Forall)):
        return True
    if isinstance(f, Not):
        return _mentions_quantifier(f.body)
    if isinstance(f, (And, Or, Implies)):
        return _mentions_quantifier(f.left) or _mentions_quantifier(f.right)
    return False


def apply_subst_formula(subst: Substitution, f: Formula) -> Formula:
    """The action of a substitution on a formula.

    Quantifier-free formulas are rewritten structurally, with nested
    substitution nodes composed; a formula mentioning a quantifier is wrapped
    wholesale in a substitution node, which has the same preimage semantics.
    The identity substitution returns the formula unchanged.
    """
    missing = free_vars(f) - set(subst.source.names)
    if missing:
        raise MismatchError(f"formula uses variables {sorted(missing)} outside {subst.source}")
    if subst.is_identity:
        return f
    if _mentions_quantifier(f):
        return SubstNode(subst, f)
    return _push_subst(subst, f)


def _push_subst(subst: Substitution, f: Formula) -> Formula:
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, Atom):
        return Atom(f.rel, tuple(subst.apply_to_term(t) for t in f.args))
    if isinstance(f, Equal):
        return Equal(subst.apply_to_term(f.left), subst.apply_to_term(f.right))
    if isinstance(f, Not):
        return Not(_push_subst(subst, f.body))
    if isinstance(f, And):
        return And(_push_subst(subst, f.left), _push_subst(subst, f.right))
    if isinstance(f, Or):
        return Or(_push_subst(subst, f.left), _push_subst(subst, f.right))
    if isinstance(f, Implies):
        return Implies(_push_subst(subst, f.left), _push_subst(subst, f.right))
    if isinstance(f, SubstNode):
        return SubstNode(compose_subst(f.subst, subst), f.body)
    raise SignatureError(f"not a formula: {f!r}")


def atomic_formulas(sig: Signature, varset: VarSet, max_term_depth: int) -> list[Formula]:
    """The atomic formulas over terms of depth at most max_term_depth: every
    relation atom, then every equality when the signature has equality."""
    terms = enumerate_terms(sig, varset, max_term_depth)
    out: list[Formula] = [Atom(rel, combo) for rel, arity in sig.rels
                          for combo in itertools.product(terms, repeat=arity)]
    if sig.with_equality:
        out += [Equal(left, right) for left in terms for right in terms]
    return out


def enumerate_formulas(ctx: FormulaContext, max_depth: int,
                       max_term_depth: int = 1) -> Iterator[Formula]:
    """Yield formulas by connective depth: first the atomic layer, then each
    depth adds negations, binary connectives, and quantifiers.  The stream is
    deterministic; consumers bound it by slicing."""
    layer: list[Formula] = [TRUE, FALSE] + atomic_formulas(ctx.sig, ctx.varset,
                                                           max_term_depth)
    yield from layer
    everything = list(layer)
    for _ in range(max_depth):
        new_layer: list[Formula] = []
        for f in layer:
            new_layer.append(Not(f))
            for var in ctx.varset.names:
                new_layer.append(Exists(var, f))
                new_layer.append(Forall(var, f))
        for f in layer:
            for g in everything:
                new_layer.append(And(f, g))
                new_layer.append(Or(f, g))
                new_layer.append(Implies(f, g))
        yield from new_layer
        everything.extend(new_layer)
        layer = new_layer
