"""Formula parsing, printing, free variables, and formal substitution."""

import functools
import itertools
import random

import pytest

from kbgeo import core, formulas
from kbgeo.core import TokenStream, tokenize
from kbgeo import (
    And,
    Atom,
    Equal,
    Exists,
    Forall,
    FormulaContext,
    Implies,
    MismatchError,
    Not,
    Or,
    ParseError,
    Signature,
    SignatureError,
    SubstNode,
    Substitution,
    TRUE,
    Var,
    VarSet,
    apply_subst_formula,
    canonical_varset,
    check_formula,
    enumerate_formulas,
    formula_to_text,
    free_vars,
    parse_formula,
    parse_term,
    satisfying_points,
)
from helpers import model_neg, tuple_parse_formula, tuple_parse_term, tuple_tokenize


def ctx_neg(n: int = 2) -> FormulaContext:
    sig = Signature((("neg", 1),), (("P", 1),))
    return FormulaContext(sig, canonical_varset(n))


def ctx_pq(n: int = 2) -> FormulaContext:
    sig = Signature((), (("P", 1), ("Q", 1)))
    return FormulaContext(sig, canonical_varset(n))


def test_parse_round_trip():
    ctx = ctx_neg()
    panel = [
        "true",
        "false",
        "P(x1)",
        "x1 = neg(x2)",
        "!P(x1)",
        "P(x1) & P(x2)",
        "P(x1) | !P(x2)",
        "P(x1) -> P(x2)",
        "exists x1. P(x1)",
        "forall x2. x1 = x2",
        "subst {x1 := neg(x1), x2 := x2} P(x1)",
    ]
    for text in panel:
        f = parse_formula(text, ctx)
        assert formula_to_text(f) == text
        assert parse_formula(formula_to_text(f), ctx) == f


def test_parse_precedence():
    ctx = ctx_pq()
    a, b = "P(x1)", "Q(x1)"
    f = parse_formula(f"{a} & {b} | {a}", ctx)
    assert isinstance(f, Or) and isinstance(f.left, And)
    f = parse_formula(f"{a} | {b} & {a}", ctx)
    assert isinstance(f, Or) and isinstance(f.right, And)
    f = parse_formula(f"!{a} & {b}", ctx)
    assert isinstance(f, And) and isinstance(f.left, Not)
    f = parse_formula(f"{a} -> {b} -> {a}", ctx)
    assert isinstance(f, Implies) and isinstance(f.right, Implies)
    f = parse_formula(f"exists x1. {a} & {b}", ctx)
    assert isinstance(f, Exists) and isinstance(f.body, And)
    assert parse_formula(f"({a} | {b}) & {a}", ctx) == And(
        Or(Atom("P", (Var("x1"),)), Atom("Q", (Var("x1"),))), Atom("P", (Var("x1"),)))


def test_a_shared_node_takes_each_context_s_parentheses():
    """The printer's memo holds each node's text without parentheses, so a
    node shared under connectives of every precedence, through one memo as
    a dump shares it, prints as each formula does on its own, and the text
    parses back to the formula."""
    ctx = ctx_pq()
    f = parse_formula("P(x1) | Q(x1)", ctx)
    memo = {}
    expected = [
        (f, "P(x1) | Q(x1)"),
        (Not(f), "!(P(x1) | Q(x1))"),
        (And(f, f), "(P(x1) | Q(x1)) & (P(x1) | Q(x1))"),
        (Or(f, f), "P(x1) | Q(x1) | (P(x1) | Q(x1))"),
        (Implies(f, f), "P(x1) | Q(x1) -> P(x1) | Q(x1)"),
        (Exists("x1", f), "exists x1. P(x1) | Q(x1)"),
    ]
    for whole, text in expected:
        assert formulas._render(whole, 0, memo) == formula_to_text(whole) == text
    assert len(memo) == 8  # P(x1), Q(x1), f and the five formulas over it
    held = [whole for whole, _ in expected]  # the memo's keys are the identities of live nodes
    for g in itertools.islice(enumerate_formulas(ctx, 1), 0, None, 7):
        held += (g, Not(g), And(g, f), And(f, g), Or(g, g), Implies(g, f), Implies(f, g),
                 Forall("x2", g), And(Exists("x1", g), g))
    for whole in held:
        text = formulas._render(whole, 0, memo)
        assert text == formula_to_text(whole)
        assert parse_formula(text, ctx) == whole


def test_parse_errors():
    ctx = ctx_pq()
    with pytest.raises(ParseError):
        parse_formula("R(x1)", ctx)
    with pytest.raises(ParseError):
        parse_formula("P(x1, x2)", ctx)
    with pytest.raises(ParseError):
        parse_formula("P(x9)", ctx)
    with pytest.raises(ParseError):
        parse_formula("exists x9. P(x1)", ctx)
    with pytest.raises(ParseError):
        parse_formula("P(x1) &", ctx)
    with pytest.raises(ParseError):
        parse_formula("P(x1)) ", ctx)


def _p(v: str) -> Atom:
    return Atom("P", (Var(v),))


def _q(v: str) -> Atom:
    return Atom("Q", (Var(v),))


# (function, text, expected): the tokens or the formula it gives, or the
# message and offset of the ParseError it raises.  Formulas are over ctx_pq().
PARSER_EDGES = [
    # names: letters of any script, and digits or numerals after the first
    # character; a numeral or digit in first place is refused there
    ("tokenize", "é1 = x²", [("name", "é1", 0), ("=", "=", 3), ("name", "x²", 5)]),
    ("tokenize", "αβ_١", [("name", "αβ_١", 0)]),
    ("tokenize", "x1 ²x", ("unexpected character '²'", 3)),
    ("tokenize", "١x", ("unexpected character '١'", 0)),
    ("tokenize", "x-1", ("unexpected character '-'", 1)),
    # NBSP and U+3000 separate tokens
    ("tokenize", "x1\u00a0&\u3000x2", [("name", "x1", 0), ("&", "&", 3), ("name", "x2", 5)]),
    # two-character symbols, adjacent
    ("tokenize", "->:=", [("->", "->", 0), (":=", ":=", 2)]),
    ("tokenize", ":=->", [(":=", ":=", 0), ("->", "->", 2)]),
    # binding order: -> groups to the right, & binds tighter than |, | than ->
    ("parse_formula", "P(x1) -> Q(x1) -> P(x2)", Implies(_p("x1"), Implies(_q("x1"), _p("x2")))),
    ("parse_formula", "P(x1) | Q(x1) -> P(x2)", Implies(Or(_p("x1"), _q("x1")), _p("x2"))),
    ("parse_formula", "P(x1) & Q(x1) | P(x2)", Or(And(_p("x1"), _q("x1")), _p("x2"))),
    # a binder's body reaches to the end of the text or of its parentheses
    ("parse_formula", "exists x1. P(x1) | Q(x1) -> P(x2)",
     Exists("x1", Implies(Or(_p("x1"), _q("x1")), _p("x2")))),
    ("parse_formula", "P(x2) & forall x1. P(x1) | Q(x1)",
     And(_p("x2"), Forall("x1", Or(_p("x1"), _q("x1"))))),
    ("parse_formula", "(exists x1. P(x1)) | Q(x1)", Or(Exists("x1", _p("x1")), _q("x1"))),
    # subst blocks and bare terms
    ("parse_formula", "subst {x1 := x2, x1 := x1} P(x1)",
     ("bad substitution block: duplicate variable in ('x1', 'x1')", 0)),
    ("parse_formula", "P(x1) & x1 | P(x2)", ("expected '=' after a bare term", 11)),
    ("parse_formula", "x1", ("expected '=' after a bare term", 2)),
    # early ends name the offset of the end
    ("parse_formula", "", ("unexpected end of input", 0)),
    ("parse_formula", "P(x1) &", ("unexpected end of input", 7)),
    ("parse_formula", "!", ("unexpected end of input", 1)),
    ("parse_formula", "exists x1. ", ("unexpected end of input", 11)),
    ("parse_formula", "subst {x1 := x2}", ("unexpected end of input", 16)),
    ("parse_formula", "P(x1", ("unexpected end of input", 4)),
    ("parse_term", "x1\u3000", Var("x1")),
]


@pytest.mark.parametrize("function, text, expected", PARSER_EDGES)
def test_parser_edges(function, text, expected):
    ctx = ctx_pq()
    run = {"tokenize": lambda: tokenize(text),
           "parse_term": lambda: parse_term(text, ctx.sig, ctx.varset),
           "parse_formula": lambda: parse_formula(text, ctx)}[function]
    if isinstance(expected, tuple):
        message, position = expected
        with pytest.raises(ParseError) as info:
            run()
        assert str(info.value) == f"{message} (at offset {position})"
        assert info.value.position == position
    else:
        assert run() == expected


def _neg(k: int) -> str:
    return "neg(" * k + "x1" + ")" * k


def _chain(head: str, k: int) -> str:
    return head + " & P(x1)" * k


# (text over ctx_neg(), offset of the token past the bound, or None): each
# connective, parenthesis and term application is one level, and a left
# chain puts its first operand one level deeper per connective.
NESTED = [
    ("!" * 200 + "P(x1)", None),
    ("!" * 201 + "P(x1)", 200),
    ("!" * 600 + "P(x1)", 200),
    ("!" * 1200 + "P(x1)", 200),
    ("(" * 200 + "P(x1)" + ")" * 200, None),
    ("(" * 201 + "P(x1)" + ")" * 201, 200),
    ("P(" + _neg(200) + ")", None),
    ("P(" + _neg(400) + ")", 2 + 200 * 4),
    ("!" * 100 + "P(" + _neg(100) + ")", None),
    ("!" * 101 + "P(" + _neg(100) + ")", 101 + 2 + 99 * 4),
    (_chain("!" * 150 + "P(x1)", 50), None),
    (_chain("!" * 150 + "P(x1)", 51), 155 + 50 * 8 + 1),
    (_chain("(" + "!" * 150 + "P(x1) & P(x1))", 48), None),
    (_chain("(" + "!" * 150 + "P(x1) & P(x1))", 49), 165 + 48 * 8 + 1),
    ("!P(x1) -> " * 199 + "P(x1)", None),
    ("!P(x1) -> " * 200 + "P(x1)", 199 * 10 + 7),
    ("exists x2. " * 200 + "P(x1)", None),
    ("exists x2. " * 201 + "P(x1)", 200 * 11),
    ("subst {x1 := " + _neg(198) + "} P(x1)", None),
    ("subst {x1 := " + _neg(200) + "} P(x1)", 13 + 199 * 4),
]


@pytest.mark.parametrize("text, offset", NESTED)
def test_input_nested_past_the_bound_is_refused(text, offset):
    """Up to `MAX_NESTING` levels a text parses, prints, parses back and
    evaluates (each text says P(x1): the negations and `neg`s pair up, and
    x2 is not free); past it the parser refuses the text at the first token
    too deep."""
    assert core.MAX_NESTING == 200
    ctx = ctx_neg()
    if offset is not None:
        with pytest.raises(ParseError) as info:
            parse_formula(text, ctx)
        assert str(info.value) == f"input nested deeper than 200 levels (at offset {offset})"
        return
    f = parse_formula(text, ctx)
    assert parse_formula(formula_to_text(f), ctx) == f
    check_formula(f, ctx)
    model = model_neg()
    assert (satisfying_points(f, model, ctx.varset)
            == satisfying_points(parse_formula("P(x1)", ctx), model, ctx.varset))


def test_a_term_nested_past_the_bound_is_refused():
    sig = ctx_neg(1).sig
    assert parse_term(_neg(200), sig, canonical_varset(1)) is not None
    with pytest.raises(ParseError, match=r"deeper than 200 levels \(at offset 800\)"):
        parse_term(_neg(400), sig, canonical_varset(1))


def test_equality_requires_flag():
    sig = Signature((), (("P", 1),), with_equality=False)
    ctx = FormulaContext(sig, canonical_varset(1))
    with pytest.raises(ParseError):
        parse_formula("x1 = x1", ctx)
    parse_formula("P(x1)", ctx)


def test_free_vars():
    ctx = ctx_neg()
    assert free_vars(parse_formula("P(x1) & P(x2)", ctx)) == {"x1", "x2"}
    assert free_vars(parse_formula("exists x1. P(x1)", ctx)) == set()
    assert free_vars(parse_formula("exists x1. P(x1) & P(x2)", ctx)) == {"x2"}
    assert free_vars(TRUE) == set()
    sub = parse_formula("subst {x1 := neg(x2), x2 := x2} P(x1)", ctx)
    assert free_vars(sub) == {"x2"}


def test_check_formula_scope():
    ctx = ctx_pq(1)
    f = Atom("P", (Var("x2"),))
    with pytest.raises(MismatchError):
        check_formula(f, ctx)
    with pytest.raises(SignatureError):
        check_formula(Atom("R", (Var("x1"),)), ctx)
    with pytest.raises(SignatureError):
        check_formula(Atom("P", (Var("x1"), Var("x1"))), ctx)


def test_apply_subst_pushes_through_booleans():
    ctx = ctx_neg()
    xs = ctx.varset
    s = Substitution.of(xs, xs, {
        "x1": parse_term("neg(x1)", ctx.sig, xs),
        "x2": parse_term("x2", ctx.sig, xs),
    })
    f = parse_formula("P(x1) & !P(x2)", ctx)
    assert formula_to_text(apply_subst_formula(s, f)) == "P(neg(x1)) & !P(x2)"
    assert apply_subst_formula(Substitution.identity(xs), f) == f


def test_apply_subst_wraps_quantifiers():
    ctx = ctx_neg()
    xs = ctx.varset
    s = Substitution.of(xs, xs, {
        "x1": parse_term("neg(x1)", ctx.sig, xs),
        "x2": parse_term("x2", ctx.sig, xs),
    })
    f = parse_formula("exists x1. P(x1) & P(x2)", ctx)
    g = apply_subst_formula(s, f)
    assert isinstance(g, SubstNode)
    assert g.body == f and g.subst == s


def test_apply_subst_composes_on_nested_nodes():
    ctx = ctx_neg()
    xs = ctx.varset
    s = Substitution.of(xs, xs, {
        "x1": parse_term("neg(x1)", ctx.sig, xs),
        "x2": parse_term("x2", ctx.sig, xs),
    })
    f = parse_formula("exists x1. P(x2)", ctx)
    once = apply_subst_formula(s, f)
    twice = apply_subst_formula(s, once)
    assert isinstance(twice, SubstNode)
    assert twice.body == f
    assert twice.subst.image_of("x1") == parse_term("neg(neg(x1))", ctx.sig, xs)


def test_apply_subst_rejects_missing_variable():
    ctx = ctx_neg(2)
    narrow = Substitution.of(canonical_varset(1), canonical_varset(1),
                             {"x1": Var("x1")})
    with pytest.raises(MismatchError):
        apply_subst_formula(narrow, parse_formula("P(x2)", ctx))
    wide = Substitution.identity(canonical_varset(2))
    assert apply_subst_formula(wide, parse_formula("P(x1)", ctx_neg(1))) == \
        parse_formula("P(x1)", ctx_neg(1))


def test_enumerate_formulas_layers():
    ctx = ctx_pq(1)
    flat = list(itertools.islice(enumerate_formulas(ctx, 3), 200))
    texts = [formula_to_text(f) for f in flat]
    assert texts[:5] == ["true", "false", "P(x1)", "Q(x1)", "x1 = x1"]
    assert "!P(x1)" in texts
    assert "exists x1. P(x1)" in texts
    assert len(set(texts)) == len(texts)
    for f in flat:
        check_formula(f, ctx)


def test_enumerate_formulas_depth_zero_is_atomic():
    ctx = ctx_pq(1)
    atomic = list(enumerate_formulas(ctx, 0))
    assert [formula_to_text(f) for f in atomic] == ["true", "false", "P(x1)", "Q(x1)", "x1 = x1"]


# Characters inserted at every offset of a corpus text: a numeral and a
# digit that \\w reads but no name starts with, a combining mark, the halves
# of the two-character symbols, two spaces beyond ASCII, and the term
# parser's punctuation.
INSERTED = ("\u00b2", "\u0661", "\u0301", "-", ":", ">", "\u00a0", "\u3000", "(", ")", ",")
SUBST_BLOCKS = ("subst {x1 := neg(x2), x2 := x1} P(x1) & exists x2. P(x2)",
                "P(x2) -> subst {x1 := x2} !(P(x1) | x1 = neg(x1))")


def edited_corpus(ctx: FormulaContext, rng: random.Random, extra: tuple = ()) -> dict:
    """(text, ctx) keys: the printed texts of the first 24 formulas of
    `enumerate_formulas` over `ctx` and of a sample drawn by `rng` of 24
    more among its first 400, then `extra`; each with every prefix and every
    insertion of one INSERTED character."""
    stream = [formula_to_text(f) for f in itertools.islice(enumerate_formulas(ctx, 1), 400)]
    corpus = {}
    for text in stream[:24] + rng.sample(stream[24:], 24) + list(extra):
        for k in range(len(text) + 1):
            corpus[text[:k], ctx] = None
            for char in INSERTED:
                corpus[text[:k] + char + text[k:], ctx] = None
    return corpus


@functools.cache
def parser_corpus() -> tuple:
    """(text, context) pairs: the edited corpora over ctx_pq() and ctx_neg(),
    with SUBST_BLOCKS over ctx_neg(), from one seeded sampler.  Then the
    NESTED texts, whole."""
    rng = random.Random(47)
    corpus = edited_corpus(ctx_pq(), rng)
    corpus.update(edited_corpus(ctx_neg(), rng, SUBST_BLOCKS))
    for text, _ in NESTED:
        corpus[text, ctx_neg()] = None
    return tuple(corpus)


def _outcome(parse, *args):
    """What `parse(*args)` gives: its result, or its ParseError's message and
    offset."""
    try:
        return parse(*args)
    except ParseError as exc:
        return str(exc), exc.position


def test_the_parsers_agree_with_the_tuple_parser():
    """Over the corpus, each text parses as a formula and as a term to the
    tuple parser's tree, or fails with its message at its offset."""
    for text, ctx in parser_corpus():
        assert _outcome(parse_formula, text, ctx) == _outcome(tuple_parse_formula, text, ctx), text
        assert _outcome(parse_term, text, ctx.sig, ctx.varset) == \
            _outcome(tuple_parse_term, text, ctx.sig, ctx.varset), text


def test_a_variable_named_like_a_relation_reads_back():
    """An atom always opens its arguments, so a relation name that is also a
    variable and is not followed by `(` starts a term.  Every printed
    formula reads back to itself.  Over the edited corpus the parser agrees
    with the tuple parser, which reads every relation name as an atom,
    except where that parser refuses the text for a missing `(` right after
    such a name: another token or the end of the text."""
    ctx = FormulaContext(Signature((), (("P", 1),)), VarSet(("P", "x1")))
    p, x1 = Var("P"), Var("x1")
    assert parse_formula("P = x1", ctx) == Equal(p, x1)
    assert parse_formula("P(P) & !P = x1", ctx) == And(Atom("P", (p,)), Not(Equal(p, x1)))
    assert parse_formula("exists P. P = P", ctx) == Exists("P", Equal(p, p))
    assert _outcome(parse_formula, "P", ctx) == ("expected '=' after a bare term (at offset 1)", 1)
    for f in itertools.islice(enumerate_formulas(ctx, 1), 400):
        assert parse_formula(formula_to_text(f), ctx) == f, formula_to_text(f)
    differ = 0
    for text, _ in edited_corpus(ctx, random.Random(48)):
        expected = _outcome(tuple_parse_formula, text, ctx)
        if isinstance(expected, tuple) and text[:expected[1]].rstrip().endswith("P") \
                and expected[0].startswith(("expected '(', found ", "unexpected end of input")):
            differ += 1
            continue
        assert _outcome(parse_formula, text, ctx) == expected, text
    assert differ > 0


def test_one_token_grammar():
    """Over the corpus, `tokenize` gives the tuple scanner's tokens, and a
    `TokenStream` its values and their offsets, with the sentinel at the
    text's length; where `tokenize` refuses a text, the stream refuses it
    with the same message at the same offset.  Each offset costs a scan up
    to its token, so past 64 tokens a seeded sample of 64 is read."""
    rng = random.Random(47)
    for text, _ in parser_corpus():
        tokens = _outcome(tokenize, text)
        assert tokens == _outcome(tuple_tokenize, text), text
        if isinstance(tokens, tuple):
            assert _outcome(TokenStream, text) == tokens, text
            continue
        ts = TokenStream(text)
        assert ts.values == [value for _, value, _ in tokens] + [core.END], text
        offsets = [offset for _, _, offset in tokens] + [len(text)]
        read = range(len(offsets))
        if len(read) > 64:
            read = rng.sample(read, 64)
        assert [ts.offset(i) for i in read] == [offsets[i] for i in read], text
