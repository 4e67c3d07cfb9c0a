"""The library's refusals of mismatched arguments, each with its exception
type and exact message.  No other test reaches these raises: the package's
own callers never pass such arguments."""

import pytest

import pathlib

from kbgeo import (
    Atom,
    Equal,
    Exists,
    FormulaAutomorphism,
    FormulaContext,
    Geometry,
    KnowledgeBase,
    MismatchError,
    Model,
    ModelMap,
    Not,
    OpApp,
    ParseError,
    PointSet,
    Signature,
    SignatureError,
    SubstNode,
    Substitution,
    TRUE,
    Var,
    VarSet,
    build_filter_lattice,
    canonical_varset,
    compose_cont,
    compose_desc,
    compose_subst,
    content_morphism,
    filter_preimage,
    identity_desc,
    is_admissible_cont,
    is_admissible_desc,
    least_desc_morphism,
    parse_formula,
    push_filter,
    satisfying_points,
    subst_image_points,
    subst_preimage_points,
)
from kbgeo.cli import EXIT_USAGE, run_command
from kbgeo.core import check_term
from kbgeo.semantics import pullback_indices
from helpers import model_neg, model_p


def lattice(n: int, model=None):
    """The filter lattice of m_p, or of `model`, over x1..xn."""
    return build_filter_lattice(model or model_p(), canonical_varset(n))


def identity(n: int) -> Substitution:
    return Substitution.identity(canonical_varset(n))


def full_filter(n: int, model=None):
    """The filter of the lattice over x1..xn whose dual is every point."""
    return lattice(n, model).filters[-1]


def space(n: int, model=None):
    return full_filter(n, model).points.space


def without_equality() -> Model:
    """A 2-element model with P = {0} whose signature has no equality."""
    return Model(Signature((), (("P", 1),), False), (0, 1), None, {"P": [(0,)]})


REFUSALS = {
    "least morphism with mismatched ends":
        (lambda: least_desc_morphism(lattice(1), lattice(2), identity(1)),
         MismatchError, "substitution endpoints do not match the objects"),
    "least morphism across models":
        (lambda: least_desc_morphism(lattice(1), lattice(1, model_neg()), identity(1)),
         MismatchError, "objects live over different models"),
    "compose_desc of non-composable morphisms":
        (lambda: compose_desc(identity_desc(lattice(2)), identity_desc(lattice(1))),
         MismatchError, "morphisms do not compose"),
    "compose_cont of non-composable morphisms":
        (lambda: compose_cont(content_morphism(identity_desc(lattice(2))),
                              content_morphism(identity_desc(lattice(1)))),
         MismatchError, "morphisms do not compose"),
    "is_admissible_desc across models":
        (lambda: is_admissible_desc(identity(1), full_filter(1), full_filter(1, model_neg())),
         MismatchError, "filters live over different models"),
    "is_admissible_cont across models":
        (lambda: is_admissible_cont(identity(1), lattice(1).algebra.member(0b11),
                                    lattice(1, model_neg()).algebra.member(0b11)),
         MismatchError, "sets live over different models"),
    "push_filter from another variable set":
        (lambda: push_filter(identity(2), full_filter(1), lattice(2)),
         MismatchError, "filter is not over the substitution's source"),
    "push_filter to another lattice":
        (lambda: push_filter(identity(1), full_filter(1), lattice(2)),
         MismatchError, "lattice does not match the substitution's target"),
    "filter_preimage from another variable set":
        (lambda: filter_preimage(identity(2), full_filter(1), lattice(2)),
         MismatchError, "filter is not over the substitution's target"),
    "filter_preimage to another lattice":
        (lambda: filter_preimage(identity(1), full_filter(1), lattice(2)),
         MismatchError, "lattice does not match the substitution's source"),
    "is_leq across spaces":
        (lambda: full_filter(1).is_leq(full_filter(2)),
         MismatchError, "filters live over different spaces"),
    "a geometry of another model":
        (lambda: satisfying_points(TRUE, model_p(), canonical_varset(1),
                                   geometry=Geometry(model_neg())),
         MismatchError, "geometry belongs to another model"),
    # A knowledge base refuses, as it does an object, a size outside 1..n_max
    # for every set and table it reads, though its syntax knows no n_max.
    "substitutions past n_max":
        (lambda: KnowledgeBase(model_neg(), 2, 1).substitutions(3, 3),
         MismatchError, "object size 3 outside 1..2"),
    "substitutions from size 0":
        (lambda: KnowledgeBase(model_neg(), 2, 1).substitutions(0, 1),
         MismatchError, "object size 0 outside 1..2"),
    "composite tables through a size past n_max":
        (lambda: KnowledgeBase(model_neg(), 2, 1)._composite_rows(1, 3, 1),
         MismatchError, "object size 3 outside 1..2"),
    "naturality squares past n_max, where generators would give none":
        (lambda: KnowledgeBase(model_neg(), 2, 1).naturality(1, 3),
         MismatchError, "object size 3 outside 1..2"),
    "an atom table past n_max":
        (lambda: KnowledgeBase(model_neg(), 2, 1).atom_table(3),
         MismatchError, "object size 3 outside 1..2"),
    "a mask past the space":
        (lambda: PointSet(space(1), 0b100),
         MismatchError, "mask 0x4 outside space of 2 points"),
    "a negative mask":
        (lambda: PointSet(space(1), -1),
         MismatchError, "mask -0x1 outside space of 2 points"),
    "union across spaces":
        (lambda: PointSet.full(space(1)).union(PointSet.full(space(2))),
         MismatchError, "point sets live over different spaces"),
    "pullback indices with mismatched ends":
        (lambda: pullback_indices(identity(1), space(1), space(2)),
         MismatchError, "substitution endpoints do not match the given spaces"),
    "pullback indices across models":
        (lambda: pullback_indices(identity(1), space(1), space(1, model_neg())),
         MismatchError, "spaces live over different models"),
    "preimage from another variable set":
        (lambda: subst_preimage_points(identity(1), PointSet.full(space(2))),
         MismatchError, "point set is over {x1, x2}, substitution starts at {x1}"),
    "image from another variable set":
        (lambda: subst_image_points(identity(2), PointSet.full(space(1))),
         MismatchError, "point set is over {x1}, substitution targets {x1, x2}"),
    "a row outside the space":
        (lambda: space(1).index_of((9,)),
         MismatchError, "(9,) is not a point of this space"),
    "the image of an unknown relation":
        (lambda: FormulaAutomorphism.identity(model_p().sig).rel_image("Q"),
         SignatureError, "unknown relation Q"),
    "a non-atomic formula mapped directly":
        (lambda: FormulaAutomorphism.identity(model_p().sig).map_formula(
            Not(Atom("P", (Var("x1"),))), 1),
         MismatchError, "only atomic formulas are mapped directly"),
    "an empty variable set":
        (lambda: VarSet(()), SignatureError, "variable set must be nonempty"),
    "a canonical variable set of size 0":
        (lambda: canonical_varset(0), SignatureError, "canonical variable set needs n >= 1"),
    "a substitution with too few images":
        (lambda: Substitution(canonical_varset(1), canonical_varset(1), ()),
         MismatchError, "substitution needs 1 images, got 0"),
    "a substitution image outside the target":
        (lambda: Substitution(canonical_varset(1), canonical_varset(1), (Var("x2"),)),
         MismatchError, "image x2 uses variables ['x2'] outside {x1}"),
    "compose_subst across ends":
        (lambda: compose_subst(identity(1), identity(2)),
         MismatchError, "cannot compose: first targets {x1}, second starts at {x1, x2}"),
    "the inverse of a renaming onto fewer variables":
        (lambda: Substitution(canonical_varset(2), canonical_varset(1),
                              (Var("x1"), Var("x1"))).inverted(),
         MismatchError, "substitution {x1 := x1, x2 := x1} is not an invertible renaming"),
    "a carrier map across signatures":
        (lambda: ModelMap(model_p(), model_neg(), model_neg().carrier),
         MismatchError, "models have different signatures"),
    "a quantified variable outside the context":
        (lambda: satisfying_points(Exists("x2", TRUE), model_p(), canonical_varset(1)),
         MismatchError, "quantified variable x2 not in {x1}"),
    "equality without it in the signature":
        (lambda: satisfying_points(Equal(Var("x1"), Var("x1")), without_equality(),
                                   canonical_varset(1)),
         SignatureError, "equality is not enabled in this signature"),
    "a substitution node over another variable set":
        (lambda: satisfying_points(SubstNode(identity(2), TRUE), model_p(), canonical_varset(1)),
         MismatchError, "substitution targets {x1, x2}, context is over {x1}"),
    "check_term on a non-term":
        (lambda: check_term(42, model_neg().sig, canonical_varset(1)),
         SignatureError, "not a term: 42"),
    "check_term on an unknown operation":
        (lambda: check_term(OpApp("g", (Var("x1"),)), model_neg().sig, canonical_varset(1)),
         SignatureError, "unknown operation g"),
    "check_term with the wrong arity":
        (lambda: check_term(OpApp("neg", ()), model_neg().sig, canonical_varset(1)),
         SignatureError, "operation neg expects 1 arguments, got 0"),
    # "e" and a combining acute accent make an identifier, but the accent is
    # not a word character, so the parser would stop at it
    "an operation name the parser cannot read":
        (lambda: Signature((("fe\u0301", 1),), ()),
         SignatureError, "operation name 'fe\u0301' does not scan as one name token"),
    "a relation name the parser cannot read":
        (lambda: Signature((), (("Pe\u0301", 1),)),
         SignatureError, "relation name 'Pe\u0301' does not scan as one name token"),
    "a variable name the parser cannot read":
        (lambda: VarSet(("xe\u0301",)),
         SignatureError, "variable name 'xe\u0301' does not scan as one name token"),
    # a printed formula could not tell such a variable from the constant
    "a variable named like a constant":
        (lambda: FormulaContext(Signature((("c", 0),), ()), VarSet(("x1", "c"))),
         SignatureError, "variable c has the name of the constant c"),
    "a substitution block that binds a constant's name":
        (lambda: parse_formula("subst {c := x1} c = c",
                               FormulaContext(Signature((("c", 0),), ()), canonical_varset(1))),
         ParseError, "bad substitution block: variable c has the name of the constant c "
                     "(at offset 0)"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_refusal_raises_its_error(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_the_command_line_refuses_a_variable_the_parser_cannot_read():
    """--vars naming a variable the parser cannot read is a usage error
    (exit 64)."""
    model = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "m_p.kbm"
    assert run_command(["eval", str(model), "--vars", "x1,xe\u0301", "--formula", "P(x1)"]) == \
        (EXIT_USAGE, "usage error: variable name 'xe\u0301' does not scan as one name token")
