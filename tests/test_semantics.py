"""Point spaces, formula valuations, quantifiers, and substitution actions."""

import functools
import itertools
import random
import threading

import pytest

from kbgeo import (
    And,
    Atom,
    BoundError,
    FormulaContext,
    Geometry,
    Not,
    OpApp,
    Point,
    PointSet,
    PointSpace,
    SignatureError,
    Substitution,
    SubstNode,
    TRUE,
    Var,
    build_filter_lattice,
    canonical_varset,
    enumerate_points,
    enumerate_substitutions,
    eval_term,
    filter_preimage,
    generate_definable_algebra,
    holds_at,
    holds_on_all,
    parse_formula,
    parse_term,
    points_satisfying_all,
    satisfying_points,
    subst_image_points,
    subst_preimage_points,
    term_functions,
)
from kbgeo.formulas import atomic_formulas
from kbgeo.semantics import _exists_mask, pullback_indices
from helpers import (
    all_fixtures,
    brute_composites,
    brute_formula_mask,
    brute_image,
    brute_preimage,
    brute_rows,
    brute_term_functions,
    constant_models,
    model_eq,
    model_neg,
    model_p,
    model_pq1,
    random_query,
    seeded_models,
)


def val(text: str, model, n: int) -> PointSet:
    ctx = FormulaContext(model.sig, canonical_varset(n))
    return satisfying_points(parse_formula(text, ctx), model, ctx.varset)


def rows(pset: PointSet) -> set:
    return {pset.space.value_rows[i] for i in pset.indices()}


def test_space_enumeration_is_lexicographic():
    space = enumerate_points(model_p(), canonical_varset(2))
    assert space.value_rows == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert space.size == 4
    assert space.index_of((1, 0)) == 2
    assert space.env(1) == {"x1": 0, "x2": 1}
    assert str(space.point(3)) == "(1,1)"


def test_point_set_operations():
    space = enumerate_points(model_p(), canonical_varset(1))
    a = PointSet.of_rows(space, [(0,)])
    b = PointSet.of_rows(space, [(1,)])
    assert a.union(b) == PointSet.full(space)
    assert a.intersect(b) == PointSet.empty(space)
    assert a.complement() == b
    assert a.is_subset_of(PointSet.full(space))
    assert not PointSet.full(space).is_subset_of(a)
    assert a.cardinality == 1
    assert a.contains_values((0,)) and not a.contains_values((1,))
    assert str(a) == "{(0)}"


def test_atoms_and_boolean_connectives():
    m = model_p()
    assert rows(val("P(x1)", m, 1)) == {(1,)}
    assert rows(val("!P(x1)", m, 1)) == {(0,)}
    assert rows(val("true", m, 1)) == {(0,), (1,)}
    assert rows(val("false", m, 1)) == set()
    assert rows(val("P(x1) & !P(x2)", m, 2)) == {(1, 0)}
    assert rows(val("P(x1) | P(x2)", m, 2)) == {(0, 1), (1, 0), (1, 1)}
    assert val("P(x1) -> P(x2)", m, 2) == val("!P(x1) | P(x2)", m, 2)


def test_equality_atoms():
    m = model_eq()
    assert rows(val("x1 = x2", m, 2)) == {(0, 0), (1, 1)}
    assert rows(val("!(x1 = x2)", m, 2)) == {(0, 1), (1, 0)}


def test_terms_inside_atoms():
    m = model_neg()
    assert rows(val("P(neg(x1))", m, 1)) == {(0,)}
    assert rows(val("x1 = neg(x1)", m, 1)) == set()
    assert rows(val("neg(x1) = neg(x1)", m, 1)) == {(0,), (1,)}


def test_quantifiers_are_cylindric():
    m = model_p()
    assert rows(val("exists x2. P(x2)", m, 2)) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert rows(val("exists x2. P(x1) & P(x2)", m, 2)) == {(1, 0), (1, 1)}
    assert rows(val("forall x2. P(x2)", m, 2)) == set()
    assert rows(val("forall x2. P(x2) -> P(x1)", m, 2)) == {(1, 0), (1, 1)}
    assert val("exists x1. P(x1)", m, 1).mask == val("true", m, 1).mask


def test_forall_is_negated_exists():
    m = model_pq1()
    for text in ("P(x1)", "P(x1) & Q(x2)", "P(x2) -> Q(x1)"):
        left = val(f"forall x1. {text}", m, 2)
        right = val(f"!(exists x1. !({text}))", m, 2)
        assert left == right


def test_subst_node_preimage_semantics():
    m = model_neg()
    ctx = FormulaContext(m.sig, canonical_varset(1))
    f = parse_formula("subst {x1 := neg(x1)} P(x1)", ctx)
    assert rows(satisfying_points(f, m, ctx.varset)) == {(0,)}
    g = parse_formula("subst {x1 := neg(x1)} (exists x1. P(x1))", ctx)
    assert rows(satisfying_points(g, m, ctx.varset)) == {(0,), (1,)}


def test_holds_at_and_on_all():
    m = model_p()
    space = enumerate_points(m, canonical_varset(1))
    ctx = FormulaContext(m.sig, space.varset)
    f = parse_formula("P(x1)", ctx)
    assert holds_at(space.point(1), f, m)
    assert not holds_at(space.point(0), f, m)
    assert holds_on_all(PointSet.of_rows(space, [(1,)]), f)
    assert not holds_on_all(PointSet.full(space), f)


def test_points_satisfying_all():
    m = model_pq1()
    ctx = FormulaContext(m.sig, canonical_varset(1))
    fs = [parse_formula("P(x1)", ctx), parse_formula("!Q(x1)", ctx)]
    assert rows(points_satisfying_all(fs, m, ctx.varset)) == {(1,)}
    assert points_satisfying_all([], m, ctx.varset) == PointSet.full(
        enumerate_points(m, canonical_varset(1)))


def test_preimage_matches_pointwise_composition():
    m = model_neg()
    one, two = canonical_varset(1), canonical_varset(2)
    s = Substitution.of(one, two, {"x1": parse_term("neg(x2)", m.sig, two)})
    space1 = enumerate_points(m, one)
    space2 = enumerate_points(m, two)
    for subset in itertools.chain.from_iterable(
            itertools.combinations(space1.value_rows, r) for r in range(3)):
        pset = PointSet.of_rows(space1, subset)
        pre = subst_preimage_points(s, pset)
        expected = {row for row in space2.value_rows
                    if (m.op_tables["neg"][(row[1],)],) in set(subset)}
        assert rows(pre) == expected


def test_image_collects_composites():
    m = model_neg()
    one = canonical_varset(1)
    s = Substitution.of(one, one, {"x1": parse_term("neg(x1)", m.sig, one)})
    space = enumerate_points(m, one)
    pset = PointSet.of_rows(space, [(0,)])
    assert rows(subst_image_points(s, pset)) == {(1,)}
    assert rows(subst_image_points(s, PointSet.full(space))) == {(0,), (1,)}


def test_preimage_of_substituted_formula_is_valuation():
    m = model_neg()
    two = canonical_varset(2)
    ctx = FormulaContext(m.sig, two)
    s = Substitution.of(two, two, {
        "x1": parse_term("neg(x2)", m.sig, two),
        "x2": parse_term("x1", m.sig, two),
    })
    for text in ("P(x1)", "P(x1) & P(x2)", "exists x1. P(x1) & P(x2)"):
        f = parse_formula(text, ctx)
        from kbgeo import apply_subst_formula
        direct = satisfying_points(apply_subst_formula(s, f), m, two)
        via_points = subst_preimage_points(s, satisfying_points(f, m, two))
        assert direct == via_points


def test_point_bound_respected():
    m = model_eq()
    ctx = FormulaContext(m.sig, canonical_varset(4))
    with pytest.raises(BoundError):
        satisfying_points(parse_formula("true", ctx), m, ctx.varset,
                          geometry=Geometry(m, 8))


@pytest.mark.parametrize("name,model", all_fixtures() + seeded_models())
def test_geometry_transport_matches_pointwise_oracle(name, model):
    g = Geometry(model)
    for a in (1, 2):
        for b in (1, 2):
            source, target = canonical_varset(a), canonical_varset(b)
            assert g.space(source) is g.space(source)
            assert g.space(source).geometry is g
            substs = enumerate_substitutions(model.sig, source, target, 1)
            composites = [brute_composites(model, s) for s in substs]
            # Every (substitution, mask) is queried three times, the
            # substitutions interleaved mask by mask: the first query fills the
            # table's memo, the second reads it back, and the third goes
            # through an equal but distinct substitution object.
            twins = [Substitution(s.source, s.target, s.images) for s in substs]
            for round_substs in (substs, substs, twins):
                for mask in range(1 << g.space(source).size):
                    for s, comp in zip(round_substs, composites):
                        assert g.table(s).preimage(mask) == brute_preimage(comp, mask)
                for mask in range(1 << g.space(target).size):
                    for s, comp in zip(round_substs, composites):
                        assert g.table(s).image(mask) == brute_image(comp, mask)


def test_transport_honours_the_space_bound():
    m = model_p()
    one, two = canonical_varset(1), canonical_varset(2)
    narrow = Geometry(m, 2).space(one)
    up = Substitution.of(one, two, {"x1": parse_term("x2", m.sig, two)})
    with pytest.raises(BoundError):
        subst_preimage_points(up, PointSet.full(narrow))
    down = Substitution.of(two, one, {"x1": parse_term("x1", m.sig, one),
                                       "x2": parse_term("x1", m.sig, one)})
    with pytest.raises(BoundError):
        subst_image_points(down, PointSet.full(narrow))
    wide = enumerate_points(m, one)
    assert subst_preimage_points(up, PointSet.full(wide)).cardinality == 4


def test_point_space_refuses_to_pass_its_geometry_bound():
    m = model_p()
    g = Geometry(m, 4)
    with pytest.raises(BoundError):
        PointSpace(m, canonical_varset(3), g)
    with pytest.raises(BoundError):
        g.space(canonical_varset(3))
    assert g.space(canonical_varset(2)).size == 4


@pytest.mark.parametrize("name,model", constant_models())
def test_value_columns_match_pointwise_evaluation(name, model):
    """Term functions, atoms, projections and pullbacks, all read off value
    columns, agree with evaluation one point at a time, constants included."""
    rng = random.Random(name)
    g = Geometry(model)
    for n in (1, 2, 3):
        varset = canonical_varset(n)
        space, rows = g.space(varset), brute_rows(model, n)
        envs = [dict(zip(varset.names, row)) for row in rows]
        assert ({f.values for f in term_functions(space, 2).functions}
                == brute_term_functions(model, n, 2))
        for atom in atomic_formulas(model.sig, varset, 2):
            if isinstance(atom, Atom):
                table = model.rel_tables[atom.rel]
                holds = [tuple(eval_term(t, env, model) for t in atom.args) in table
                         for env in envs]
            else:
                holds = [eval_term(atom.left, env, model) == eval_term(atom.right, env, model)
                         for env in envs]
            expected = sum(1 << p for p, hit in enumerate(holds) if hit)
            assert satisfying_points(atom, model, varset, geometry=g).mask == expected, atom
        for axis, var in enumerate(varset.names):
            fibre = [row[:axis] + row[axis + 1:] for row in rows]
            for mask in (0, space.full_mask, *(rng.getrandbits(space.size) for _ in range(4))):
                hit = {fibre[p] for p in range(space.size) if mask >> p & 1}
                expected = sum(1 << p for p in range(space.size) if fibre[p] in hit)
                assert _exists_mask(mask, space, var) == expected
    constant = OpApp("c", ())
    for a, b in itertools.product((1, 2, 3), repeat=2):
        source, target = canonical_varset(a), canonical_varset(b)
        substs = enumerate_substitutions(model.sig, source, target, 1)
        sample = rng.sample(substs, min(6, len(substs)))
        for s in [Substitution(source, target, (constant,) * a)] + sample:
            assert pullback_indices(s, g.space(source), g.space(target)) \
                == brute_composites(model, s)


def _subst_queries(rng, model, n: int, count: int) -> list:
    """Substitution nodes into the canonical variable set of size n, each
    over a random query of one to three variables."""
    target, out = canonical_varset(n), []
    for _ in range(count):
        a = rng.randint(1, 3)
        substs = enumerate_substitutions(model.sig, canonical_varset(a), target, 1)
        out.append(SubstNode(rng.choice(substs), random_query(rng, model.sig, a, 1, 3)))
    return out


@pytest.mark.parametrize("name,model", all_fixtures() + seeded_models())
def test_kept_geometry_values_as_a_fresh_one_and_the_pointwise_oracle(name, model):
    """The module-level calls, which value over the model's kept geometry,
    give what a fresh geometry and evaluation one point at a time give, with
    the kept geometry replaced now and then by another model."""
    rng = random.Random(name)
    other = model_neg()
    for n in (1, 2, 3):
        varset = canonical_varset(n)
        queries = [random_query(rng, model.sig, n, 1) for _ in range(30)]
        queries += _subst_queries(rng, model, n, 6)
        expected = [brute_formula_mask(f, model, n) for f in queries]
        for i, (f, want) in enumerate(zip(queries, expected)):
            if i % 7 == 6:
                satisfying_points(TRUE, other, varset)
            assert satisfying_points(f, model, varset).mask == want, str(f)
            assert satisfying_points(f, model, varset, geometry=Geometry(model)).mask == want
            index = rng.randrange(len(model.carrier) ** n)
            point = Point(varset, brute_rows(model, n)[index])
            assert holds_at(point, f, model) == bool(want >> index & 1)
        common = functools.reduce(int.__and__, expected[::6])  # the last a substitution node
        assert points_satisfying_all(queries[::6], model, varset).mask == common
        assert points_satisfying_all(queries[::6], model, varset,
                                     geometry=Geometry(model)).mask == common


def _geometry_of(model, n: int = 1) -> Geometry:
    return satisfying_points(TRUE, model, canonical_varset(n)).space.geometry


def test_calls_on_one_model_object_share_its_kept_geometry():
    m = model_p()
    one, two = canonical_varset(1), canonical_varset(2)
    f = parse_formula("P(x1)", FormulaContext(m.sig, one))
    first = satisfying_points(f, m, one)
    assert satisfying_points(f, m, one).space is first.space
    assert points_satisfying_all([f], m, one).space is first.space
    assert _geometry_of(m, 2) is first.space.geometry
    assert generate_definable_algebra(m, two).space is first.space.geometry.space(two)
    twin = model_p()
    assert twin == m
    assert _geometry_of(twin) is not first.space.geometry
    assert _geometry_of(twin).space(one) is not first.space


def test_another_model_replaces_the_kept_geometry():
    m1, m2 = model_p(), model_neg()
    g1 = _geometry_of(m1)
    assert _geometry_of(m1) is g1
    g2 = _geometry_of(m2)
    assert g2 is not g1 and g2.model is m2
    assert _geometry_of(m2) is g2
    assert _geometry_of(m1) is not g1


def test_another_thread_resolves_its_own_geometry():
    m = model_p()
    mine = _geometry_of(m)
    theirs = []
    thread = threading.Thread(target=lambda: theirs.append(_geometry_of(m)))
    thread.start()
    thread.join()
    assert theirs[0] is not mine and theirs[0].model is m
    assert _geometry_of(m) is mine


def test_a_lattice_outlives_the_eviction_of_its_kept_geometry():
    m = model_neg()
    one, two = canonical_varset(1), canonical_varset(2)
    s = Substitution.of(one, two, {"x1": parse_term("neg(x2)", m.sig, two)})
    source, target = build_filter_lattice(m, one), build_filter_lattice(m, two)
    _geometry_of(model_p())
    assert _geometry_of(m) is not source.algebra.space.geometry
    g = Geometry(m)
    fresh_source = build_filter_lattice(m, one, geometry=g)
    fresh_target = build_filter_lattice(m, two, geometry=g)
    for mask in target.algebra.masks:
        got = filter_preimage(s, target.filter_for_mask(mask), source)
        want = filter_preimage(s, fresh_target.filter_for_mask(mask), fresh_source)
        assert got.mask == want.mask


def test_a_given_bound_holds_after_the_default_geometry_is_kept():
    """No path falls back to the kept geometry's default bound when the
    caller passes a geometry of its own."""
    m = model_p()
    three = canonical_varset(3)
    f = parse_formula("P(x3)", FormulaContext(m.sig, three))
    assert satisfying_points(f, m, three).space.size == 8
    narrow = Geometry(m, 4)
    calls = (lambda: satisfying_points(f, m, three, geometry=narrow),
             lambda: points_satisfying_all([f], m, three, geometry=narrow),
             lambda: holds_at(_geometry_of(m, 3).space(three).point(0), f, m, geometry=narrow),
             lambda: generate_definable_algebra(m, three, geometry=narrow),
             lambda: build_filter_lattice(m, three, geometry=narrow))
    for call in calls:
        with pytest.raises(BoundError, match="^8 points exceed the bound 4$"):
            call()


def test_a_check_error_comes_before_a_bound_error_of_a_substitution_source():
    m = model_p()
    one = canonical_varset(1)
    x1 = Var("x1")
    spread = SubstNode(Substitution(canonical_varset(3), one, (x1, x1, x1)),
                       Atom("P", (Var("x3"),)))
    with pytest.raises(BoundError, match="^8 points exceed the bound 4$"):
        satisfying_points(spread, m, one, geometry=Geometry(m, 4))
    with pytest.raises(SignatureError, match="^unknown relation Q$"):
        satisfying_points(And(spread, Atom("Q", (x1,))), m, one, geometry=Geometry(m, 4))


@pytest.mark.parametrize("f", ["P(x1)", And(TRUE, 42), Not(None)])
def test_a_non_formula_is_refused_by_the_check(f):
    m = model_p()
    with pytest.raises(SignatureError, match="^not a formula: "):
        satisfying_points(f, m, canonical_varset(1))


def test_a_failed_check_leaves_the_algebras_masks_unchanged():
    m = model_neg()
    algebra = generate_definable_algebra(m, canonical_varset(2), geometry=Geometry(m))
    valuation = algebra._valuation
    witness = algebra.member(algebra.masks[-1]).witness
    before = dict(valuation.masks)
    with pytest.raises(SignatureError, match="^unknown relation Q$"):
        valuation.mask(And(Not(witness), Atom("Q", (Var("x1"),))))
    assert valuation.masks == before
