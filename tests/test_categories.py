"""Description and content categories, their duality, and pushforwards."""

import copy
import itertools
import pickle
import sys
import threading

import pytest

from kbgeo import (
    DEFAULT_MAX_POINTS,
    TRUE,
    AdmissibilityError,
    BoundError,
    ContMorphism,
    DefinabilityError,
    DescMorphism,
    FilterLattice,
    Geometry,
    KnowledgeBase,
    MismatchError,
    Model,
    Report,
    Substitution,
    build_filter_lattice,
    canonical_varset,
    check_duality,
    compose_cont,
    compose_desc,
    content_morphism,
    decide_equivalence,
    enumerate_substitutions,
    filter_preimage,
    identity_desc,
    is_admissible_cont,
    is_admissible_desc,
    least_cont_morphism,
    least_desc_morphism,
    parse_term,
    push_filter,
    satisfying_points,
    subst_preimage_points,
    verify_push_functoriality,
)
import kbgeo
from kbgeo import categories, lattice, semantics
from kbgeo.categories import knowledge_base, knowledge_bases
from kbgeo.cli import write_report
from kbgeo.core import compose_subst
from kbgeo.lattice import UndefinablePullbackError, UnionMap
from helpers import (
    all_fixtures,
    brute_composites,
    constant_models,
    counted_pullbacks,
    in_new_thread,
    memberwise_check_duality,
    memberwise_push_functoriality,
    model_eq,
    model_neg,
    model_p,
    model_pq1,
    model_pq2,
    named_pair,
    op_models,
    relabeled,
    seeded_models,
)

# Seeded models whose 2-variable duals pull back along x1, x2 := x1, x1 to
# sets that one variable cannot define.
UNDEFINABLE_PULLBACKS = ("r0", "r2")


def desc_obj(model, n):
    return build_filter_lattice(model, canonical_varset(n))


def neg_subst(model, n=1):
    xs = canonical_varset(n)
    images = {name: parse_term(f"neg({name})", model.sig, xs) for name in xs.names}
    return Substitution.of(xs, xs, images)


def test_admissibility_on_duals():
    m = model_p()
    obj = desc_obj(m, 1)
    s = Substitution.identity(canonical_varset(1))
    for fa in obj.filters:
        for fb in obj.filters:
            assert is_admissible_desc(s, fa, fb) == fb.points.is_subset_of(fa.points)


def test_least_desc_morphism_takes_full_pullback():
    m = model_neg()
    one = desc_obj(m, 1)
    s = neg_subst(m)
    morphism = least_desc_morphism(one, one, s)
    for filt in one.filters:
        mapped = morphism.map_filter(filt)
        assert mapped.points == subst_preimage_points(s, filt.points)


def test_desc_morphism_rejects_inadmissible_assignment():
    m = model_p()
    obj = desc_obj(m, 1)
    s = Substitution.identity(canonical_varset(1))
    full = obj.algebra.space.full_mask
    bad = {mask: full for mask in obj.algebra.masks}
    with pytest.raises(AdmissibilityError):
        DescMorphism(obj, obj, s, bad)
    partial = {0: 0}
    with pytest.raises(MismatchError):
        DescMorphism(obj, obj, s, partial)


def test_desc_morphism_rejects_an_image_that_is_not_a_member():
    """Equality alone defines only the empty and the full set over one
    variable, so sending the full set to {0} leaves the target's members."""
    obj = desc_obj(model_eq(), 1)
    assert obj.algebra.masks == (0b00, 0b11)
    with pytest.raises(DefinabilityError, match="^mask 0x1 is not definable over the target$"):
        DescMorphism(obj, obj, Substitution.identity(obj.varset), {0b00: 0b00, 0b11: 0b01})


def test_identity_and_composition():
    m = model_neg()
    obj = desc_obj(m, 1)
    ident = identity_desc(obj)
    s = neg_subst(m)
    morphism = least_desc_morphism(obj, obj, s)
    assert compose_desc(morphism, ident) == morphism
    assert compose_desc(ident, morphism) == morphism
    twice = compose_desc(morphism, morphism)
    assert twice.subst.image_of("x1") == parse_term("neg(neg(x1))", m.sig, obj.varset)
    for mask in obj.algebra.masks:
        assert twice.assignment[mask] == morphism.assignment[morphism.assignment[mask]]


def test_content_morphism_dualizes():
    m = model_neg()
    obj = desc_obj(m, 1)
    s = neg_subst(m)
    morphism = least_desc_morphism(obj, obj, s)
    dual = content_morphism(morphism)
    assert dual.subst == s
    assert dual.source.varset == morphism.target.varset
    assert dual.target.varset == morphism.source.varset
    for member in dual.source.algebra:
        image = dual.map_set(member)
        assert is_admissible_cont(s, member, image)


def test_content_composition_is_contravariant():
    m = model_neg()
    obj = desc_obj(m, 1)
    s = neg_subst(m)
    first = least_desc_morphism(obj, obj, s)
    second = least_desc_morphism(obj, obj, s)
    composite = compose_desc(second, first)
    dual_of_composite = content_morphism(composite)
    composed_duals = compose_cont(content_morphism(first), content_morphism(second))
    assert dual_of_composite == composed_duals


def test_a_knowledge_base_refuses_a_negative_depth():
    """A negative substitution depth or term-depth cap is refused, as n_max
    below 1 is, by the constructor and by the wrappers that build one; zero
    is a bound like any other."""
    with pytest.raises(MismatchError, match="^depth must be nonnegative$"):
        KnowledgeBase(model_neg(), 2, -1)
    with pytest.raises(MismatchError, match="^max_term_depth must be nonnegative$"):
        KnowledgeBase(model_neg(), 2, 1, -1)
    with pytest.raises(MismatchError, match="^depth must be nonnegative$"):
        check_duality(model_neg(), 2, -1)
    with pytest.raises(MismatchError, match="^max_term_depth must be nonnegative$"):
        check_duality(model_neg(), 2, 1, -1)
    assert KnowledgeBase(model_neg(), 2, 0, 0).substitutions(2, 2)


def test_knowledge_base_objects_are_cached_and_dual():
    kb = KnowledgeBase(model_p(), 2, 1)
    d1 = kb.description(1)
    assert kb.description(1) is d1
    assert len(d1) == 4 and len(kb.description(2)) == 16
    c1 = kb.description(1)
    assert sorted(m.mask for m in c1.algebra) == sorted(f.mask for f in d1)
    assert kb.saturated
    with pytest.raises(MismatchError):
        kb.description(3)


def test_knowledge_base_objects_are_its_filter_lattices():
    """Each object is the filter lattice itself, built once per size:
    description morphisms start at it, a content dual starts at the
    description morphism's target and maps that lattice's members to the
    source's, and no wrapper object is exported."""
    model = model_neg()
    kb = KnowledgeBase(model, 2, 1)
    one, two = kb.description(1), kb.description(2)
    assert isinstance(one, FilterLattice) and isinstance(two, FilterLattice)
    assert kb.description(1) is one and kb.description(2) is two
    for subst in enumerate_substitutions(model.sig, one.varset, two.varset, 1):
        morphism = least_desc_morphism(one, two, subst)
        assert morphism.source is one and morphism.target is two
        dual = content_morphism(morphism)
        assert dual.source is morphism.target and dual.target is morphism.source
        for dset in morphism.target.algebra:
            image = dual.map_set(dset)
            assert image is morphism.source.algebra.member(image.mask)
    for name in ("DescriptionObject", "ContentObject", "content_of"):
        assert not hasattr(kbgeo, name) and name not in kbgeo.__all__


def test_push_filter_is_least_admissible():
    m = model_neg()
    lat = build_filter_lattice(m, canonical_varset(1))
    s = neg_subst(m)
    for filt in lat.filters:
        pushed = push_filter(s, filt, lat)
        assert is_admissible_desc(s, filt, pushed)
        for other in lat.filters:
            if is_admissible_desc(s, filt, other):
                assert pushed.is_leq(other)


def test_check_duality_passes_on_fixtures():
    for name, model in all_fixtures():
        report = check_duality(model, 2)
        assert isinstance(report, Report)
        assert report.passed, (name, report.failures[:3])
        assert report.checked > 0


def test_check_duality_reports_sizes():
    report = check_duality(model_eq(), 2)
    entries = dict(report.entries)
    assert entries["sizes"] == "2 4"
    report = check_duality(model_p(), 2)
    assert dict(report.entries)["sizes"] == "4 16"


def test_push_functoriality_on_fixtures():
    for model in (model_p(), model_neg()):
        report = verify_push_functoriality(model, 2, 2)
        assert report.passed
        assert int(dict(report.entries)["triples"]) >= 100


def test_report_render_shape():
    report = check_duality(model_eq(), 1)
    text = write_report(report, "text")
    assert text.splitlines()[0] == "report: duality"
    assert "failures: none" in text
    bad = Report("demo", (("key", "value"),), 3, ("first", "second"))
    rendered = write_report(bad, "text")
    assert "failures: 2" in rendered
    assert "failure[0]: first" in rendered
    assert not bad.passed


def test_least_morphisms_between_sizes():
    m = model_p()
    kb = KnowledgeBase(m, 2, 1)
    for a in (1, 2):
        for b in (1, 2):
            for s in enumerate_substitutions(m.sig, canonical_varset(a),
                                             canonical_varset(b), 1):
                morphism = least_desc_morphism(kb.description(a), kb.description(b), s)
                dual = content_morphism(morphism)
                assert dual.subst == s
                cont = least_cont_morphism(kb.description(b), kb.description(a), s)
                assert cont == dual


def test_second_sweep_over_one_knowledge_base_computes_no_pullback(monkeypatch):
    calls = counted_pullbacks(monkeypatch)
    kb = KnowledgeBase(model_neg(), 2, 1)
    first = kb.check_duality()
    computed = len(calls)
    assert computed > 0
    assert len(set(calls)) == computed
    assert kb.check_duality() == first
    assert len(calls) == computed
    assert first == check_duality(model_neg(), 2, 1)


# The unary-op models are left out for time: their two sweeps take about 7 s
# each, against about 1 s for the others.
@pytest.mark.parametrize("name,model", [(name, m) for name, m in seeded_models()
                                        if not m.sig.ops])
def test_sweeps_report_undefinable_pullbacks(name, model):
    kb = KnowledgeBase(model, 2, 1)
    duality = kb.check_duality()
    push = kb.verify_push_functoriality()
    # The sweeps on atoms report what the member sweeps do; failing pushes
    # take the member rerun of their blocks.
    assert duality == memberwise_check_duality(kb)
    assert push == memberwise_push_functoriality(kb)
    if name not in UNDEFINABLE_PULLBACKS:
        assert duality.passed and push.passed
        return
    assert not duality.passed and not push.passed
    for failure in duality.failures + push.failures:
        assert "is not definable over {x1}" in failure
        assert "along {" in failure
    assert any("along {x1 := x1, x2 := x1}" in f for f in duality.failures)
    # A failing push still counts as a triple: substitutions of depth 1 are
    # variable maps here, b^a of them from size a to size b.
    sizes = [int(n) for n in dict(duality.entries)["sizes"].split()]
    triples = sum(b ** a * c ** b * sizes[a - 1]
                  for a in (1, 2) for b in (1, 2) for c in (1, 2))
    assert dict(push.entries)["triples"] == str(triples)


def test_filter_transport_honours_the_lattice_bound():
    m = model_p()
    one, two = canonical_varset(1), canonical_varset(2)
    narrow = build_filter_lattice(m, one, geometry=Geometry(m, 2))
    wide = build_filter_lattice(m, two)
    down = Substitution.of(two, one, {"x1": parse_term("x1", m.sig, one),
                                       "x2": parse_term("x1", m.sig, one)})
    with pytest.raises(BoundError):
        filter_preimage(down, narrow.bottom, wide)
    with pytest.raises(BoundError):
        least_cont_morphism(narrow, wide, down)
    up = Substitution.of(one, two, {"x1": parse_term("x2", m.sig, two)})
    with pytest.raises(BoundError):
        push_filter(up, narrow.bottom, wide)


def test_a_size_past_the_point_bound_stops_sweeps_and_decisions_before_any_build(monkeypatch):
    """Both sweeps and the decider raise the `BoundError` of the first size
    past the point bound, and build no object first; a pair is refused at
    its first model's size, then at its second's."""
    builds = counted_builds(monkeypatch)
    two = KnowledgeBase(model_p(), 3, 1, max_points=4)
    three = KnowledgeBase(Model(model_p().sig, (0, 1, 2), None, {"P": [(1,)]}), 3, 1,
                          max_points=4)
    for call, message in ((two.check_duality, "8 points exceed the bound 4"),
                          (three.verify_push_functoriality, "9 points exceed the bound 4"),
                          (lambda: decide_equivalence(two, three), "8 points exceed the bound 4"),
                          (lambda: decide_equivalence(three, two), "9 points exceed the bound 4")):
        with pytest.raises(BoundError) as info:
            call()
        assert str(info.value) == message
    assert builds == []


def test_equal_substitutions_share_one_table():
    m = model_neg()
    geometry = KnowledgeBase(m, 1, 1).geometry
    first = neg_subst(m)
    again = neg_subst(m)
    assert again == first and again is not first
    table = geometry.table(first)
    assert geometry.table(again) is table and table.key is first
    assert geometry.table(again).preimage(0b01) == geometry.table(first).preimage(0b01)
    assert len(geometry.frame.tables) == 1


# The unary op at depth 2, and the binary op with a constant at depth 1:
# their images nest once more in a composite.
COMPOSITE_MODELS = {"m_neg": model_neg, "cg2": lambda: dict(constant_models())["cg2"]}
COMPOSITE_CASES = [("m_neg", 2), ("cg2", 1)]


@pytest.mark.parametrize("name,depth", COMPOSITE_CASES)
def test_a_composite_table_is_the_composite_substitutions_own(name, depth):
    """For every composable pair of bounded substitutions, the knowledge
    base's composite row holds the geometry's table of the checked
    composite, keyed by an equal substitution."""
    kb = KnowledgeBase(COMPOSITE_MODELS[name](), 2, depth)
    sizes = (1, 2)
    pairs = 0
    for a, b, c in itertools.product(sizes, repeat=3):
        rows = kb._composite_rows(a, b, c)
        for i, s1 in enumerate(kb.substitutions(a, b)):
            for j, s2 in enumerate(kb.substitutions(b, c)):
                composite = compose_subst(s1, s2)
                table = rows[i][j]
                assert table is kb.geometry.table(composite)
                assert str(table.key) == str(composite)
                pairs += 1
    assert pairs == sum(len(kb.substitutions(a, b)) * len(kb.substitutions(b, c))
                        for a, b, c in itertools.product(sizes, repeat=3))


@pytest.mark.parametrize("name,depth", COMPOSITE_CASES)
def test_a_warm_knowledge_base_sweeps_as_a_fresh_one(name, depth):
    """Both sweeps at two depths, alternated over one knowledge base per
    depth, report what each reports on a fresh one, constructed directly
    with a syntax of its own: no composite memo answers for another size,
    or for the other sweep's pairs."""
    make = COMPOSITE_MODELS[name]
    kbs = {d: KnowledgeBase(make(), 2, d) for d in (depth, depth - 1)}
    duality, push = KnowledgeBase.check_duality, KnowledgeBase.verify_push_functoriality
    for sweep, d in ((duality, depth), (push, depth - 1), (duality, depth - 1), (push, depth)):
        fresh = KnowledgeBase(make(), 2, d)
        assert fresh.syntax is not kbs[d].syntax
        assert sweep(kbs[d]) == sweep(fresh)


def pullbacks_or_error(masks, table, target):
    try:
        return {mask: target.pullback(table, mask) for mask in masks}
    except UndefinablePullbackError as exc:
        return str(exc)


def desc_or_error(source, target, subst):
    try:
        return least_desc_morphism(source, target, subst)
    except UndefinablePullbackError as exc:
        return str(exc)


@pytest.mark.parametrize("name,model", all_fixtures() + [
    (name, m) for name, m in seeded_models() if not m.sig.ops])
def test_morphisms_held_on_atoms_agree_with_desc_morphisms(name, model):
    """The least images of the atoms along a substitution give every member
    the image the member-wise least morphism assigns, or fail with the same
    error, and the least images against it give every member the image of
    that morphism's content dual; composites of the atom images give every
    member the member-wise composite's image; and atom images along equal
    substitutions are equal exactly when the member-wise morphisms are."""
    kb = KnowledgeBase(model, 2, 1)
    sizes = (1, 2)
    objs = {n: kb.description(n) for n in sizes}
    atoms = {n: objs[n].algebra.block_masks() for n in sizes}
    held = {}
    for a, b in itertools.product(sizes, repeat=2):
        pairs = []
        for s in enumerate_substitutions(model.sig, canonical_varset(a), canonical_varset(b), 1):
            table = kb.geometry.table(s)
            h = pullbacks_or_error(atoms[a], table, objs[b].algebra)
            d = desc_or_error(objs[a], objs[b], s)
            if isinstance(d, str):
                assert h == d
                continue
            assert list(h) == list(atoms[a])
            push = UnionMap(h)
            assert {k: push[k] for k in d.assignment} == d.assignment
            dual = content_morphism(d)
            against = UnionMap({k: objs[a].algebra.close(table.image(k)) for k in atoms[b]})
            assert {k: against[k] for k in dual.assignment} == dual.assignment
            pairs.append((s, push, d))
        for s1, h1, d1 in pairs:
            for s2, h2, d2 in pairs:
                assert (s1 == s2 and h1 == h2) == (d1 == d2)
        held[(a, b)] = pairs
    for a, b, c in itertools.product(sizes, repeat=3):
        for _, h1, d1 in held[(a, b)]:
            for _, h2, d2 in held[(b, c)]:
                composite = compose_desc(d2, d1)
                h = UnionMap({k: h2[v] for k, v in h1.atoms.items()})
                assert {k: h[k] for k in composite.assignment} == composite.assignment


def assert_same_morphism(morphism, atom_images, apply, sources):
    """`morphism`, held on every member, is the map its atom images fix:
    equal in both orders to its rebuild from its own assignment, with a
    member table listed ascending that equals the atom images' `UnionMap`,
    mapping every member as that map does."""
    rebuilt = type(morphism)(morphism.source, morphism.target, morphism.subst,
                             morphism.assignment)
    assert rebuilt == morphism and morphism == rebuilt
    assert not rebuilt != morphism and not morphism != rebuilt
    held = UnionMap(atom_images)
    assert list(held) == list(morphism.assignment) == sorted(morphism.assignment)
    assert {k: held[k] for k in held} == morphism.assignment
    assert [apply(morphism, x).mask for x in sources] == [held[x.mask] for x in sources]


def test_morphisms_held_on_atoms_equal_their_member_forms():
    """A least morphism, an identity, a composite and their content duals,
    each held on every member, are the maps their atom images fix; a
    description morphism never equals a content morphism, even with the
    same substitution and table; and an assignment held on the atoms alone
    is not total."""
    model = model_neg()
    kb = KnowledgeBase(model, 2, 1)
    two = kb.description(2)
    algebra = two.algebra
    members = two.filters
    sets = kb.description(2).algebra.members
    map_filter, map_set = DescMorphism.map_filter, ContMorphism.map_set
    atoms = algebra.block_masks()
    assert len(atoms) < len(members)

    def least(subst, along):
        table = kb.geometry.table(subst)
        if along:
            return {atom: algebra.pullback(table, atom) for atom in atoms}
        return {atom: algebra.close(table.image(atom)) for atom in atoms}

    ident = identity_desc(two)
    assert_same_morphism(ident, {atom: atom for atom in atoms}, map_filter, members)
    assert_same_morphism(content_morphism(ident), least(ident.subst, False), map_set, sets)
    assert ident != content_morphism(ident) and content_morphism(ident) != ident

    substs = list(enumerate_substitutions(model.sig, two.varset, two.varset, 1))
    assert len(substs) > 2
    for s1 in substs:
        m1, push1, dual1 = least_desc_morphism(two, two, s1), least(s1, True), least(s1, False)
        assert_same_morphism(m1, push1, map_filter, members)
        assert_same_morphism(content_morphism(m1), dual1, map_set, sets)
        assert m1 != content_morphism(m1) and content_morphism(m1) != m1
        for s2 in substs[:3]:
            m2, push2, dual2 = least_desc_morphism(two, two, s2), least(s2, True), least(s2, False)
            second, first = UnionMap(push2), UnionMap(dual1)
            assert_same_morphism(compose_desc(m2, m1), {k: second[v] for k, v in push1.items()},
                                 map_filter, members)
            assert_same_morphism(compose_cont(content_morphism(m1), content_morphism(m2)),
                                 {k: first[v] for k, v in dual2.items()}, map_set, sets)

    partial = {atom: atom for atom in atoms}
    with pytest.raises(MismatchError):
        DescMorphism(two, two, Substitution.identity(two.varset), partial)


def test_morphisms_refuse_arguments_from_other_objects():
    """A morphism maps only the filters or sets of its own source: a filter
    over {x1, x2} given to a morphism from {x1}, or a set over {x1} given to
    its content dual from {x1, x2}, is a MismatchError."""
    kb = KnowledgeBase(model_pq1(), 2, 1)
    one, two = kb.description(1), kb.description(2)
    subst = next(iter(enumerate_substitutions(model_pq1().sig, one.varset, two.varset, 1)))
    foreign_filter = two.filter_for_mask(0xc)
    foreign_set = kb.description(1).algebra.member(0b10)
    morphism = least_desc_morphism(one, two, subst)
    dual = content_morphism(morphism)
    with pytest.raises(MismatchError, match="set does not belong to this algebra"):
        morphism.map_filter(foreign_filter)
    with pytest.raises(MismatchError, match="set does not belong to this algebra"):
        dual.map_set(foreign_set)
    own = one.filter_for_mask(0b10)
    assert morphism.map_filter(own).mask == subst_preimage_points(subst, own.points).mask
    assert dual.map_set(kb.description(2).algebra.member(0xc)).mask == 0b10


def assert_sweeps_match_the_member_sweeps(model, n_max, depth):
    kb = KnowledgeBase(model, n_max, depth)
    assert kb.check_duality() == memberwise_check_duality(kb)
    assert kb.verify_push_functoriality() == memberwise_push_functoriality(kb)


# Depth 2 on the fixtures is pinned by tests/sweeps_machine.golden.
@pytest.mark.parametrize("depth", [0, 1])
@pytest.mark.parametrize("name,model", all_fixtures())
def test_atom_sweeps_match_the_member_sweeps_on_fixtures(name, model, depth):
    assert_sweeps_match_the_member_sweeps(model, 2, depth)


# The models without ops are compared at n_max 2 in
# test_sweeps_report_undefinable_pullbacks.  At n_max 2 the unary-op models
# have 512-member lattices, where the member sweeps take about 3 s per model.
@pytest.mark.parametrize("name,model", seeded_models())
def test_atom_sweeps_match_the_member_sweeps_on_seeded_models(name, model):
    assert_sweeps_match_the_member_sweeps(model, 1, 1)


def brute_triples(kb) -> list:
    """Each composable pair of bounded substitutions, in sweep order, with
    its triple of classes: the sizes, and the composites of both factors and
    of their composite, found point by point by `brute_composites`."""
    pulls = {}

    def pull(subst) -> tuple:
        if subst not in pulls:
            pulls[subst] = tuple(brute_composites(kb.model, subst))
        return pulls[subst]

    out = []
    for a, b, c in itertools.product(range(1, kb.n_max + 1), repeat=3):
        for s1 in kb.substitutions(a, b):
            for s2 in kb.substitutions(b, c):
                out.append((s1, s2, (a, b, c, pull(s1), pull(s2), pull(compose_subst(s1, s2)))))
    return out


# The unary-op models at depths 1 and 2 over two variables; the binary-op
# models at depth 1 over two variables, and at depth 2 over one, since over
# two they have 1,444 substitutions per size pair.
CLASS_CASES = ([("m_neg", model_neg(), 2, 2)]
               + [(name, model, 2, depth) for name, model in op_models() for depth in (1, 2)
                  if name.startswith("f")]
               + [(name, model, n_max, depth) for name, model in op_models()
                  for n_max, depth in ((2, 1), (1, 2)) if name.startswith("g")])


@pytest.mark.parametrize("name,model,n_max,depth", CLASS_CASES,
                         ids=[f"{c[0]}-{c[2]}-{c[3]}" for c in CLASS_CASES])
def test_sweeps_over_classes_match_the_member_sweeps(name, model, n_max, depth):
    """Where substitutions share pullback tables, the sweeps, which check
    each triple of classes once while it passes, report what the member
    sweeps do, failures included."""
    assert_sweeps_match_the_member_sweeps(model, n_max, depth)


def test_a_failing_triple_reports_each_of_its_pairs():
    """On the failing seeded op models, a triple of classes that fails
    holds more than one pair, and each of its pairs has its own failure line
    in the push sweep, which the member sweep matches."""
    failing = 0
    for name, model in op_models():
        kb = KnowledgeBase(model, 2, 1)
        push = kb.verify_push_functoriality()
        if push.passed:
            continue
        failing += 1
        assert push == memberwise_push_functoriality(kb), name
        lines: dict[tuple, list[str]] = {}
        for s1, s2, triple in brute_triples(kb):
            prefix = f"push along {s1} then {s2}: "
            lines.setdefault(triple, []).extend(f for f in push.failures if f.startswith(prefix))
        assert any(len(found) > 1 for found in lines.values()), name
    assert failing == 2


def test_a_passing_sweep_lists_no_member(monkeypatch):
    """Both sweeps pass on atoms alone: on the 2^27-member lattice of the
    named 3-element model at n_max 3, and on every fixture at n_max 2,
    neither lists a member table."""
    def refuse(self):
        raise AssertionError("a passing sweep listed the members of a table")
    monkeypatch.setattr(UnionMap, "__iter__", refuse)
    cases = [(named_pair()[0], 3)] + [(model, 2) for _, model in all_fixtures()]
    for model, n_max in cases:
        kb = KnowledgeBase(model, n_max, 2)
        assert kb.check_duality().passed
        assert kb.verify_push_functoriality().passed


def tampered_composite_table(kb):
    """The pullback table of {x1 := neg(neg(x1)), x2 := x2} over the model
    with neg: the composite of two blocks of the depth-1 sweeps."""
    sig, two = kb.model.sig, canonical_varset(2)
    step = Substitution.of(two, two, {"x1": parse_term("neg(x1)", sig, two),
                                      "x2": parse_term("x2", sig, two)})
    return kb.geometry.table(compose_subst(step, step))


def test_a_block_failing_on_atoms_reruns_over_every_member():
    """A composite's pullback table loses the fiber of the first point, so
    the direct push differs from the staged one on every member holding that
    point: the first atom alone, and unions of it with the others.  The
    failing blocks rerun over their members."""
    kb = KnowledgeBase(model_neg(), 2, 1)
    table = tampered_composite_table(kb)
    table.fibers[0] = 0
    table.preimages.clear()
    push = kb.verify_push_functoriality()
    assert push == memberwise_push_functoriality(kb)
    atoms = kb.description(2).algebra.block_masks()
    masks = [int(f.rsplit(" ", 1)[1], 16) for f in push.failures if "disagrees" in f]
    assert any(mask not in atoms for mask in masks)


def test_an_identity_moving_an_atom_reruns_over_every_member():
    """The identity's pullback table over {x1, x2} loses the fibers of the
    first atom's points, so the identity push moves every member holding
    that atom: the atoms find it, and the size reruns over its members with
    the member sweep's report."""
    kb = KnowledgeBase(model_neg(), 2, 1)
    algebra = kb.description(2).algebra
    table = kb.geometry.table(Substitution.identity(algebra.varset))
    first = algebra.block_masks()[0]
    table.fibers = [0 if first >> p & 1 else fiber for p, fiber in enumerate(table.fibers)]
    push = kb.verify_push_functoriality()
    assert push == memberwise_push_functoriality(kb)
    assert push.failures.count("identity push moved a filter over |X|=2") == algebra.size // 2


def test_an_identity_whose_dual_moves_an_atom():
    """The identity's table on m_p over {x1} keeps the empty set as the
    first atom's image, so the identity does not dualize to the identity:
    both sweeps report that alone."""
    kb = KnowledgeBase(model_p(), 1, 0)
    algebra = kb.description(1).algebra
    table = kb.geometry.table(Substitution.identity(algebra.varset))
    table.images[algebra.block_masks()[0]] = 0
    duality = kb.check_duality()
    assert duality == memberwise_check_duality(kb)
    assert duality.checked == 3
    assert duality.failures == ("identity over |X|=1 does not dualize to the identity",)


def test_a_composite_whose_dual_differs_on_the_first_atom():
    """A composite's table loses the image of the first point, so the least
    content morphism along it differs from the composed duals on the first
    atom alone; the admissibility checks still pass."""
    kb = KnowledgeBase(model_neg(), 2, 1)
    table = tampered_composite_table(kb)
    table.bits[0] = 0
    table.images.clear()
    duality = kb.check_duality()
    assert duality == memberwise_check_duality(kb)
    assert len(duality.failures) == 2
    assert all(f.startswith("dual of a composite differs") for f in duality.failures)


def outcome(sweep, kb):
    """A sweep's report, or the text of the admissibility error it raised."""
    try:
        return sweep(kb)
    except AdmissibilityError as exc:
        return f"not admissible: {exc}"


# {x1 := neg(neg(x1)), x2 := x2} built with the pull list of
# {x1 := neg(x1), x2 := x2}, whose class it joins, or with one that no
# bounded substitution has.
@pytest.mark.parametrize("pull,joins", [([2, 3, 0, 1], True), ([0, 0, 2, 3], False)])
def test_a_wrong_table_among_equals_is_still_caught(monkeypatch, pull, joins):
    """Over the model with neg at depth 2, {x1 := neg(neg(x1)), x2 := x2}
    pulls back as the identity, so its class has other members.  Its table
    is built wrong, so it lands in another class; each triple it makes
    differs from its equals' by the composite's class, so both sweeps report
    the fault as the member loops do over the same geometry."""
    model = model_neg()
    sig, two = model.sig, canonical_varset(2)
    wrong = Substitution.of(two, two, {"x1": parse_term("neg(neg(x1))", sig, two),
                                       "x2": parse_term("x2", sig, two)})
    step = Substitution.of(two, two, {"x1": parse_term("neg(x1)", sig, two),
                                      "x2": parse_term("x2", sig, two)})
    identity = Substitution.identity(two)
    geometry = KnowledgeBase(model, 2, 2).geometry
    assert geometry.table(wrong).cls == geometry.table(identity).cls
    original = semantics.pullback_indices

    def corrupt(subst, source_space, target_space):
        return list(pull) if subst == wrong else original(subst, source_space, target_space)

    monkeypatch.setattr(semantics, "pullback_indices", corrupt)
    texts = []
    for sweep, oracle in ((KnowledgeBase.check_duality, memberwise_check_duality),
                          (KnowledgeBase.verify_push_functoriality, memberwise_push_functoriality)):
        kb = KnowledgeBase(model, 2, 2)
        texts.append(outcome(sweep, kb))
        assert texts[-1] == outcome(oracle, kb)
        table = kb.geometry.table
        assert (table(wrong).cls == table(step).cls) == joins
        assert table(wrong).cls != table(identity).cls
    duality, push = texts
    assert duality.startswith("not admissible: assignment ")
    assert not push.passed
    assert any("{x1 := neg(neg(x1)), x2 := x2}" in f for f in push.failures)


def test_a_composite_moving_points_everywhere_raises_as_the_member_loops_do():
    """A composite's table sends the images of the first and last points to
    every point, so the composite of two least morphisms is not admissible
    along it on the atoms holding them; the sweep raises on the first such
    atom, as the member loops do."""
    texts = []
    for sweep in (KnowledgeBase.check_duality, memberwise_check_duality):
        kb = KnowledgeBase(model_neg(), 2, 1)
        table = tampered_composite_table(kb)
        table.bits[0] = table.bits[-1] = (1 << len(table.fibers)) - 1
        table.images.clear()
        with pytest.raises(AdmissibilityError) as info:
            sweep(kb)
        texts.append(str(info.value))
    assert texts == ["assignment 0x1 -> 0x1 is not admissible"
                     " for {x1 := neg(neg(x1)), x2 := x2}"] * 2


def test_the_sweeps_run_atoms_once_per_triple_of_classes(monkeypatch):
    """`_check_pairs` and `_push_block` run once per distinct passing triple
    of classes, found by brute force: on the model with neg at n_max 2 and
    depth 2, fewer times than there are pairs; on the P model, whose
    substitutions share no table, once per pair, as each did before the
    sweeps read classes."""
    calls = {"_check_pairs": 0, "_push_block": 0}
    for name in calls:
        def counting(*args, _name=name, _run=getattr(categories, name)):
            calls[_name] += 1
            return _run(*args)
        monkeypatch.setattr(categories, name, counting)
    for model, shares in ((model_neg(), True), (model_p(), False)):
        kb = KnowledgeBase(model, 2, 2)
        pairs = brute_triples(kb)
        triples = len({triple for _, _, triple in pairs})
        assert (triples < len(pairs)) == shares
        calls.update(_check_pairs=0, _push_block=0)
        assert kb.check_duality().passed
        # Each triple checks its composites both ways; each identity once.
        assert calls["_check_pairs"] == 2 * triples + 2
        assert kb.verify_push_functoriality().passed
        assert calls["_push_block"] == triples


def counted_builds(monkeypatch) -> list:
    """The (model, size) of each algebra built from now on."""
    builds = []
    build = lattice.generate_definable_algebra

    def counting(*args, **kwargs):
        builds.append((args[0], len(args[1])))
        return build(*args, **kwargs)

    monkeypatch.setattr(lattice, "generate_definable_algebra", counting)
    return builds


def test_both_sweeps_on_one_model_object_build_each_size_once(monkeypatch):
    builds = counted_builds(monkeypatch)
    model = model_neg()
    check_duality(model, 2, 1)
    verify_push_functoriality(model, 1, 2)
    assert [n for _, n in builds] == [1, 2]


def test_the_resolver_keeps_the_last_pair_of_knowledge_bases(monkeypatch):
    """Other bounds, an equal but distinct model object, another model
    resolved in between, or another thread build again; a model of the last
    pair resolved, in either place, does not."""
    builds = counted_builds(monkeypatch)

    def sizes_built(model, n_max=2, depth=1, max_term_depth=None) -> list:
        builds.clear()
        check_duality(model, n_max, depth, max_term_depth)
        return [n for _, n in builds]

    a, b = model_neg(), model_p()
    assert sizes_built(a) == [1, 2]
    assert sizes_built(a) == []
    assert sizes_built(a, n_max=1) == [1]
    assert sizes_built(a, depth=0) == [1, 2]
    assert sizes_built(a, max_term_depth=1) == [1, 2]
    assert sizes_built(model_neg()) == [1, 2]
    assert sizes_built(a) == [1, 2]
    assert sizes_built(b) == [1, 2]
    assert sizes_built(a) == [1, 2]
    kb_a = knowledge_base(a, 2, 1)
    assert knowledge_bases(a, b, 2, 1)[0] is kb_a
    kb_b = knowledge_bases(a, b, 2, 1)[1]
    assert knowledge_bases(b, a, 2, 1) == (kb_b, kb_a)
    assert knowledge_base(b, 2, 1) is kb_b
    assert knowledge_base(a, 2, 1) is not kb_a
    kb1, kb2 = knowledge_bases(a, model_neg(), 2, 1)
    assert kb1 is kb2
    kb = knowledge_base(a, 2, 1)
    assert knowledge_base(a, 2, 1) is kb
    assert knowledge_base(a, 2, 1, None, 100) is not kb
    other = []
    thread = threading.Thread(target=lambda: other.append(knowledge_base(a, 2, 1)))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert other[0] is not knowledge_base(a, 2, 1)


def test_models_resolved_in_a_row_over_one_carrier_build_each_table_once(monkeypatch):
    """Models over one carrier and operation tables that differ only in
    their relations, resolved in a row, share one frame: the second model's
    sweeps build no pullback table, and between them the sweeps and a
    decision over two more such models build each table once.  Run in a new
    thread, which keeps no pair."""
    calls = counted_pullbacks(monkeypatch)

    def run():
        p, eq = model_p(), model_eq()
        check_duality(p, 2, 1)
        verify_push_functoriality(p, 1, 2)
        built = len(calls)
        assert built > 0
        check_duality(eq, 2, 1)
        verify_push_functoriality(eq, 1, 2)
        assert len(calls) == built
        frame = knowledge_base(p, 2, 1).geometry.frame
        assert knowledge_base(eq, 2, 1).geometry.frame is frame
        kb1, kb2 = knowledge_bases(model_pq1(), model_pq2(), 2, 1)
        assert kb1.geometry.frame is kb2.geometry.frame is frame
        decide_equivalence(kb1, kb2)
        decide_equivalence(kb1, kb2, mode="automorphic")
        assert len(set(calls)) == len(calls)

    in_new_thread(run)


def test_another_carrier_order_operation_table_or_point_bound_builds_its_own_frame(monkeypatch):
    """The model with neg over its carrier in the other order, the model
    with the identity for neg, and the model with neg under another point
    bound each get a frame of their own, though a model with neg is
    resolved just before each, and their sweeps build every table that
    one's built.  Run in a new thread, which keeps no pair."""
    calls = counted_pullbacks(monkeypatch)
    neg = model_neg()
    variants = [(Model(neg.sig, (1, 0), neg.op_tables, neg.rel_tables), DEFAULT_MAX_POINTS),
                (Model(neg.sig, (0, 1), {"neg": {(0,): 0, (1,): 1}}, neg.rel_tables),
                 DEFAULT_MAX_POINTS),
                (model_neg(), 100)]

    def run():
        for model, max_points in variants:
            calls.clear()
            base = knowledge_base(model_neg(), 2, 1)
            base.check_duality()
            built = len(calls)
            calls.clear()
            kb = knowledge_base(model, 2, 1, None, max_points)
            assert kb.geometry.frame is not base.geometry.frame
            kb.check_duality()
            assert len(calls) == built > 0

    in_new_thread(run)


def test_a_knowledge_base_made_directly_or_in_another_thread_shares_no_frame(monkeypatch):
    """The resolver hands its frame only to the knowledge bases it makes in
    its own thread: a knowledge base constructed directly, one resolved in
    another thread, a geometry constructed directly and a model's kept
    geometry each have a frame of their own, and the two knowledge bases
    build their tables again.  Run in a new thread, which keeps no pair."""
    calls = counted_pullbacks(monkeypatch)

    def run():
        kb = knowledge_base(model_p(), 2, 1)
        kb.check_duality()
        frame = kb.geometry.frame
        for other in (KnowledgeBase(model_pq1(), 2, 1),
                      in_new_thread(lambda: knowledge_base(model_pq1(), 2, 1))):
            assert other.geometry.frame is not frame
            calls.clear()
            other.check_duality()
            assert calls
        assert Geometry(model_p()).frame is not frame
        kept = satisfying_points(TRUE, model_p(), canonical_varset(1)).space.geometry
        assert kept.frame is not frame
        assert knowledge_base(model_pq1(), 2, 1).geometry.frame is frame

    in_new_thread(run)


def test_a_table_tampered_through_a_direct_knowledge_base_never_reaches_a_resolved_one():
    """A composite table tampered through a knowledge base constructed
    directly fails that knowledge base's sweep, while knowledge bases over
    the same carrier and operations resolved before and after it report
    what a fresh one in a new thread does.  Run in a new thread, which
    keeps no pair."""
    expected = in_new_thread(lambda: KnowledgeBase(model_neg(), 2, 1).check_duality())

    def run():
        assert check_duality(model_neg(), 2, 1) == expected
        direct = KnowledgeBase(model_neg(), 2, 1)
        table = tampered_composite_table(direct)
        table.bits[0] = table.bits[-1] = (1 << len(table.fibers)) - 1
        table.images.clear()
        with pytest.raises(AdmissibilityError):
            direct.check_duality()
        kb = knowledge_base(model_neg(), 2, 1)
        assert kb.geometry.frame is not direct.geometry.frame
        assert kb.check_duality() == expected

    in_new_thread(run)


def both_sweeps(kb: KnowledgeBase) -> tuple[Report, Report]:
    return kb.check_duality(), kb.verify_push_functoriality()


def test_a_knowledge_base_made_directly_shares_no_syntax_or_frame():
    """A knowledge base constructed directly owns its syntax and frame: the
    knowledge bases resolved in its thread after it, and another constructed
    directly over the same model, share neither with it, though the
    resolved ones share both with each other.  The composites of one size
    triple, reordered in its syntax before any sweep, fail its push sweep,
    while the others report what a fresh knowledge base does.  Run in a new
    thread, which keeps no pair."""
    expected = both_sweeps(KnowledgeBase(model_neg(), 2, 1))

    def run():
        direct = KnowledgeBase(model_neg(), 2, 1)
        composites, places = direct.syntax.composites(2, 2, 2)
        direct.syntax._composites[(2, 2, 2)] = composites[::-1], places
        assert not direct.verify_push_functoriality().passed
        resolved = [knowledge_base(model_neg(), 2, 1) for _ in range(2)]
        assert resolved[1] is not resolved[0]
        assert resolved[1].syntax is resolved[0].syntax
        assert resolved[1].geometry.frame is resolved[0].geometry.frame
        for kb in (*resolved, KnowledgeBase(model_neg(), 2, 1)):
            assert kb.syntax is not direct.syntax
            assert kb.geometry.frame is not direct.geometry.frame
            assert both_sweeps(kb) == expected

    in_new_thread(run)


def test_threads_sharing_one_syntax_report_as_a_sequential_run():
    """Four threads each sweep a model of their own over one operation set,
    with knowledge bases all resolved in a row in this thread, so that they
    share one syntax, which none has made a set or composite of yet: they
    race to make each.  Their operation tables differ, so each has a frame
    of its own.  Each thread reports what a sequential run over knowledge
    bases constructed directly, with syntaxes of their own, reports.  A
    short switch interval makes the threads switch inside the syntax's
    builds."""
    models = [m for name, m in op_models() if name.startswith("g")]
    models.append(relabeled(models[0], (1, 0)))
    expected = [both_sweeps(KnowledgeBase(m, 2, 1)) for m in models]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            # The kept pair's syntax is now another, so the next is new.
            assert knowledge_base(model_p(), 1, 0).syntax.depth == 0
            kbs = [knowledge_base(m, 2, 1) for m in models]
            assert all(kb.syntax is kbs[0].syntax for kb in kbs)
            assert len({id(kb.geometry.frame) for kb in kbs}) == len(kbs)
            results = [None] * len(kbs)

            def run(i):
                try:
                    results[i] = both_sweeps(kbs[i])
                except Exception as exc:  # compared with the expected reports below
                    results[i] = exc

            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(kbs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("name,model", all_fixtures() + seeded_models())
def test_resolved_sweeps_report_as_a_fresh_knowledge_base(name, model):
    for depth in (1, 2):
        duality = KnowledgeBase(model, 2, depth).check_duality()
        push = KnowledgeBase(model, 2, depth).verify_push_functoriality()
        for _ in range(2):
            assert check_duality(model, 2, depth) == duality
            assert verify_push_functoriality(model, depth, 2) == push


def test_a_models_tables_are_read_only():
    """Assigning a relation table, or a row of an operation table, raises
    `TypeError`; so after the attempt the resolved knowledge base reports
    what a fresh one does, the sizes of the model as it was built.  A model
    still copies and pickles, to an equal model with read-only tables."""
    m = model_p()
    sizes = dict(check_duality(m, 2, 1).entries)["sizes"]
    with pytest.raises(TypeError):
        m.rel_tables["P"] = frozenset({(0,), (1,)})
    assert dict(check_duality(m, 2, 1).entries)["sizes"] == sizes == "4 16"
    assert dict(KnowledgeBase(m, 2, 1).check_duality().entries)["sizes"] == sizes
    neg = model_neg()
    with pytest.raises(TypeError):
        neg.op_tables["neg"][(0,)] = 0
    assert neg.op_tables["neg"] == {(0,): 1, (1,): 0} and neg == model_neg()
    for twin in (copy.copy(neg), copy.deepcopy(neg), pickle.loads(pickle.dumps(neg))):
        assert twin == neg and twin is not neg
        with pytest.raises(TypeError):
            twin.op_tables["neg"][(0,)] = 0
