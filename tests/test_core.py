"""Signatures, terms, substitutions, models, and term-function clones."""

import copy
import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest

import kbgeo
from kbgeo import (
    BoundError,
    FormulaContext,
    Geometry,
    KnowledgeBase,
    MismatchError,
    Model,
    ModelError,
    ModelMap,
    ParseError,
    PointSet,
    Signature,
    SignatureError,
    Substitution,
    Var,
    VarSet,
    canonical_varset,
    compose_subst,
    content_morphism,
    enumerate_substitutions,
    enumerate_terms,
    eval_term,
    least_desc_morphism,
    model_isomorphisms,
    parse_formula,
    parse_term,
    substitution_generators,
    term_depth,
    term_to_text,
    term_vars,
    term_functions,
)
from kbgeo.core import bijections
from helpers import (
    bounded_pairs,
    brute_term_functions,
    cfi_pair,
    constant_models,
    filtered_isomorphisms,
    model_eq,
    model_neg,
    model_p,
    model_p_relabeled,
    product_bijections,
    relabeled,
    seeded_models,
    seeded_pairs,
)
from test_census import FAMILIES, all_models, representatives


def test_signature_basic():
    sig = Signature((("f", 2), ("c", 0)), (("R", 1),))
    assert sig.op_arity("f") == 2
    assert sig.rel_arity("R") == 1
    assert sig.rel_names == ("R",)
    assert sig.with_equality


def test_signature_rejects_duplicates_and_reserved():
    with pytest.raises(SignatureError):
        Signature((("f", 1), ("f", 2)), ())
    with pytest.raises(SignatureError):
        Signature((("f", 1),), (("f", 1),))
    with pytest.raises(SignatureError):
        Signature((("exists", 1),), ())
    with pytest.raises(SignatureError):
        Signature((), (("R", -1),))


def test_varset_order_and_lookup():
    xs = VarSet(("u", "v", "w"))
    assert xs.index("v") == 1
    assert xs.names[2] == "w"
    assert "u" in xs and "z" not in xs
    assert list(xs) == ["u", "v", "w"]
    assert str(xs) == "{u, v, w}"
    assert VarSet.of("u", "v") == VarSet(("u", "v"))
    with pytest.raises(SignatureError):
        VarSet(("u", "u"))
    assert canonical_varset(3).names == ("x1", "x2", "x3")


def test_parse_term_round_trip():
    sig = Signature((("f", 2), ("g", 1), ("c", 0)), ())
    xs = VarSet(("x", "y"))
    for text in ("x", "c", "g(x)", "f(x,y)", "f(g(c),f(x,x))"):
        term = parse_term(text, sig, xs)
        assert term_to_text(term) == text
        assert parse_term("f( x , y )", sig, xs) == parse_term("f(x,y)", sig, xs)


def test_parse_term_errors_carry_position():
    sig = Signature((("f", 2),), ())
    xs = VarSet(("x",))
    with pytest.raises(ParseError) as info:
        parse_term("f(x x)", sig, xs)
    assert info.value.position is not None
    with pytest.raises(ParseError):
        parse_term("f(x)", sig, xs)
    with pytest.raises(ParseError):
        parse_term("y", sig, xs)
    with pytest.raises(ParseError):
        parse_term("x)", sig, xs)


def test_term_depth_and_vars():
    sig = Signature((("f", 2), ("g", 1)), ())
    xs = VarSet(("x", "y"))
    term = parse_term("f(g(x), y)", sig, xs)
    assert term_depth(term) == 2
    assert term_vars(term) == {"x", "y"}
    assert term_depth(Var("x")) == 0


def test_substitution_apply_and_compose():
    sig = Signature((("g", 1),), ())
    xs = VarSet(("x", "y"))
    s = Substitution.of(xs, xs, {"x": parse_term("g(y)", sig, xs),
                                 "y": parse_term("x", sig, xs)})
    assert term_to_text(s.apply_to_term(parse_term("g(x)", sig, xs))) == "g(g(y))"
    t = Substitution.of(xs, xs, {"x": parse_term("y", sig, xs),
                                 "y": parse_term("y", sig, xs)})
    both = compose_subst(s, t)
    assert term_to_text(both.image_of("x")) == "g(y)"
    assert term_to_text(both.image_of("y")) == "y"
    assert Substitution.identity(xs).is_identity
    assert not s.is_identity


def test_trusted_composite_equals_compose_subst():
    """The unchecked composite of every composable pair equals the checked
    one, hashes and prints alike, and finds the same pullback table: over the
    seeded models with a unary op at depth 2, and over a model with a binary
    op at depth 1, and at depth 2 over one variable."""
    g = {(a, b): (a + 2 * b) % 3 for a in range(3) for b in range(3)}
    binary = Model(Signature((("g", 2),), (("P", 1),)), (0, 1, 2), {"g": g}, {"P": [(0,)]})
    cases = [(m, 2, 2) for name, m in seeded_models() if m.sig.ops]
    cases += [(binary, 2, 1), (binary, 1, 2)]
    pairs = 0
    for model, n_max, depth in cases:
        geometry = Geometry(model)
        subs = {(a, b): enumerate_substitutions(model.sig, canonical_varset(a),
                                                canonical_varset(b), depth)
                for a in range(1, n_max + 1) for b in range(1, n_max + 1)}
        for (a, b), (c, d) in itertools.product(subs, repeat=2):
            if b != c:
                continue
            for s1, s2 in itertools.product(subs[a, b], subs[c, d]):
                images = tuple(map(s2.apply_to_term, s1.images))
                checked, trusted = Substitution(s1.source, s2.target, images), compose_subst(s1, s2)
                assert trusted == checked and hash(trusted) == hash(checked)
                assert str(trusted) == str(checked)
                assert geometry.table(trusted) is geometry.table(checked)
                pairs += 1
    assert pairs > 5000


def test_substitution_renaming_inverts():
    xs = VarSet(("x1", "x2"))
    ren = Substitution.renaming(xs, xs, {"x1": "x2", "x2": "x1"})
    assert ren.as_renaming() == {"x1": "x2", "x2": "x1"}
    assert compose_subst(ren, ren.inverted()).is_identity


def test_a_renaming_is_a_bijection():
    """A variable map is a renaming only when it is a bijection: one that
    merges two variables is not, even when it is onto a smaller target."""
    merge = Substitution(canonical_varset(2), canonical_varset(1), (Var("x1"), Var("x1")))
    assert merge.as_renaming() is None
    with pytest.raises(MismatchError, match="is not an invertible renaming$"):
        merge.inverted()
    onto = Substitution(canonical_varset(1), canonical_varset(2), (Var("x2"),))
    assert onto.as_renaming() is None


def test_substitution_requires_every_source_variable():
    xs = VarSet(("x", "y"))
    with pytest.raises(MismatchError):
        Substitution.of(xs, xs, {"x": Var("x")})


def test_a_pickled_substitution_keys_a_dict_in_another_interpreter():
    """A substitution is copied and pickled as its fields, not with the
    hash it cached: an interpreter with another hash seed finds, under the
    loaded substitution, the entry of an equal one made there."""
    make = ("import pickle, sys\n"
            "from kbgeo import OpApp, Substitution, Var, canonical_varset\n"
            "s = Substitution(canonical_varset(2), canonical_varset(2),"
            " (OpApp('f', (Var('x2'),)), Var('x1')))\n")
    package_root = str(pathlib.Path(kbgeo.__file__).resolve().parent.parent)

    def run(seed: str, code: str, stdin: str = "") -> str:
        env = {"PYTHONPATH": package_root, "PYTHONHASHSEED": seed,
               **{name: value for name, value in os.environ.items()
                  if name == "PYTHONDONTWRITEBYTECODE"}}
        return subprocess.run([sys.executable, "-c", make + code], input=stdin, env=env,
                              capture_output=True, text=True, timeout=60, check=True).stdout

    dumped = run("0", "hash(s)\nprint(pickle.dumps(s).hex())")
    loaded = "loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
    assert run("1", loaded + "print(loaded == s, {s: 1}.get(loaded))", dumped).split() == \
        ["True", "1"]
    s = Substitution(canonical_varset(1), canonical_varset(1), (Var("x1"),))
    hash(s)
    for twin in (copy.copy(s), copy.deepcopy(s)):
        assert twin == s and twin is not s and "_hash" not in vars(twin)


def test_model_validation():
    sig = Signature((("neg", 1),), (("P", 1),))
    with pytest.raises(ModelError) as info:
        Model(sig, (0, 1), {"neg": {(0,): 1}}, {"P": []})
    assert "neg" in str(info.value)
    with pytest.raises(ModelError):
        Model(sig, (0, 1), {"neg": {(0,): 1, (1,): 2}}, {"P": []})
    with pytest.raises(ModelError):
        Model(sig, (0, 1), {"neg": {(0,): 1, (1,): 0}}, {"P": [(7,)]})
    with pytest.raises(ModelError):
        Model(Signature((), ()), (0, 1), None, {"P": []})
    with pytest.raises(ModelError):
        Model(Signature((), ()), (0, 0))


def test_model_equality_and_eval():
    m = model_neg()
    assert m == m
    assert m == model_neg()
    assert m != model_p()
    for (_, left), (_, right) in zip(seeded_models(), seeded_models()):
        assert left is not right
        assert left == right
    env = {"x1": 1}
    sig, xs = m.sig, canonical_varset(1)
    assert eval_term(parse_term("neg(neg(x1))", sig, xs), env, m) == 1
    assert eval_term(parse_term("neg(x1)", sig, xs), env, m) == 0


def test_model_map_checks_structure():
    relab = model_p_relabeled()
    iso = ModelMap(model_p(), relab, ("a", "b"))
    assert iso.apply(1) == "b"
    assert iso.apply_values((0, 1)) == ("a", "b")
    assert iso.describe() == "0->a 1->b"
    with pytest.raises(ModelError):
        ModelMap(model_p(), relab, ("b", "a"))
    with pytest.raises(ModelError):
        ModelMap(model_p(), relab, ("a", "a"))


def test_model_isomorphisms_enumeration():
    found = model_isomorphisms(model_p(), model_p_relabeled())
    assert [iso.describe() for iso in found] == ["0->a 1->b"]
    both = model_isomorphisms(model_eq(), model_eq())
    assert [iso.describe() for iso in both] == ["0->0 1->1", "0->1 1->0"]
    with pytest.raises(MismatchError):
        model_isomorphisms(model_p(), model_eq())


def test_bijections_follow_the_product_of_permutations():
    """Without `fits` the search gives the leaves of `itertools.product`
    over each cell's permutations, in that order.  With one, it gives the
    leaves whose every prefix fits, in the same order: a cut skips nothing
    else.  A thousand singleton cells make a thousand levels, which a
    recursive search would not reach."""
    rng = random.Random(43)
    for _ in range(100):
        cells, labels = [], itertools.count()
        for _ in range(rng.randint(0, 4)):
            size = rng.randint(0, 4)
            cells.append(([next(labels) for _ in range(size)],
                          rng.sample(range(100), size)))
        salt = rng.randrange(1 << 16)

        def fits(mapping, source):
            return hash((salt, source, mapping[source], len(mapping))) % 3 != 0

        def every_prefix_fits(leaf):
            return all(fits(dict(list(leaf.items())[:i]), source)
                       for i, source in enumerate(leaf, 1))

        leaves = product_bijections(cells)
        assert list(bijections(cells)) == leaves
        assert list(bijections(cells, fits)) == [m for m in leaves if every_prefix_fits(m)]
    deep = [((i,), (-i,)) for i in range(1000)]
    assert list(bijections(deep)) == [{i: -i for i in range(1000)}]


def test_model_isomorphisms_match_the_permutation_filter():
    """Every carrier isomorphism, in the order of the filtered permutations:
    each census model against each representative of its family, both
    directions of `bounded_pairs` and `seeded_pairs` with their self-pairs,
    and a model whose carrier holds None and a tuple against its
    relabellings."""
    pairs = []
    for _, size, ops, rels in FAMILIES:
        models = list(all_models(size, ops, rels))
        pairs += itertools.product(models, representatives(models))
    for _, m1, m2 in bounded_pairs() + seeded_pairs():
        pairs += itertools.product((m1, m2), repeat=2)
    odd = Model(Signature((("f", 1), ("c", 0)), (("P", 1), ("R", 2))), (None, (0, 1), "a"),
                {"f": {(None,): (0, 1), ((0, 1),): None, ("a",): "a"}, "c": {(): None}},
                {"P": [(None,)], "R": [(None, "a"), ((0, 1), (0, 1))]})
    for perm in itertools.permutations(odd.carrier):
        pairs += [(odd, relabeled(odd, perm)), (relabeled(odd, perm), odd)]
    isomorphic, several = 0, 0
    for m1, m2 in pairs:
        found = [mmap.images for mmap in model_isomorphisms(m1, m2)]
        assert found == filtered_isomorphisms(m1, m2), (m1, m2)
        isomorphic += bool(found)
        several += len(found) > 1
    assert 0 < several < isomorphic < len(pairs)


def test_a_model_map_is_a_bijection():
    """A map onto a smaller carrier is refused even when its images cover
    that carrier."""
    sig = Signature((), ())
    with pytest.raises(ModelError, match="^images do not form a bijection"):
        ModelMap(Model(sig, (0, 1, 2)), Model(sig, ("a", "b")), ("a", "a", "b"))


def test_the_cfi_pairs_are_not_isomorphic():
    """The Cai-Fuerer-Immerman pairs over K3 and K4: 18 elements and 36 rows
    of R on each side, and 40 and 120.  The carrier search refutes the K3
    pair; each side is isomorphic to itself."""
    k3, k4 = (list(itertools.combinations(range(n), 2)) for n in (3, 4))
    for base, size, rows in ((k3, 18, 36), (k4, 40, 120)):
        for model in cfi_pair(base):
            assert (len(model.carrier), len(model.rel_tables["R"])) == (size, rows)
            assert next(model_isomorphisms(model, model)).images == model.carrier
    first, twisted = cfi_pair(k3)
    assert next(model_isomorphisms(first, twisted), None) is None


def test_term_functions_clone():
    clone = term_functions(Geometry(model_neg()).space(canonical_varset(1)))
    values = sorted(f.values for f in clone.functions)
    assert values == [(0, 1), (1, 0)]
    assert clone.saturated
    plain = term_functions(Geometry(model_eq()).space(canonical_varset(2)))
    assert sorted(f.values for f in plain.functions) == [(0, 0, 1, 1), (0, 1, 0, 1)]


def test_term_functions_partial_when_depth_capped():
    capped = term_functions(Geometry(model_neg()).space(canonical_varset(1)), max_term_depth=0)
    assert not capped.saturated
    assert [f.values for f in capped.functions] == [(0, 1)]


def test_capped_closure_matches_brute_rounds_and_probes_saturation():
    """Under caps 0 to 3 the closure holds exactly the brute functions of
    term depth at most the cap, and is saturated exactly when one more
    round adds none: on the constant models with a binary g beside a
    constant c, where a constant is a depth-1 term, and on the seeded
    unary-f models."""
    cases = [(name, model, 1) for name, model in constant_models() if name.startswith("cg")]
    cases += [("cg2", dict(constant_models())["cg2"], 2)]
    cases += [(name, model, k) for name, model in seeded_models() if name.startswith("fp")
              for k in (1, 2)]
    for name, model, k in cases:
        space = Geometry(model).space(canonical_varset(k))
        brute = [brute_term_functions(model, k, depth) for depth in range(5)]
        for cap in range(4):
            clone = term_functions(space, cap)
            assert {f.values for f in clone.functions} == brute[cap], (name, k, cap)
            assert clone.saturated == (brute[cap + 1] == brute[cap]), (name, k, cap)


def test_enumerate_terms_by_depth():
    m = model_neg()
    xs = canonical_varset(1)
    depth0 = enumerate_terms(m.sig, xs, 0)
    assert [term_to_text(t) for t in depth0] == ["x1"]
    depth2 = enumerate_terms(m.sig, xs, 2)
    assert [term_to_text(t) for t in depth2] == ["x1", "neg(x1)", "neg(neg(x1))"]


def test_enumerate_substitutions_counts():
    m = model_neg()
    one, two = canonical_varset(1), canonical_varset(2)
    assert len(enumerate_substitutions(m.sig, one, one, 2)) == 3
    assert len(enumerate_substitutions(m.sig, two, two, 2)) == 36
    assert len(enumerate_substitutions(m.sig, one, two, 2)) == 6
    for s in enumerate_substitutions(m.sig, two, one, 2):
        assert s.source.names == ("x1", "x2")
        assert s.target.names == ("x1",)


def chain(term) -> tuple:
    """A term whose ops have arity at most 1, as its op names from the
    outside in, then its variable's index or its constant's name."""
    if isinstance(term, Var):
        return (int(term.name[1:]),)
    return (term.op,) + (chain(term.args[0]) if term.args else ())


def test_generators_compose_to_every_bounded_substitution():
    """Breadth first from the identities, appending one generator at a time
    and dropping composites deeper than the bound, the generators reach
    exactly the bounded substitutions between sizes up to n: each is a
    composite whose intermediate sizes and depths stay within the bounds.
    A substitution is held as its sizes and its images' chains, so a
    composite replaces each image's variable by the second map's image of
    it.  An op of arity 2 has no generators."""
    def code(s: Substitution) -> tuple:
        return len(s.source), len(s.target), tuple(map(chain, s.images))

    def depth_of(image: tuple) -> int:
        return len(image) - isinstance(image[-1], int)

    signatures = [(), (("f", 1),), (("c", 0), ("f", 1)), (("f", 1), ("h", 1))]
    for ops, (n, depth) in itertools.product(signatures, [(1, 1), (2, 0), (2, 1), (2, 2),
                                                         (3, 1), (3, 2), (4, 1)]):
        sig = Signature(ops, (("P", 1),))
        gens = [code(g) for g in substitution_generators(sig, n, depth)]
        reached = {code(Substitution.identity(canonical_varset(a))) for a in range(1, n + 1)}
        frontier = list(reached)
        while frontier:
            step = []
            for a, b, images in frontier:
                for _, c, second in (g for g in gens if g[0] == b):
                    t = (a, c, tuple(s[:-1] + second[s[-1] - 1] if isinstance(s[-1], int) else s
                                     for s in images))
                    if t not in reached and max(map(depth_of, t[2])) <= depth:
                        reached.add(t)
                        step.append(t)
            frontier = step
        bounded = {code(s) for a, b in itertools.product(range(1, n + 1), repeat=2)
                   for s in enumerate_substitutions(sig, canonical_varset(a),
                                                    canonical_varset(b), depth)}
        assert set(gens) <= bounded, (ops, n, depth)
        assert reached == bounded, (ops, n, depth)
    with pytest.raises(SignatureError):
        substitution_generators(Signature((("g", 2),), ()), 2, 1)


def test_point_bound_is_enforced():
    m = model_eq()
    with pytest.raises(BoundError, match="^8 points exceed the bound 4$"):
        Geometry(m, 4).space(canonical_varset(3))


def test_printed_forms_hashes_and_map_equality_on_m_p():
    """The exact output, on m_p's objects, of the public methods no other
    test calls: indexing a point, the point listing of a point set, each
    repr and str, the hashes of equal point sets over two geometries and of
    a member, its filter and its points, and both outcomes of
    `ModelMap.__eq__`."""
    m = model_p()
    kb = KnowledgeBase(m, 2, 1)
    one, two = kb.description(1), kb.description(2)
    space = two.algebra.space
    pset = PointSet(space, 0b0110)
    member, filt = two.algebra.member(0b1010), two.filter_for_mask(0b1010)
    identity = next(model_isomorphisms(m, m))
    relabel = ModelMap(m, model_p_relabeled(), ("a", "b"))
    subst = next(iter(enumerate_substitutions(m.sig, one.varset, two.varset, 1)))
    morphism = least_desc_morphism(one, two, subst)
    witness = "P(x1) & P(x2) | !P(x1) & P(x2)"
    cases = [
        ("Point.__getitem__", space.point(1)["x2"], 1),
        ("PointSpace.__repr__", repr(space), "PointSpace({x1, x2}, 4 points)"),
        ("PointSet.points", [str(p) for p in pset.points()], ["(0,1)", "(1,0)"]),
        ("PointSet.__hash__", hash(pset), hash(PointSet(Geometry(m).space(two.varset), 0b0110))),
        ("PointSet.__repr__", repr(pset), "PointSet({x1, x2}, mask=0x6)"),
        ("DefinableSet.__hash__", hash(member), hash(member.points)),
        ("DefinableSet.__str__", str(member), "{(0,1), (1,1)} by " + witness),
        ("DefinableSet.__repr__", repr(member), f"DefinableSet(mask=0xa, witness={witness!r})"),
        ("DefinableAlgebra.__repr__", repr(two.algebra),
         "DefinableAlgebra({x1, x2}, 16 sets, saturated=True)"),
        ("ClosedFilter.__hash__", hash(filt), hash(member)),
        ("ClosedFilter.__str__", str(filt), "filter of {(0,1), (1,1)}"),
        ("ClosedFilter.__repr__", repr(filt), "ClosedFilter(dual_mask=0xa)"),
        ("FilterLattice.__repr__", repr(two), "FilterLattice({x1, x2}, 16 filters)"),
        ("Model.__repr__", repr(m), "Model(carrier=(0, 1), ops=[], rels=['P'])"),
        ("ModelMap.__eq__ equal", identity == ModelMap(m, model_p(), (0, 1)), True),
        ("ModelMap.__eq__ unequal", identity == relabel, False),
        ("ModelMap.__repr__", [repr(identity), repr(relabel)],
         ["ModelMap(0->0 1->1)", "ModelMap(0->a 1->b)"]),
        ("TermFunction.__str__", [str(f) for f in term_functions(space).functions],
         ["x1: (0, 0, 1, 1)", "x2: (0, 1, 0, 1)"]),
        ("Formula.__str__", str(parse_formula("exists x1. P(x1) & !P(x2)",
                                              FormulaContext(m.sig, two.varset))),
         "exists x1. P(x1) & !P(x2)"),
        ("_Morphism.__repr__", [repr(morphism), repr(content_morphism(morphism))],
         ["DescMorphism({x1 := x1}, {x1} -> {x1, x2})",
          "ContMorphism({x1 := x1}, {x1, x2} -> {x1})"]),
    ]
    for name, got, expected in cases:
        assert got == expected, name
