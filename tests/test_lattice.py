"""Definable-set algebras, closure, and the filter lattices dual to them."""

import dataclasses
import gc
import hashlib
import itertools
import pathlib

import pytest

from kbgeo import (
    BoundError,
    DefinabilityError,
    DefinableSet,
    FilterLattice,
    FormulaContext,
    Geometry,
    KnowledgeBase,
    MismatchError,
    Model,
    ModelMap,
    Point,
    PointSet,
    Signature,
    SignatureError,
    Substitution,
    Var,
    VarSet,
    build_filter_lattice,
    canonical_varset,
    closure,
    enumerate_points,
    filter_preimage,
    formula_to_text,
    generate_definable_algebra,
    holds_at,
    holds_on_all,
    lattice_profile,
    least_desc_morphism,
    parse_formula,
    parse_term,
    points_satisfying_all,
    satisfying_points,
    transport_model_iso,
)
from kbgeo import formulas, lattice
from kbgeo.core import TermClone, TermFunction, term_functions
from kbgeo.formulas import And, Atom, Equal, Formula, Not
from kbgeo.lattice import UndefinablePullbackError
from kbgeo.semantics import _Valuation
from helpers import (
    all_fixtures,
    brute_closure,
    brute_definable_family,
    brute_lattice_profile,
    cfi_pair,
    constant_models,
    eager_definable_algebra,
    model_clone_wall,
    model_eq,
    model_nand,
    model_neg,
    model_p,
    model_p0,
    named_pair,
    op_models,
    relabel_pairs,
    relabeled,
    seeded_models,
)
from test_census import FAMILIES, all_models, representatives

DIGESTS_GOLDEN = pathlib.Path(__file__).resolve().parent / "build_digests.golden"


def member_rows(algebra) -> set:
    space = algebra.space
    return {frozenset(space.value_rows[i] for i in range(space.size) if (m >> i) & 1)
            for m in algebra.masks}


def test_definable_set_witness_must_match():
    m = model_p()
    space = enumerate_points(m, canonical_varset(1))
    ctx = FormulaContext(m.sig, space.varset)
    good = DefinableSet(PointSet.of_rows(space, [(1,)]), parse_formula("P(x1)", ctx))
    assert good.mask == 0b10
    with pytest.raises(DefinabilityError,
                       match=r"^witness P\(x1\) evaluates to \{\(1\)\}, not \{\(0\)\}$"):
        DefinableSet(PointSet.of_rows(space, [(0,)]), parse_formula("P(x1)", ctx))


def test_generated_algebra_matches_brute_family():
    for name, model in all_fixtures() + seeded_models():
        for k in (1, 2):
            algebra = generate_definable_algebra(model, canonical_varset(k))
            family = brute_definable_family(model, k)
            assert member_rows(algebra) == family, (name, k)
            assert algebra.saturated
            assert lattice_profile(FilterLattice(algebra)) == brute_lattice_profile(family), \
                (name, k)


def test_known_algebra_sizes():
    assert len(generate_definable_algebra(model_eq(), canonical_varset(1))) == 2
    assert len(generate_definable_algebra(model_eq(), canonical_varset(2))) == 4
    assert len(generate_definable_algebra(model_p(), canonical_varset(1))) == 4
    assert len(generate_definable_algebra(model_p(), canonical_varset(2))) == 16
    assert len(generate_definable_algebra(model_p0(), canonical_varset(1))) == 2


def model_relation_variable() -> Model:
    """P = {1} on three elements, to be read over a variable also named P."""
    return Model(Signature((), (("P", 1),)), (0, 1, 2), None, {"P": [(1,)]})


def witness_cases() -> list:
    """(name, model, varset): the fixtures over 1 to 3 variables, the seeded
    models over 1 and 2, and P = {1} over the variables P and x1, whose
    witnesses read the variable P beside the relation P."""
    cases = [(name, model, canonical_varset(k)) for name, model in all_fixtures()
             for k in (1, 2, 3)]
    cases += [(name, model, canonical_varset(k)) for name, model in seeded_models()
              for k in (1, 2)]
    return cases + [("relation-variable", model_relation_variable(), VarSet(("P", "x1")))]


def test_every_member_checks_its_witness():
    """Every member, rebuilt outside its build, passes the from-scratch check,
    and its dump line ends with its witness rendered from scratch."""
    for name, model, varset in witness_cases():
        algebra = generate_definable_algebra(model, varset)
        for member, line in zip(algebra, algebra.dump_lines(), strict=True):
            recomputed = DefinableSet(member.points, member.witness)
            assert recomputed.mask == member.mask, (name, varset)
            assert line.endswith(" " + formula_to_text(member.witness)), (name, varset)


def test_dump_lines_read_back():
    """Every dump line's witness parses over the algebra's variables and
    values to the line's mask, a variable named like a relation included."""
    for name, model, varset in witness_cases():
        algebra = generate_definable_algebra(model, varset)
        ctx = FormulaContext(model.sig, varset)
        for line in algebra.dump_lines():
            mask, _, text = line.split(" ", 2)
            points = satisfying_points(parse_formula(text, ctx), model, varset)
            assert points.mask == int(mask, 16), (name, line)


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def build_digests() -> str:
    """One line per generated model and variable count 1 and 2: the name, n,
    the algebra's size, a digest of its dump and a digest of its clone, the
    term functions (values and witness) and saturation under caps 0, 1, 2
    and none.  The models are `seeded_models`, `constant_models` and the
    first model of each `relabel_pairs` entry; cg3 and cg4 over two
    variables are left out, since their clones do not finish.  The dump
    digest covers every dump line up to 2^10 members; past that, the lines
    of the atoms, whose witnesses spell out the split tree that every
    member's witness is read from."""
    models = seeded_models() + constant_models()
    models += [(name.split()[0], model) for name, model, _ in relabel_pairs()]
    out = []
    for (name, model), n in itertools.product(models, (1, 2)):
        if n == 2 and name in ("cg3", "cg4"):
            continue
        space = Geometry(model).space(canonical_varset(n))
        algebra = generate_definable_algebra(model, space.varset, geometry=space.geometry)
        if algebra.size <= 1 << 10:
            dump = algebra.dump_lines()
        else:
            dump = [f"{mask:#x} {mask.bit_count()} {formula_to_text(algebra.member(mask).witness)}"
                    for mask in algebra.block_masks()]
        clone = []
        for cap in (0, 1, 2, None):
            found = term_functions(space, cap)
            clone += [f"{cap} {f.values} {f.witness}" for f in found.functions]
            clone.append(f"{cap} saturated={found.saturated}")
        out.append(f"{name} {n} {algebra.size} {_sha256(dump)} {_sha256(clone)}\n")
    return "".join(out)


def test_builds_of_generated_models_match_their_digests():
    assert build_digests().splitlines() == DIGESTS_GOLDEN.read_text().splitlines()


def test_a_wrong_clone_column_fails_the_build(monkeypatch):
    """A build reads its seeds off the clone's value columns, but checks each
    cut it makes by evaluating the cut's terms: with the clone grown to two
    functions and their columns swapped before the build reads any, the
    first cut checked evaluates elsewhere, and the build stops there.  The
    NAND build over three variables stops seeding early, once every point is
    its own atom, and is still checked."""
    class Swapped(TermClone):
        def __init__(self, *args):
            super().__init__(*args)
            while len(self.functions) < 2 and self.grow():
                pass
            first, second = self.functions[:2]
            self.functions[:2] = (TermFunction(second.values, first.witness),
                                  TermFunction(first.values, second.witness))

    monkeypatch.setattr(lattice, "TermClone", Swapped)
    for model, n in ((model_neg(), 1), (model_neg(), 2), (dict(seeded_models())["fp0"], 2),
                     (model_nand(), 3)):
        with pytest.raises(DefinabilityError,
                           match=r"^witness .+ evaluates to \{.*\}, not \{.*\}$"):
            generate_definable_algebra(model, canonical_varset(n))


@pytest.mark.parametrize("seed_mask, model, n", [
    ("_atom_mask", model_p0(), 1),
    ("_atom_mask", model_nand(), 3),
    ("_equal_mask", model_eq(), 2),
])
def test_a_wrong_seed_mask_fails_its_cut_check(monkeypatch, seed_mask, model, n):
    """The build splits by the seed masks it reads through `lattice`, while
    the cut check values the cut through `semantics`: with one bit flipped in
    the first seed mask, the first cut fails its check before any block
    moves.  These builds end without a block witness (one variable; NAND
    over three ends discrete), so the cut check is the only one they make."""
    original, read = getattr(lattice, seed_mask), []

    def flipped(*args):
        read.append(None)
        return original(*args) ^ (len(read) == 1)

    selects = []
    select = lattice._select
    monkeypatch.setattr(lattice, seed_mask, flipped)
    monkeypatch.setattr(lattice, "_select", lambda *args: selects.append(None) or select(*args))
    with pytest.raises(DefinabilityError,
                       match=r"^witness .+ evaluates to \{.*\}, not \{.*\}$"):
        generate_definable_algebra(model, canonical_varset(n))
    assert len(read) == 1 and selects == []


def test_a_discrete_build_grows_its_clone_only_as_far_as_its_seeds_read(monkeypatch):
    """The clone grows a round only when a seed needs a function not found
    yet, and no seed is read once every point is its own atom.  On NAND the
    P seeds of the projections already name every point, so no round runs:
    over four variables none of the 2^16 functions past them is made.  The
    3-element clone wall over two variables needs round 1 only.  Under a
    cap, the clone still grows to the cap for the saturation flag."""
    grow, grown = TermClone.grow, []

    def counted(clone):
        more = grow(clone)
        grown.append(len(clone.functions))
        return more

    monkeypatch.setattr(TermClone, "grow", counted)
    for model, n, cap, sizes in ((model_nand(), 3, None, []), (model_nand(), 4, None, []),
                                 (model_clone_wall(), 2, None, [6]),
                                 (model_nand(), 3, 2, [9, 31, 31])):
        grown.clear()
        algebra = generate_definable_algebra(model, canonical_varset(n), cap)
        assert algebra.size == 1 << len(model.carrier) ** n, (n, cap)
        assert grown == sizes, (n, cap)


def test_the_on_demand_clone_builds_what_the_drained_clone_builds():
    """The library build equals the eager reference, which reads every seed
    off the drained clone: the same atoms, dump and saturation flag, under
    caps 0, 1, 2 and none.  The op models put a binary R first, so its
    pairs are read while the clone still grows, and they and the clone-wall
    models are also taken without their relations, so that the equality
    pairs are.  The two clone-wall models stop seeding early; the 3-element
    one is built over one variable only, since its drained clone over two
    does not finish.  The six fixtures are also built over three variables,
    and so are both K3 CFI models, 5,832 points each: there the atoms,
    saturation flags and atom witnesses are compared, since their 2^56 and
    2^164 members are past `MAX_MEMBERS`.  The witnesses are compared by
    `_shape`, which fixes their texts: those of the 164 atoms would be
    293 MB, and rendering one holds a text for each of its shared nodes."""
    census = [(f"{label} #{i}", model) for label, size, ops, rels in FAMILIES
              for i, model in enumerate(representatives(all_models(size, ops, rels)))]
    ops = op_models() + [("nand", model_nand()), ("clone wall", model_clone_wall())]
    models = all_fixtures() + seeded_models() + census + ops
    models += [(f"{name} without relations", Model(Signature(model.sig.ops, ()), model.carrier,
                                                    model.op_tables)) for name, model in ops]
    cases = [(name, model, n, cap) for name, model in models for n in (1, 2)
             for cap in (0, 1, 2, None) if n == 1 or not name.startswith("clone wall")]
    cases.append(("nand", model_nand(), 3, 1))
    cases += [(name, model, 3, None) for name, model in all_fixtures()]
    for name, model, n, cap in cases:
        varset = canonical_varset(n)
        built = generate_definable_algebra(model, varset, cap)
        eager = eager_definable_algebra(model, varset, cap)
        assert built.block_masks() == eager.block_masks(), (name, n, cap)
        assert built.dump_lines() == eager.dump_lines(), (name, n, cap)
        assert built.saturated == eager.saturated, (name, n, cap)
    for model in cfi_pair([(0, 1), (0, 2), (1, 2)]):
        built, eager = (build(model, canonical_varset(3))
                        for build in (generate_definable_algebra, eager_definable_algebra))
        assert built.block_masks() == eager.block_masks()
        assert built.saturated == eager.saturated
        shapes, known = {}, {}
        assert [_shape(built.member(atom).witness, shapes, known) for atom in built.block_masks()] \
            == [_shape(eager.member(atom).witness, shapes, known) for atom in eager.block_masks()]
    assert not generate_definable_algebra(model_nand(), canonical_varset(3), 1).saturated


def _shape(f: Formula, shapes: dict, known: dict) -> int:
    """A number for f's structure, the same for two formulas exactly when
    their node classes, fields and subformulas' structures agree, and then
    their texts do too; `known` maps each node read to its number, by
    identity, so a shared subformula is read once."""
    if id(f) not in known:
        key = (type(f), *(_shape(v, shapes, known) if isinstance(v, Formula) else v
                          for v in (getattr(f, field.name) for field in dataclasses.fields(f))))
        known[id(f)] = shapes.setdefault(key, len(shapes))
    return known[id(f)]


def _nodes(f, seen: dict) -> None:
    """Add f's subformulas to seen, keyed on their identities."""
    if id(f) not in seen:
        seen[id(f)] = f
        for child in (getattr(f, "body", None), getattr(f, "left", None),
                      getattr(f, "right", None)):
            if isinstance(child, Formula):
                _nodes(child, seen)


def _most_shared_select_call(monkeypatch, model, varset) -> int:
    """The index, among the `_select` calls of a build and a read of all its
    members, of the first call whose result is a subformula of the most
    member witnesses, at least two."""
    original = lattice._select
    results = []

    def recording(*args):
        results.append(original(*args))
        return results[-1]

    with monkeypatch.context() as patch:
        patch.setattr(lattice, "_select", recording)
        members = list(generate_definable_algebra(model, varset))
    uses = {}
    for member in members:
        seen = {}
        _nodes(member.witness, seen)
        for key in seen:
            uses[key] = uses.get(key, 0) + 1
    shares = [uses.get(id(f), 0) for f in results]
    assert max(shares) >= 2
    return shares.index(max(shares))


@pytest.mark.parametrize("corrupt, error", [
    (Not, DefinabilityError),
    (lambda f: And(Atom("Undeclared", (Var("x1"),)), f), SignatureError),
])
def test_build_memo_still_checks_every_member(monkeypatch, corrupt, error):
    """Corrupting one shared split-tree subformula fails the read of the
    members: the memo answers shared nodes, but every member's witness is
    still checked and valued when first read, so the first member that uses
    the corrupted node is refused.  Builds before and after, over other
    spaces, stay correct, so no memo entry outlives its build."""
    for model in (model_neg(), dict(seeded_models())["fp0"]):
        two, one = canonical_varset(2), canonical_varset(1)
        index = _most_shared_select_call(monkeypatch, model, two)
        expected = generate_definable_algebra(model, one).dump_lines()
        original = lattice._select
        calls = []

        def corrupted(*args):
            calls.append(None)
            result = original(*args)
            return corrupt(result) if len(calls) == index + 1 else result

        with monkeypatch.context() as patch:
            patch.setattr(lattice, "_select", corrupted)
            with pytest.raises(error):
                list(generate_definable_algebra(model, two))
        assert len(calls) > index
        assert generate_definable_algebra(model, one).dump_lines() == expected
        assert member_rows(generate_definable_algebra(model, two)) == \
            brute_definable_family(model, 2)


def test_closure_matches_brute_oracle():
    for model in [model_p(), model_neg(), model_eq()] + [m for _, m in seeded_models()]:
        for k in (1, 2):
            varset = canonical_varset(k)
            algebra = generate_definable_algebra(model, varset)
            space = algebra.space
            family = brute_definable_family(model, k)
            for r in range(space.size + 1):
                for subset in itertools.combinations(space.value_rows, r):
                    pset = PointSet.of_rows(space, subset)
                    got = frozenset(space.value_rows[i]
                                    for i in closure(pset, algebra).points.indices())
                    assert got == brute_closure(model, k, subset, family)


def test_closure_is_extensive_idempotent_monotone():
    model = model_neg()
    varset = canonical_varset(2)
    algebra = generate_definable_algebra(model, varset)
    space = algebra.space
    closures = {}
    for mask in range(1 << space.size):
        pset = PointSet(space, mask)
        closed = closure(pset, algebra).points
        closures[mask] = closed.mask
        assert mask & ~closed.mask == 0
        assert closures[mask] & ~closure(closed, algebra).points.mask == 0
        assert closure(closed, algebra).points.mask == closed.mask
    for small, big in itertools.combinations(sorted(closures), 2):
        if small & ~big == 0:
            assert closures[small] & ~closures[big] == 0


def test_closure_requires_matching_space():
    algebra = generate_definable_algebra(model_p(), canonical_varset(1))
    other_space = enumerate_points(model_p(), canonical_varset(2))
    with pytest.raises(MismatchError):
        closure(PointSet.empty(other_space), algebra)


def test_filter_order_reverses_point_inclusion():
    lat = build_filter_lattice(model_p(), canonical_varset(1))
    assert len(lat.filters) == 4
    bottom, top = lat.bottom, lat.top
    assert bottom.points.mask == lat.algebra.space.full_mask
    assert top.points.mask == 0
    for a in lat.filters:
        assert bottom.is_leq(a) and a.is_leq(top)
        for b in lat.filters:
            assert a.is_leq(b) == (b.points.mask & ~a.points.mask == 0)


def test_meet_and_join_are_dual_union_and_intersection():
    lat = build_filter_lattice(model_p(), canonical_varset(2))
    for a in lat.filters:
        for b in lat.filters:
            assert lat.meet(a, b).points.mask == a.points.mask | b.points.mask
            assert lat.join(a, b).points.mask == a.points.mask & b.points.mask
            assert lat.meet(a, b).is_leq(a) and lat.meet(a, b).is_leq(b)
            assert a.is_leq(lat.join(a, b)) and b.is_leq(lat.join(a, b))


def test_filter_membership_is_holding_on_dual():
    m = model_p()
    lat = build_filter_lattice(m, canonical_varset(1))
    ctx = FormulaContext(m.sig, lat.varset)
    f = parse_formula("P(x1)", ctx)
    sat = {filt.points.mask for filt in lat.filters if filt.member_formula(f)}
    assert sat == {0b10, 0b00}
    assert all(filt.member_formula(parse_formula("true", ctx)) for filt in lat.filters)


def test_filter_preimage_closes_the_image():
    m = model_neg()
    one = canonical_varset(1)
    two = canonical_varset(2)
    lat1 = build_filter_lattice(m, one)
    lat2 = build_filter_lattice(m, two)
    s = Substitution.of(one, two, {"x1": parse_term("neg(x1)", m.sig, two)})
    for filt in lat2.filters:
        pulled = filter_preimage(s, filt, lat1)
        expected_rows = {(m.op_tables["neg"][(row[0],)],)
                         for row in (filt.points.space.value_rows[i]
                                     for i in filt.points.indices())}
        space1 = lat1.algebra.space
        closed = brute_closure(m, 1, expected_rows)
        assert {space1.value_rows[i] for i in pulled.points.indices()} == set(closed)


def test_lattice_profile_values():
    assert lattice_profile(build_filter_lattice(model_p(), canonical_varset(1))) == \
        (4, 2, (2, 2, 2, 2))
    assert lattice_profile(build_filter_lattice(model_p0(), canonical_varset(1))) == \
        (2, 1, (1, 1))
    size, height, degrees = lattice_profile(build_filter_lattice(model_p(), canonical_varset(2)))
    assert size == 16 and height == 4
    assert len(degrees) == 16 and degrees == tuple(sorted(degrees))


def test_three_element_carrier_at_three_variables():
    """Unary P on a 3-element carrier at n = 3: 27 points and 14 atoms, so
    2^14 members, each built with a checked witness."""
    model = Model(Signature((), (("P", 1),)), (0, 1, 2), None, {"P": [(1,)]})
    lat = build_filter_lattice(model, canonical_varset(3))
    assert len(lat.algebra.block_masks()) == 14
    assert len(lat) == 2 ** 14
    assert lattice_profile(lat)[:2] == (16384, 14)


def test_four_element_cycle_at_two_variables():
    """f(a) = a+1 mod 4 and P = {0} at n = 2: every one of the 16 points is an
    atom, so 2^16 members, each checked through the build's memo; every
    4096th is checked again from scratch."""
    carrier = (0, 1, 2, 3)
    model = Model(Signature((("f", 1),), (("P", 1),)), carrier,
                  {"f": {(a,): (a + 1) % 4 for a in carrier}}, {"P": [(0,)]})
    lat = build_filter_lattice(model, canonical_varset(2))
    assert len(lat.algebra.block_masks()) == 16
    assert len(lat) == 2 ** 16
    assert lattice_profile(lat)[:2] == (65536, 16)
    for member in lat.algebra.members[::4096]:
        assert DefinableSet(member.points, member.witness).mask == member.mask


def test_depth_cap_marks_partial():
    capped = generate_definable_algebra(model_neg(), canonical_varset(1), max_term_depth=0)
    assert not capped.saturated
    full = generate_definable_algebra(model_neg(), canonical_varset(1))
    assert full.saturated
    assert set(capped.masks) <= set(full.masks)


def test_block_masks_partition_the_space():
    for model in (model_p(), model_neg(), model_eq()):
        algebra = generate_definable_algebra(model, canonical_varset(2))
        blocks = algebra.block_masks()
        union = 0
        for b in blocks:
            assert union & b == 0
            union |= b
        assert union == algebra.space.full_mask
        for mask in algebra.masks:
            assert all(b & mask in (0, b) for b in blocks)


def test_a_replay_values_each_atom_s_witness():
    """Replaying an algebra over its own space through its own valuation
    gives each atom itself, on the fixtures, the seeded models and the op
    models over one to three variables.  Replayed over the space of a
    carrier relabelling, with the seeds valued there, it gives the atom
    images of the carrier transport: a carrier isomorphism keeps every
    formula, deep terms included."""
    transported = 0
    for _, model in all_fixtures() + seeded_models() + op_models():
        perm = model.carrier[1:] + model.carrier[:1]
        image = relabeled(model, perm)
        kb1, kb2 = KnowledgeBase(model, 3, 1), KnowledgeBase(image, 3, 1)
        algebras = [kb1.description(n).algebra for n in (1, 2, 3)]
        for algebra in algebras:
            assert algebra.replay(algebra.space, algebra._valuation.mask) == \
                {atom: atom for atom in algebra.block_masks()}
        try:
            alphas = transport_model_iso(ModelMap(model, image, perm), kb1, kb2).alphas
        except UndefinablePullbackError:
            continue
        for n, algebra in enumerate(algebras, 1):
            space = kb2.description(n).algebra.space
            assert algebra.replay(space, _Valuation(space).mask) == alphas[n].atoms
        transported += 1
    assert transported > len(all_fixtures())


def test_dump_lines_are_sorted_and_witnessed():
    algebra = generate_definable_algebra(model_p(), canonical_varset(1))
    lines = algebra.dump_lines()
    assert len(lines) == 4
    masks = [int(line.split()[0], 16) for line in lines]
    assert masks == sorted(masks)
    assert any("P(x1)" in line for line in lines)


def fresh_lines(algebra) -> list:
    """The dump lines of `algebra`, each witness rendered from scratch."""
    return [f"{m.mask:#x} {m.points.cardinality} {formula_to_text(m.witness)}"
            for m in algebra.members]


def test_witnesses_share_negations_and_conjunctions():
    """A cut's negation is one node for every block the cut splits, and a
    conjunction of a cut, or its negation, with a witness is one node for
    every member that has it, so a dump renders each, and the valuation memo
    checks each, once.  Over two variables the named pair's first model has
    512 members, whose witnesses negate 4 cuts and hold 90 conjunctions: the
    lines print the same text as a fresh rendering of each witness."""
    algebra = generate_definable_algebra(named_pair()[0], canonical_varset(2))
    nodes, todo = {}, [m.witness for m in algebra.members]
    while todo:
        f = todo.pop()
        if id(f) not in nodes:
            nodes[id(f)] = f
            todo += [getattr(f, side) for side in ("left", "right", "body") if hasattr(f, side)]
    negations = [f for f in nodes.values() if isinstance(f, Not)]
    assert len(negations) == len({id(f.body) for f in negations}) == 4
    conjunctions = [f for f in nodes.values() if isinstance(f, And)]
    assert len(conjunctions) == len({(id(f.left), id(f.right)) for f in conjunctions}) == 90
    lines = algebra.dump_lines()
    assert len(lines) == 512
    assert lines == fresh_lines(algebra)


def test_a_second_dump_returns_the_kept_lines(monkeypatch):
    """An algebra keeps its dump's lines, so a second dump renders and
    checks nothing and returns the same lines, in a list of its own."""
    algebra = generate_definable_algebra(named_pair()[0], canonical_varset(2))
    first = algebra.dump_lines()
    calls = []
    render, check = formulas._render, lattice._check_witness

    def counting_render(f, min_prec, memo):
        calls.append("render")
        return render(f, min_prec, memo)

    def counting_check(mask, witness, valuation):
        calls.append("check")
        return check(mask, witness, valuation)

    monkeypatch.setattr(formulas, "_render", counting_render)
    monkeypatch.setattr(lattice, "_render", counting_render)
    monkeypatch.setattr(lattice, "_check_witness", counting_check)
    second = algebra.dump_lines()
    assert second == first and len(first) == 512
    assert calls == []
    second[0] = "edited"
    del second[1:]
    assert algebra.dump_lines() == fresh_lines(algebra)


def test_a_dump_builds_no_member(monkeypatch):
    """A first dump checks each member's witness once through the algebra's
    valuation and builds no `DefinableSet`; a member read after it carries
    the witness the dump checked and rendered."""
    algebra = generate_definable_algebra(named_pair()[0], canonical_varset(2))
    built, checked = [], {}
    check = lattice._check_witness

    def counting_check(mask, witness, valuation):
        checked.setdefault(mask, []).append(witness)
        return check(mask, witness, valuation)

    monkeypatch.setattr(lattice, "_check_witness", counting_check)
    monkeypatch.setattr(DefinableSet, "__init__", lambda self, *args: built.append(args))
    lines = algebra.dump_lines()
    assert built == []
    assert len(lines) == len(checked) == 512
    assert all(len(witnesses) == 1 for witnesses in checked.values())
    monkeypatch.undo()
    for mask, (witness,) in checked.items():
        assert algebra.member(mask).witness is witness
    assert fresh_lines(algebra) == lines


@pytest.mark.parametrize("fail_at", [0, 200, 511])
def test_a_dump_whose_witness_fails_keeps_no_lines(monkeypatch, fail_at):
    """A witness that fails its check fails the dump, which keeps no lines,
    so the next dump checks and renders every member again."""
    algebra = generate_definable_algebra(named_pair()[0], canonical_varset(2))
    check, seen = lattice._check_witness, []

    def failing_check(mask, witness, valuation):
        seen.append(mask)
        if len(seen) > fail_at:
            raise DefinabilityError(f"refused {mask:#x}")
        return check(mask, witness, valuation)

    monkeypatch.setattr(lattice, "_check_witness", failing_check)
    with pytest.raises(DefinabilityError, match="^refused "):
        algebra.dump_lines()
    monkeypatch.undo()
    lines = algebra.dump_lines()
    assert len(lines) == 512
    assert lines == fresh_lines(algebra) == \
        generate_definable_algebra(named_pair()[0], canonical_varset(2)).dump_lines()


def test_a_dump_after_other_algebras_are_freed_matches_a_fresh_rendering():
    """A dump's texts are keyed on node identity, and an algebra keeps its
    nodes alive, so algebras built, dumped and freed beside it, whose
    identities later nodes may reuse, change neither its kept lines nor the
    dump of an algebra built after them."""
    model = named_pair()[0]
    kept = generate_definable_algebra(model, canonical_varset(2))
    kept.dump_lines()
    for _, other in all_fixtures() + seeded_models():
        for k in (1, 2):
            generate_definable_algebra(other, canonical_varset(k)).dump_lines()
    gc.collect()
    later = generate_definable_algebra(model, canonical_varset(2))
    assert later.dump_lines() == fresh_lines(later)
    assert kept.dump_lines() == fresh_lines(kept) == fresh_lines(later)


def _seed_cuts(algebra) -> int:
    """The distinct cut nodes in the split tree of a build that made no
    projection cut.  Each such cut is a seed's `Atom` or `Equal` node, and a
    block's witness reads the cut of every split above it, so the block
    witnesses hold them all."""
    seen = {}
    for mask in algebra.block_masks():
        _nodes(algebra.member(mask).witness, seen)
    return sum(isinstance(f, (Atom, Equal)) for f in seen.values())


def test_builds_that_no_projection_can_split_make_no_projection(monkeypatch):
    """Over one variable the projection of a nonempty block is the whole
    space, and a discrete partition has no block to split, so these builds
    project nothing and select no witness part: each checks every cut it
    makes once, and builds its block witnesses only when its members are
    read.  Then its members are the brute-force family, and its dump is the
    eager reference's."""
    cases = [(name, model, 1) for name, model in all_fixtures() + seeded_models()]
    cases += [("m_p", model_p(), 2), ("m_p", model_p(), 3), ("named", named_pair()[0], 2),
              ("nand", model_nand(), 3)]
    for name, model, k in cases:
        calls = {"_exists_mask": 0, "_select": 0, "_check_witness": 0}
        with monkeypatch.context() as patch:
            for called in calls:
                def counting(*args, called=called, original=getattr(lattice, called)):
                    calls[called] += 1
                    return original(*args)
                patch.setattr(lattice, called, counting)
            algebra = generate_definable_algebra(model, canonical_varset(k))
        if k > 1:
            assert len(algebra.block_masks()) == algebra.space.size, (name, k)
        assert calls == {"_exists_mask": 0, "_select": 0, "_check_witness": _seed_cuts(algebra)}, \
            (name, k)
        assert member_rows(algebra) == brute_definable_family(model, k), (name, k)
        assert algebra.dump_lines() == \
            eager_definable_algebra(model, canonical_varset(k)).dump_lines(), (name, k)


def test_union_map_matches_brute_force_or():
    """Every union of atoms goes to the union of their images, with the keys
    ascending: the member masks for the atoms themselves, and any images.
    A mask that is no union of atoms is not a key."""
    for _, model in all_fixtures():
        for k in (1, 2, 3):
            algebra = generate_definable_algebra(model, canonical_varset(k))
            atoms = algebra.block_masks()
            for images in (atoms, atoms[1:] + atoms[:1], [3 << i for i in range(len(atoms))]):
                brute = {}
                for chosen in itertools.product((False, True), repeat=len(atoms)):
                    key = value = 0
                    for keep, atom, image in zip(chosen, atoms, images):
                        if keep:
                            key, value = key | atom, value | image
                    brute[key] = value
                table = lattice.UnionMap(dict(zip(atoms, images)))
                assert dict(table.items()) == brute and table == brute
                assert list(table) == sorted(brute) == list(algebra.masks)
                assert len(table) == len(brute)
                for mask in range(1 << algebra.space.size):
                    assert (mask in table) == (mask in brute)


def test_member_is_built_on_first_use_checked_and_cached(monkeypatch):
    """A build makes no member; `member` checks the witness of a mask the
    first time it is asked, and answers with that same set after; a failed
    check leaves nothing cached.  A filter is built on its dual member."""
    built = []
    init = DefinableSet.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0].mask)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DefinableSet, "__init__", counting)
    lat = build_filter_lattice(model_neg(), canonical_varset(2))
    algebra = lat.algebra
    assert built == []
    mask = algebra.block_masks()[0] | algebra.block_masks()[-1]
    with monkeypatch.context() as patch:
        patch.setattr(lattice._Valuation, "mask", lambda self, f: 0)
        with pytest.raises(DefinabilityError):
            algebra.member(mask)
    first = algebra.member(mask)
    assert first.mask == mask and built == [mask, mask]
    assert algebra.member(mask) is first and built == [mask, mask]
    assert lat.filter_for_mask(mask).dual is first
    assert DefinableSet(first.points, first.witness).mask == mask
    with pytest.raises(DefinabilityError):
        algebra.member(algebra.block_masks()[0] | 1 << algebra.space.size)


def _corrupted_member(algebra, f):
    """Ask the algebra for a member whose witness is `f`, not the one its
    split tree gives."""
    algebra._witness = lambda mask: f
    return algebra.member(algebra.block_masks()[0])


@pytest.mark.parametrize("entry", [
    lambda f, m, two: satisfying_points(f, m, two),
    lambda f, m, two: holds_at(Point(two, (1, 0)), f, m),
    lambda f, m, two: holds_on_all(PointSet.full(enumerate_points(m, two)), f),
    lambda f, m, two: points_satisfying_all([f], m, two),
    lambda f, m, two: build_filter_lattice(m, two).bottom.member_formula(f),
    lambda f, m, two: DefinableSet(PointSet.full(enumerate_points(m, two)), f),
    lambda f, m, two: _corrupted_member(generate_definable_algebra(m, two), f),
], ids=["satisfying_points", "holds_at", "holds_on_all", "points_satisfying_all",
        "member_formula", "definable_set", "algebra_member"])
def test_every_entry_checks_a_formula_before_valuing_it(entry):
    """A formula with an undeclared relation is refused by every entry that
    values formulas: each checks through its space's valuation first."""
    m = model_p()
    undeclared = Not(Atom("Z", (Var("x1"),)))
    with pytest.raises(SignatureError, match="^unknown relation Z$"):
        entry(undeclared, m, canonical_varset(2))


def test_listings_past_the_member_bound_raise():
    """Over three variables the named pair's first model has 2^27 members:
    every listing of members, filters or degrees is a BoundError, while
    lookups and the size stay answered."""
    lat = build_filter_lattice(named_pair()[0], canonical_varset(3))
    algebra = lat.algebra
    assert len(algebra) == len(lat) == 1 << 27 > lattice.MAX_MEMBERS
    listings = [lambda: algebra.masks, lambda: algebra.members, lambda: list(algebra),
                algebra.dump_lines, lambda: lat.filters, lambda: list(lat),
                lambda: list(algebra.index), lambda: lattice_profile(lat)]
    for listing in listings:
        with pytest.raises(BoundError, match="^134217728 members exceed the bound 1048576$"):
            listing()
    top = algebra.space.full_mask
    assert algebra.member(top).mask == top and lat.bottom.mask == top


def test_listings_past_sixty_two_atoms_raise_the_bound_not_an_overflow():
    """Over six variables `m_p` has 64 atoms, so 2^64 members, a count `len`
    cannot return.  Each listing bounds that count by the atoms and raises
    the member bound's BoundError, as the lattice dump does."""
    obj = KnowledgeBase(model_p(), 6, 1).description(6)
    assert len(obj.algebra.block_masks()) == 64
    ident = Substitution.identity(obj.varset)
    listings = [lambda: obj.algebra.masks, lambda: obj.algebra.members,
                lambda: list(obj), lambda: least_desc_morphism(obj, obj, ident)]
    for listing in listings:
        with pytest.raises(BoundError,
                           match="^18446744073709551616 members exceed the bound 1048576$"):
            listing()


@pytest.mark.parametrize("build", [generate_definable_algebra, build_filter_lattice,
                                   satisfying_points, holds_at, points_satisfying_all],
                         ids=lambda fn: fn.__name__)
def test_the_geometry_is_the_only_point_bound(build):
    m = model_p()
    three = canonical_varset(3)
    first = parse_formula("P(x1)", FormulaContext(m.sig, three))
    args = {satisfying_points: (first, m, three),
            holds_at: (Point(three, (1, 0, 0)), first, m),
            points_satisfying_all: ([first], m, three)}.get(build, (m, three, None))
    with pytest.raises(TypeError):
        build(*args, max_points=4)
    with pytest.raises(TypeError):
        build(*args, 4)
    with pytest.raises(BoundError, match="8 points exceed the bound 4"):
        build(*args, geometry=Geometry(m, 4))
    assert build(*args, geometry=Geometry(m, 8))
