"""Automorphisms of the formula algebra and the bounded equivalence deciders."""

import copy
import dataclasses
import functools
import itertools
import random
from collections import Counter

import pytest

from kbgeo import (
    AdmissibilityError,
    Atom,
    BoundError,
    FormulaAutomorphism,
    FunctorIso,
    DefinableSet,
    KnowledgeBase,
    MismatchError,
    Model,
    ModelMap,
    PointSet,
    Signature,
    SignatureError,
    Substitution,
    Var,
    VERDICT_INEQUIVALENT,
    VERDICT_UNKNOWN,
    VERDICT_WITNESSED,
    build_description_iso,
    canonical_varset,
    check_automorphic_equivalence,
    check_duality,
    closure,
    check_informational_equivalence,
    check_isomorphic,
    compose_subst,
    decide_equivalence,
    enumerate_automorphisms,
    enumerate_substitutions,
    find_functor_iso,
    formula_to_text,
    generate_definable_algebra,
    lattice_profile,
    model_isomorphisms,
    parse_term,
    satisfying_points,
    term_depth,
    transport_model_iso,
    verify_push_functoriality,
)
from kbgeo import categories, equivalence, lattice, semantics
from kbgeo.categories import knowledge_base
from kbgeo.core import bijections
from kbgeo.equivalence import _atom_constraints, _is_boolean, _squares_commute
from kbgeo.lattice import UndefinablePullbackError
from test_categories import counted_builds, tampered_composite_table
from test_census import FAMILIES, all_models, census, representatives
import helpers
from helpers import (
    all_fixtures,
    atom_count_pairs,
    bounded_pairs,
    brute_atomic_classes,
    cfi_pair,
    constant_models,
    counted_pullbacks,
    constraint_classes,
    filtered_automorphisms,
    formulawise_atom_constraints,
    in_new_thread,
    memberwise_candidate_alphas,
    memberwise_description_iso,
    memberwise_is_boolean,
    memberwise_squares_commute,
    memberwise_transport_tables,
    model_eq,
    model_neg,
    model_p,
    model_p0,
    model_p_relabeled,
    model_pq1,
    model_pq2,
    map_query,
    named_pair,
    op_models,
    random_query,
    recursive_find_functor_iso,
    relabel_pairs,
    relabeled,
    relabeled_mask,
    renaming_families,
    search_find_functor_iso,
    seeded_models,
    seeded_pairs,
    swap_pairs,
    two_six_cycles,
    verify_admissibility_transfer,
)


PQ_SIG = Signature((), (("P", 1), ("Q", 1)))


def swap_pq() -> FormulaAutomorphism:
    return FormulaAutomorphism.relation_permutation(PQ_SIG, {"P": "Q", "Q": "P"})


def kbs(model1, model2, n_max: int = 2, depth: int = 2) -> tuple[KnowledgeBase, KnowledgeBase]:
    return KnowledgeBase(model1, n_max, depth), KnowledgeBase(model2, n_max, depth)


def test_automorphism_validation():
    with pytest.raises(SignatureError):
        FormulaAutomorphism.relation_permutation(PQ_SIG, {"P": "Q", "Q": "Q"})
    with pytest.raises(SignatureError):
        FormulaAutomorphism.relation_permutation(PQ_SIG, {"P": "R", "R": "P"})
    mixed = Signature((), (("P", 1), ("R", 2)))
    with pytest.raises(SignatureError):
        FormulaAutomorphism.relation_permutation(mixed, {"P": "R", "R": "P"})
    with pytest.raises(SignatureError):
        FormulaAutomorphism.variable_renaming(PQ_SIG, {2: ("x1", "x1")})


def test_automorphism_describe():
    assert FormulaAutomorphism.identity(PQ_SIG).describe() == "identity"
    assert swap_pq().describe() == "swap P Q"
    ren = FormulaAutomorphism.variable_renaming(PQ_SIG, {2: ("x2", "x1")})
    assert ren.describe() == "renamevars[2] x1:x2,x2:x1"
    assert FormulaAutomorphism.identity(PQ_SIG).is_identity
    assert not swap_pq().is_identity


def test_automorphism_maps_atoms_and_inverts():
    phi = swap_pq()
    f = Atom("P", (Var("x1"),))
    assert phi.map_formula(f, 1) == Atom("Q", (Var("x1"),))
    assert phi.inverse().map_formula(phi.map_formula(f, 1), 1) == f
    ren = FormulaAutomorphism.variable_renaming(PQ_SIG, {2: ("x2", "x1")})
    g = Atom("P", (Var("x2"),))
    assert ren.map_formula(g, 2) == Atom("P", (Var("x1"),))


def test_automorphism_conjugates_substitutions():
    m = model_neg()
    ren = FormulaAutomorphism.variable_renaming(m.sig, {2: ("x2", "x1")})
    xs = canonical_varset(2)
    s = Substitution.of(xs, xs, {
        "x1": parse_term("neg(x1)", m.sig, xs),
        "x2": parse_term("x2", m.sig, xs),
    })
    mapped = ren.map_subst(s)
    assert mapped.image_of("x2") == parse_term("neg(x2)", m.sig, xs)
    assert mapped.image_of("x1") == parse_term("x1", m.sig, xs)
    ident = FormulaAutomorphism.identity(m.sig)
    assert ident.map_subst(s) == s


def test_map_subst_is_conjugation_by_the_renamings():
    phis = enumerate_automorphisms(PQ_SIG) + renaming_families(PQ_SIG, 2)
    assert any(phi.var_images for phi in phis) and any(not phi.var_images for phi in phis)
    for a in (1, 2):
        for b in (1, 2):
            for s in enumerate_substitutions(PQ_SIG, canonical_varset(a), canonical_varset(b), 1):
                for phi in phis:
                    u_src, u_tgt = phi.renaming_for(a), phi.renaming_for(b)
                    expected = compose_subst(compose_subst(u_src.inverted(), s), u_tgt)
                    assert phi.map_subst(s) == expected
                    if not phi.var_images:
                        assert phi.map_subst(s) is s


def test_a_decision_streams_the_automorphisms(monkeypatch):
    """A 2-element self-pair with ten unary relations, Ri = {i mod 2}, has
    10! relation permutations.  The automorphic decision stops at the
    identity, its first phi, and builds no other."""
    rels = tuple((f"R{i}", 1) for i in range(1, 11))
    model = Model(Signature((), rels), (0, 1), None,
                  {name: [(i % 2,)] for i, (name, _) in enumerate(rels, 1)})
    built = []
    post_init = FormulaAutomorphism.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(FormulaAutomorphism, "__post_init__", counting)
    report = check_automorphic_equivalence(model, model, n_max=1, depth=0)
    assert report.verdict == VERDICT_WITNESSED
    assert dict(report.witness)["phi"] == "identity"
    assert len(built) == 1  # the identity alone


def test_enumerate_automorphisms_order():
    """The identity, then the arity-preserving relation permutations; no
    variable renaming, since renamings are inner.  The reference families
    are every nonidentity product of per-size permutations, each once."""
    assert [a.describe() for a in enumerate_automorphisms(PQ_SIG)] == ["identity", "swap P Q"]
    mixed = Signature((), (("P", 1), ("Q", 1), ("R", 2)))
    assert [a.describe() for a in enumerate_automorphisms(mixed)] == ["identity", "swap P Q"]
    for n_max, count in ((1, 0), (2, 1), (3, 11), (4, 287)):
        descriptions = [a.describe() for a in renaming_families(PQ_SIG, n_max)]
        assert len(descriptions) == len(set(descriptions)) == count
        assert all(d.startswith("renamevars[") for d in descriptions)


def test_the_relation_permutations_match_the_arity_filter():
    """On random signatures of up to five relations with arities 1 to 3, the
    search cut by arity gives the filtered permutations in their order,
    the identity first."""
    rng = random.Random(43)
    for _ in range(300):
        rels = tuple((f"R{i}", rng.randint(1, 3)) for i in range(rng.randint(0, 5)))
        sig = Signature((), tuple(rng.sample(rels, len(rels))))
        assert enumerate_automorphisms(sig) == filtered_automorphisms(sig), sig


def test_find_functor_iso_needs_matching_signatures():
    with pytest.raises(MismatchError):
        find_functor_iso(*kbs(model_p(), model_eq()), FormulaAutomorphism.identity(model_p().sig))


def test_find_functor_iso_identity_fails_on_swapped_relations():
    phi = FormulaAutomorphism.identity(PQ_SIG)
    assert find_functor_iso(*kbs(model_pq1(), model_pq2(), 1, 1), phi) is None


def test_find_functor_iso_swap_witnesses():
    iso = find_functor_iso(*kbs(model_pq1(), model_pq2()), swap_pq())
    assert iso is not None
    assert iso.phi.describe() == "swap P Q"
    for n, alpha in iso.alphas.items():
        assert alpha == {m: m for m in alpha}
    report = build_description_iso(iso)
    assert report.passed


def test_find_functor_iso_fails_across_different_lattices():
    phi = FormulaAutomorphism.identity(model_p().sig)
    assert find_functor_iso(*kbs(model_p(), model_p0()), phi) is None


def test_find_functor_iso_needs_saturated_lattices():
    """With terms capped at depth 0, m_neg's clone is not saturated, so its
    lattices are partial and certify nothing, not even paired with
    themselves; without the cap the same pair is witnessed."""
    phi = FormulaAutomorphism.identity(model_neg().sig)
    partial = KnowledgeBase(model_neg(), 2, 1, max_term_depth=0)
    assert not partial.saturated
    assert find_functor_iso(partial, partial, phi) is None
    full = KnowledgeBase(model_neg(), 2, 1)
    assert find_functor_iso(full, full, phi) is not None


def test_transport_model_iso():
    mmap = ModelMap(model_p(), model_p_relabeled(), ("a", "b"))
    iso = transport_model_iso(mmap, *kbs(model_p(), model_p_relabeled()))
    assert iso.phi.is_identity
    report = build_description_iso(iso)
    assert report.passed
    direct = find_functor_iso(*kbs(model_p(), model_p_relabeled()),
                              FormulaAutomorphism.identity(model_p().sig))
    assert direct is not None
    assert direct.alphas == iso.alphas


def test_search_functions_need_matching_knowledge_bases():
    with pytest.raises(MismatchError):
        find_functor_iso(KnowledgeBase(model_pq1(), 1, 2), KnowledgeBase(model_pq2(), 2, 2),
                         swap_pq())
    mmap = ModelMap(model_p(), model_p_relabeled(), ("a", "b"))
    with pytest.raises(MismatchError):
        transport_model_iso(mmap, *kbs(model_p0(), model_p_relabeled()))


@pytest.mark.parametrize("pair,kind", [((model_pq1, model_pq2), "functor isomorphism"),
                                       ((model_p, model_p_relabeled), "model isomorphism")],
                         ids=["swap", "relabel"])
@pytest.mark.parametrize("n_max", [1, 2])
def test_decision_builds_each_lattice_and_space_once(monkeypatch, pair, kind, n_max):
    algebras, spaces, members = [], [], []
    generate = lattice.generate_definable_algebra
    init = semantics.PointSpace.__init__
    member_init = DefinableSet.__init__

    def counting_generate(*args, **kwargs):
        algebras.append(args[:2])
        return generate(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        spaces.append(args[:2])
        init(self, *args, **kwargs)

    def counting_member(self, *args, **kwargs):
        members.append(args[0].mask)
        member_init(self, *args, **kwargs)

    monkeypatch.setattr(lattice, "generate_definable_algebra", counting_generate)
    monkeypatch.setattr(semantics.PointSpace, "__init__", counting_init)
    monkeypatch.setattr(DefinableSet, "__init__", counting_member)
    report = check_informational_equivalence(pair[0](), pair[1](), n_max=n_max, depth=1)
    assert report.verdict == VERDICT_WITNESSED
    assert dict(report.witness)["kind"] == kind
    assert len(algebras) == len(spaces) == 2 * n_max
    assert members == []


def test_decisions_at_three_variables():
    """The named pair has 27 atoms and 2^27 members over three variables.
    Both deciders witness it at n_max 3, depth 1: the carrier transport and
    the functor search.  Atomic formulas separate every point, so every mask
    is a member and its own closure, which the lattice answers from its atoms
    on seeded random masks."""
    first, second = named_pair()
    line = "|X|=1: 8 filters; |X|=2: 512 filters; |X|=3: 134217728 filters"
    for decide, kind in ((check_informational_equivalence, "model isomorphism"),
                         (check_automorphic_equivalence, "functor isomorphism")):
        report = decide(first, second, n_max=3, depth=1)
        assert report.verdict == VERDICT_WITNESSED
        assert dict(report.witness)["kind"] == kind
        assert dict(report.witness)["alphas"] == line
    lat = KnowledgeBase(first, 3, 1).description(3)
    assert len(lat) == 1 << 27
    with pytest.raises(BoundError, match="^134217728 members exceed the bound 1048576$"):
        lattice_profile(lat)
    classes = brute_atomic_classes(first, 3)
    assert len(classes) == 27 and all(len(rows) == 1 for rows in classes)
    algebra = lat.algebra
    assert len(algebra.block_masks()) == 27
    rng = random.Random(3)
    for _ in range(200):
        mask = rng.getrandbits(27)
        assert mask in algebra.index
        assert mask | 1 << 27 + rng.randrange(4) not in algebra.index
        assert closure(PointSet(algebra.space, mask), algebra).mask == mask


def test_decisions_past_sixty_two_atoms():
    """Three unary relations name the eight elements by their bits, so over
    two variables the lattice has 64 atoms and 2^64 members, more than `len`
    can return.  Both deciders witness the model against a relabelling and
    print the sizes from the atom counts."""
    sig = Signature((), (("P", 1), ("Q", 1), ("R", 1)))
    bits = Model(sig, tuple(range(8)), None,
                 {rel: [(i,) for i in range(8) if i >> b & 1] for b, rel in enumerate("PQR")})
    line = "|X|=1: 256 filters; |X|=2: 18446744073709551616 filters"
    for decide, kind in ((check_informational_equivalence, "model isomorphism"),
                         (check_automorphic_equivalence, "functor isomorphism")):
        report = decide(bits, relabeled(bits, (3, 0, 6, 1, 7, 2, 5, 4)), n_max=2, depth=1)
        assert report.verdict == VERDICT_WITNESSED
        assert dict(report.witness)["kind"] == kind
        assert dict(report.witness)["alphas"] == line


def test_admissibility_transfer_and_corruption():
    iso = find_functor_iso(*kbs(model_pq1(), model_pq2(), 2, 1), swap_pq())
    report = verify_admissibility_transfer(iso, n_max=1)
    assert report.passed and report.checked > 0
    bad = copy.deepcopy(iso)
    alpha = bad.alphas[1]
    masks = sorted(alpha)
    alpha[masks[0]], alpha[masks[-1]] = alpha[masks[-1]], alpha[masks[0]]
    broken = verify_admissibility_transfer(bad, n_max=1)
    assert not broken.passed
    assert len(broken.failures) >= 1
    with pytest.raises(MismatchError):
        verify_admissibility_transfer(iso, n_max=iso.n_max + 1)


CORRUPTED_FIRST_FAILURES = (
    "image of {x1 := x1} is not admissible: assignment 0x0 -> 0xf is not admissible"
    " for {x1 := x1}",
    "image of {x1 := x2} is not admissible: assignment 0x0 -> 0xf is not admissible"
    " for {x1 := x2}",
    "image of {x1 := x1, x2 := x1} is not admissible: assignment 0x0 -> 0x3 is not"
    " admissible for {x1 := x1, x2 := x1}",
)
CORRUPTED_SECOND_FAILURES = (
    "image of {x1 := x1, x2 := x1} is not admissible: assignment 0x2 -> 0xf is not"
    " admissible for {x1 := x1, x2 := x1}",
    "image of {x1 := x2, x2 := x2} is not admissible: assignment 0x2 -> 0xf is not"
    " admissible for {x1 := x2, x2 := x2}",
)


def backward_failures(lines: tuple) -> tuple:
    return tuple("backward " + line for line in lines)


@pytest.mark.parametrize("n,checked,failures", [
    (1, 35, CORRUPTED_FIRST_FAILURES + backward_failures(CORRUPTED_FIRST_FAILURES)),
    (2, 23, CORRUPTED_FIRST_FAILURES + CORRUPTED_SECOND_FAILURES
     + backward_failures(CORRUPTED_FIRST_FAILURES + CORRUPTED_SECOND_FAILURES)),
])
def test_description_functor_rejects_a_corrupted_witness(n, checked, failures):
    iso = find_functor_iso(*kbs(model_pq1(), model_pq2()), swap_pq())
    assert build_description_iso(iso).passed
    alphas = {size: dict(table) for size, table in iso.alphas.items()}
    masks = sorted(alphas[n])
    alphas[n][masks[0]], alphas[n][masks[-1]] = alphas[n][masks[-1]], alphas[n][masks[0]]
    report = build_description_iso(dataclasses.replace(iso, alphas=alphas))
    assert report.checked == checked
    assert report.failures == failures


def test_check_isomorphic():
    report = check_isomorphic(model_p(), model_p_relabeled())
    assert report.verdict == VERDICT_WITNESSED
    assert dict(report.witness)["map"] == "0->a 1->b"
    assert report.exit_code == 0
    report = check_isomorphic(model_pq1(), model_pq2())
    assert report.verdict == VERDICT_INEQUIVALENT
    assert report.exit_code == 1
    with pytest.raises(MismatchError):
        check_isomorphic(model_p(), model_eq())


def test_informational_equivalence_of_swapped_relations():
    report = check_informational_equivalence(model_pq1(), model_pq2())
    assert report.verdict == VERDICT_WITNESSED
    witness = dict(report.witness)
    assert witness["phi"] == "swap P Q"
    assert witness["kind"] == "functor isomorphism"
    assert report.exit_code == 0


def test_informational_equivalence_refutes_via_lattice_size():
    report = check_informational_equivalence(model_p(), model_p0(), n_max=1)
    assert report.verdict == VERDICT_INEQUIVALENT
    refutation = dict(report.refutation)
    assert refutation["values"] == "4 vs 2 at |X|=1"
    assert refutation["summary"] == "lattice size 4 vs 2 at X={x1}"
    assert report.exit_code == 1


def test_informational_equivalence_uses_model_iso_fast_path():
    report = check_informational_equivalence(model_p(), model_p_relabeled())
    assert report.verdict == VERDICT_WITNESSED
    witness = dict(report.witness)
    assert witness["kind"] == "model isomorphism"
    assert witness["phi"] == "identity"


def test_pinned_identity_stays_unknown():
    phi = FormulaAutomorphism.identity(PQ_SIG)
    report = check_automorphic_equivalence(model_pq1(), model_pq2(), [phi])
    assert report.verdict == VERDICT_UNKNOWN
    assert report.exit_code == 2
    report = check_automorphic_equivalence(model_pq1(), model_pq2(), [swap_pq()])
    assert report.verdict == VERDICT_WITNESSED


def test_automorphic_equivalence_enumerates():
    report = check_automorphic_equivalence(model_pq1(), model_pq2())
    assert report.verdict == VERDICT_WITNESSED
    assert dict(report.witness)["phi"] == "swap P Q"


def test_reports_are_deterministic():
    first = check_informational_equivalence(model_pq1(), model_pq2())
    second = check_informational_equivalence(model_pq1(), model_pq2())
    assert first == second
    ref1 = check_informational_equivalence(model_p(), model_p0(), n_max=1)
    ref2 = check_informational_equivalence(model_p(), model_p0(), n_max=1)
    assert ref1 == ref2


def test_self_equivalence_via_identity():
    report = check_informational_equivalence(model_neg(), model_neg())
    assert report.verdict == VERDICT_WITNESSED
    assert dict(report.witness)["phi"] == "identity"


def test_informational_equivalence_needs_a_variable():
    with pytest.raises(MismatchError, match="n_max must be at least 1"):
        check_informational_equivalence(model_p(), model_p_relabeled(), n_max=0)


def test_automorphic_equivalence_needs_a_variable():
    with pytest.raises(MismatchError, match="n_max must be at least 1"):
        check_automorphic_equivalence(model_pq1(), model_pq2(), n_max=0)


def test_the_knowledge_base_bounds_every_path():
    """The point bound lives on the knowledge base: both sweeps and both
    decisions stop at its first space past it, m_p over two variables."""
    def kb():
        return KnowledgeBase(model_p(), 2, 1, None, 3)
    runs = (lambda: kb().check_duality(), lambda: kb().verify_push_functoriality(),
            lambda: decide_equivalence(kb(), kb()),
            lambda: decide_equivalence(kb(), kb(), mode="automorphic"))
    for run in runs:
        with pytest.raises(BoundError, match="^4 points exceed the bound 3$"):
            run()


def test_a_decision_needs_equal_object_ranges():
    with pytest.raises(MismatchError, match="knowledge bases have different n_max"):
        decide_equivalence(KnowledgeBase(model_p(), 1, 1), KnowledgeBase(model_p(), 2, 1))


def test_the_searches_need_equal_depths():
    """The depth is a bound of each knowledge base: the decider in both
    modes, the functor search and the carrier transport refuse two whose
    depths differ."""
    deep, shallow = KnowledgeBase(model_p(), 2, 2), KnowledgeBase(model_p_relabeled(), 2, 1)
    mmap = ModelMap(model_p(), model_p_relabeled(), ("a", "b"))
    runs = (lambda: decide_equivalence(deep, shallow),
            lambda: decide_equivalence(deep, shallow, mode="automorphic"),
            lambda: find_functor_iso(deep, shallow, FormulaAutomorphism.identity(model_p().sig)),
            lambda: transport_model_iso(mmap, deep, shallow))
    for run in runs:
        with pytest.raises(MismatchError, match="^knowledge bases have different depths$"):
            run()


@pytest.mark.parametrize("n_max", [1, 2])
def test_a_pinned_phi_skips_the_carrier_path_in_the_library(n_max):
    """`check_informational_equivalence` with pinned phis searches those phis
    alone, as `equiv --phi` does.  The relabelled `m_pq1` has a carrier
    witness unpinned; under the identity a functor isomorphism witnesses it,
    and under the swap of P and Q nothing does."""
    model = model_pq1()
    image = relabeled(model, (1, 0))
    report = check_informational_equivalence(model, image, n_max=n_max)
    assert dict(report.witness)["kind"] == "model isomorphism"
    identity = FormulaAutomorphism.identity(model.sig)
    report = check_informational_equivalence(model, image, n_max=n_max, phis=[identity])
    assert report.verdict == VERDICT_WITNESSED and report.mode == "informational"
    assert dict(report.witness)["kind"] == "functor isomorphism"
    assert dict(report.witness)["phi"] == "identity"
    report = check_informational_equivalence(model, image, n_max=n_max, phis=[swap_pq()])
    assert report.verdict == VERDICT_UNKNOWN and report.witness is None


def test_admissibility_transfer_needs_a_variable():
    iso = find_functor_iso(*kbs(model_pq1(), model_pq2(), 1, 1), swap_pq())
    with pytest.raises(MismatchError, match="n_max must be at least 1"):
        verify_admissibility_transfer(iso, n_max=0)


UNDEFINABLE_NOTES = {
    "r0": "witness search stopped: pullback 0x1 of 0x1 along {x1 := x1, x2 := x1}"
          " is not definable over {x1}",
    "r2": "witness search stopped: pullback 0x2 of 0x10 along {x1 := x1, x2 := x1}"
          " is not definable over {x1}",
}


@pytest.mark.parametrize("name,model", seeded_models())
def test_undefinable_pullback_gives_unknown(name, model):
    reports = (check_informational_equivalence(model, model, n_max=2, depth=1),
               check_automorphic_equivalence(model, model, n_max=2, depth=1))
    for report in reports:
        if name in UNDEFINABLE_NOTES:
            assert report.verdict == VERDICT_UNKNOWN
            assert report.exit_code == 2
            assert "is not definable over {x1}" in report.notes[-1]
            assert "pullback 0x" in report.notes[-1]
            assert report.notes[-1] == UNDEFINABLE_NOTES[name]
        else:
            assert report.verdict == VERDICT_WITNESSED


def decider_pairs() -> list:
    """(label, model1, model2, n_max, depth): every same-signature ordered pair
    of the fixtures and the relabelled P model at the deciders' default
    bounds, the seeded self-pairs, and the seeded relabel and swap pairs."""
    fixtures = all_fixtures() + [("m_p_relabeled", model_p_relabeled())]
    out = [(f"{n1} {n2}", m1, m2, 2, 2)
           for (n1, m1), (n2, m2) in itertools.product(fixtures, repeat=2) if m1.sig == m2.sig]
    out += [(f"{name} self", m, m, 2, 1) for name, m in seeded_models()]
    out += [(label, m1, m2, 2, 2) for label, m1, m2 in seeded_pairs()]
    return out


def outcome(fn, *args):
    """The result of a call, or the text of the undefinable pullback it raised."""
    try:
        return fn(*args)
    except UndefinablePullbackError as exc:
        return f"raised: {exc}"


def rotated(iso: FunctorIso, n: int) -> FunctorIso:
    """The witness with its atom images over size n rotated by one: still a
    Boolean isomorphism, but no longer natural when the atoms differ."""
    algebra = iso.kb1.description(n).algebra
    atoms = algebra.block_masks()
    images = [iso.alphas[n][a] for a in atoms]
    images = images[1:] + images[:1]
    table = {mask: sum(c for a, c in zip(atoms, images) if a & mask == a)
             for mask in algebra.masks}
    return dataclasses.replace(iso, alphas={**iso.alphas, n: table})


def reported_witnesses(kb1: KnowledgeBase, kb2: KnowledgeBase) -> list:
    """The witnesses the two deciders report on a pair, each once: the
    transported first carrier isomorphism and the first automorphism's
    functor isomorphism.  A search stopped by an undefinable pullback gives
    its error text instead."""
    out = []
    mmap = next(model_isomorphisms(kb1.model, kb2.model), None)
    if mmap is not None:
        out.append(outcome(transport_model_iso, mmap, kb1, kb2))
    for phi in enumerate_automorphisms(kb1.model.sig):
        iso = outcome(find_functor_iso, kb1, kb2, phi)
        if iso is not None:
            out.append(iso)
            break
    return [iso for i, iso in enumerate(out)
            if not isinstance(iso, FunctorIso) or not any(
                isinstance(o, FunctorIso) and (o.phi, o.alphas) == (iso.phi, iso.alphas)
                for o in out[:i])]


def test_atom_path_matches_the_member_loops():
    """Each witness the deciders report on these pairs gets the member-wise
    description functor report field for field.  So do its rotations and the
    first variable renaming's witness, on pairs without operations, where
    the member loops stay fast.  An identity family whose pullbacks are not
    definable raises the same error.  Every candidate alpha gets the
    member-wise verdict on every naturality square, accepted, rejected or
    raising."""
    witnesses = renamed = failing = raised = 0
    square_outcomes = set()
    for label, m1, m2, n_max, depth in decider_pairs():
        kb1, kb2 = kbs(m1, m2, n_max, depth)
        sizes = range(1, n_max + 1)
        phis = enumerate_automorphisms(m1.sig) + renaming_families(m1.sig, n_max)
        isos = reported_witnesses(kb1, kb2)
        if not m1.sig.ops:
            renaming = next(phi for phi in phis if phi.var_images)
            isos.append(outcome(find_functor_iso, kb1, kb2, renaming))
        if m1 is m2 and not any(isinstance(iso, FunctorIso) for iso in isos):
            identity = {n: {m: m for m in kb1.description(n).algebra.masks}
                        for n in sizes}
            isos.append(FunctorIso(phis[0], identity, kb1, kb2))
        for iso in isos:
            if not isinstance(iso, FunctorIso):
                continue
            assert _is_boolean(iso), label
            witnesses += 1
            renamed += bool(iso.phi.var_images)
            variants = [iso] + ([rotated(iso, n) for n in sizes] if not m1.sig.ops else [])
            for variant in variants:
                report = outcome(build_description_iso, variant)
                assert report == outcome(memberwise_description_iso, variant), label
                raised += isinstance(report, str)
                failing += not isinstance(report, str) and not report.passed

        for phi in phis:
            candidates = {}
            for n in sizes:
                lat1, lat2 = kb1.description(n), kb2.description(n)
                constraints = _atom_constraints(kb1, kb2, phi, n)
                if len(lat1) != len(lat2) or constraints is None:
                    break
                classes = constraint_classes(lat1, lat2, constraints)
                candidates[n] = ([] if classes is None
                                 else list(map(lattice.UnionMap, bijections(classes))))
            for a, b in itertools.product(candidates, repeat=2):
                for alpha_a, alpha_b in itertools.product(candidates[a], candidates[b]):
                    if a == b and alpha_a is not alpha_b:
                        continue
                    args = ({a: alpha_a, b: alpha_b}, phi, kb1, kb2, a, b)
                    result = outcome(_squares_commute, *args)
                    assert result == outcome(memberwise_squares_commute, *args), label
                    square_outcomes.add(result if isinstance(result, bool) else "raised")
    assert witnesses > 0 and renamed > 0 and failing > 0 and raised > 0
    assert square_outcomes == {True, False, "raised"}


def corrupted(iso: FunctorIso, n: int) -> list:
    """The witness with the images of its first and last members over size n
    swapped, with its second member sent where its first goes, and without
    size n."""
    table = iso.alphas[n]
    masks = sorted(table)
    swapped = {**table, masks[0]: table[masks[-1]], masks[-1]: table[masks[0]]}
    merged = {**table, masks[1]: table[masks[0]]}
    missing = {size: alpha for size, alpha in iso.alphas.items() if size != n}
    return [dataclasses.replace(iso, alphas=alphas)
            for alphas in ({**iso.alphas, n: swapped}, {**iso.alphas, n: merged}, missing)]


def test_an_alpha_that_is_not_injective_is_refused():
    """An alpha that sends two members to one mask has no inverse, and both
    description functors refuse it before any transport: a member table with
    two equal images, or a `UnionMap` whose atom images meet or are empty."""
    iso = find_functor_iso(*kbs(model_pq1(), model_pq2()), swap_pq())
    for n in (1, 2):
        atoms = iso.alphas[n].atoms
        first, second = list(atoms)[:2]
        variants = [corrupted(iso, n)[1]]
        variants += [dataclasses.replace(iso, alphas={**iso.alphas, n: lattice.UnionMap(table)})
                     for table in ({**atoms, second: atoms[first]}, {**atoms, first: 0})]
        for variant, build in itertools.product(variants, (build_description_iso,
                                                           memberwise_description_iso)):
            with pytest.raises(MismatchError, match=rf"^alpha over \|X\|={n} is not injective$"):
                build(variant)


def items(table: dict) -> list:
    return list(table.items())


CAPS_DIFFER = "knowledge bases have different term depth caps"


def test_atom_tables_match_the_member_loops():
    """The alphas extended from atom images equal the member loops' tables,
    key order included: every candidate of every automorphism, and the
    carrier transport of every model isomorphism, which refuses a coarser
    lattice as the second: its term depth cap differs.  The Boolean check
    agrees with the member-wise induction on the reported witnesses, their
    rotations and their corruptions."""
    fixtures = all_fixtures() + [("m_p_relabeled", model_p_relabeled())]
    pairs = [(m1, m2) for (_, m1), (_, m2) in itertools.product(fixtures, repeat=2)
             if m1.sig == m2.sig]
    pairs += [(m1, m2) for _, m1, m2 in seeded_pairs()]
    cycle = Model(Signature((("f", 1),), (("P", 1),), False), (0, 1, 2),
                  {"f": {(0,): 1, (1,): 2, (2,): 0}}, {"P": [(0,)]})
    coarse = [(KnowledgeBase(cycle, 1, 2), KnowledgeBase(cycle, 1, 2, max_term_depth=0))]
    transported = mismatched = candidates = 0
    booleans = set()
    for (m1, m2), n_max in itertools.product(pairs, (1, 2)):
        kb1, kb2 = kbs(m1, m2, n_max, 2)
        sizes = range(1, n_max + 1)
        for phi in enumerate_automorphisms(m1.sig) + renaming_families(m1.sig, n_max):
            for n in sizes:
                lat1, lat2 = kb1.description(n), kb2.description(n)
                constraints = _atom_constraints(kb1, kb2, phi, n)
                if constraints is None:
                    continue
                classes = constraint_classes(lat1, lat2, constraints)
                new = [] if classes is None else [items(lattice.UnionMap(mapping))
                                                  for mapping in bijections(classes)]
                assert new == list(map(items, memberwise_candidate_alphas(lat1, lat2,
                                                                          constraints)))
                candidates += len(new)
        for iso in reported_witnesses(kb1, kb2):
            if isinstance(iso, FunctorIso):
                variants = [iso] + [rotated(iso, n) for n in sizes]
                variants += [bad for n in sizes for bad in corrupted(iso, n)]
                for variant in variants:
                    assert _is_boolean(variant) == memberwise_is_boolean(variant)
                    booleans.add(_is_boolean(variant))
        coarse.append((kb1, kb2))
    for kb1, kb2 in coarse:
        for mmap in model_isomorphisms(kb1.model, kb2.model):
            if kb1.max_term_depth != kb2.max_term_depth:
                with pytest.raises(MismatchError, match=f"^{CAPS_DIFFER}$"):
                    transport_model_iso(mmap, kb1, kb2)
                mismatched += 1
                continue
            try:
                alphas = transport_model_iso(mmap, kb1, kb2).alphas
            except UndefinablePullbackError:
                continue
            oracle = memberwise_transport_tables(mmap, kb1, kb2)
            assert {n: items(t) for n, t in alphas.items()} == \
                {n: items(t) for n, t in oracle.items()}
            transported += 1
    assert transported > 0 and mismatched > 0 and candidates > 0
    assert booleans == {True, False}


def carrier_transport_cases() -> list:
    """(label, model1, model2, n_max, depth, cap): the decider pairs, and the
    seeded self-pairs at n_max 1 and 2, depth 0 to 2 and the term depth caps
    None, 0 and 1, the same cap on both sides."""
    out = [(label, m1, m2, n_max, depth, None) for label, m1, m2, n_max, depth in decider_pairs()]
    out += [(f"{name} self {bounds}", m, m, *bounds) for name, m in seeded_models()
            for bounds in itertools.product((1, 2), (0, 1, 2), (None, 0, 1))]
    return out


def test_the_carrier_transport_checks_only_what_can_fail():
    """Every carrier transport meets the checks it no longer makes.  Its atom
    constraints pair each mask with its relabelling; its alphas are the
    member loops' relabelling, and Boolean; and every naturality square
    commutes, up to the first undefinable pullback in the transport's
    order, which is the one the transport raises on.  On fresh knowledge
    bases it builds neither a lattice nor a pullback table of the second."""
    counts = {"witnessed": 0, "raised": 0}
    for label, m1, m2, n_max, depth, cap in carrier_transport_cases():
        sizes = range(1, n_max + 1)
        phi = FormulaAutomorphism.identity(m1.sig)
        for mmap in model_isomorphisms(m1, m2):
            kb1, kb2 = KnowledgeBase(m1, n_max, depth, cap), KnowledgeBase(m2, n_max, depth, cap)
            iso = outcome(transport_model_iso, mmap, kb1, kb2)
            assert not kb2.geometry.frame.tables and not kb2._descriptions, label
            for n in sizes:
                spaces = [kb.geometry.space(canonical_varset(n)) for kb in (kb1, kb2)]
                constraints = _atom_constraints(kb1, kb2, phi, n)
                assert constraints is not None, label
                assert all(relabeled_mask(mmap, *spaces, a) == b for a, b in constraints), label
            oracle = memberwise_transport_tables(mmap, kb1, kb2)
            squares = [outcome(_squares_commute, oracle, phi, kb1, kb2, a, b)
                       for a, b in itertools.product(sizes, repeat=2)]
            if isinstance(iso, str):
                assert next(square for square in squares if square is not True) == iso, label
                counts["raised"] += 1
                continue
            assert all(square is True for square in squares), label
            assert {n: items(t) for n, t in iso.alphas.items()} == \
                {n: items(t) for n, t in oracle.items()}, label
            assert _is_boolean(iso), label
            counts["witnessed"] += 1
    assert all(counts.values()), counts


def test_the_carrier_transport_refuses_unequal_term_depth_caps():
    """The seeded `fp0` model over one variable has 2 atoms with the term
    depth capped at 0 and 3 without a cap.  Relabelled, the capped atoms are
    unions of the others, not atoms, so the family a transport between the
    two would report is not Boolean: the transport refuses the pair."""
    model = dict(seeded_models())["fp0"]
    kb1, kb2 = KnowledgeBase(model, 1, 0, 0), KnowledgeBase(model, 1, 0)
    mmap = next(model_isomorphisms(model, model))
    with pytest.raises(MismatchError, match=f"^{CAPS_DIFFER}$"):
        transport_model_iso(mmap, kb1, kb2)
    assert [len(kb.description(1).algebra.block_masks()) for kb in (kb1, kb2)] == [2, 3]
    family = FunctorIso(FormulaAutomorphism.identity(model.sig),
                        memberwise_transport_tables(mmap, kb1, kb2), kb1, kb2)
    assert not _is_boolean(family)


def relabelling_verdicts(n_max: int) -> set:
    """Each relabelling pair at (n_max, 1), checked as the docstring of
    `test_a_carrier_relabelling_is_never_refuted` says: the set of
    informational verdicts."""
    verdicts = set()
    for label, model, image in relabel_pairs():
        informational, automorphic = (decide(model, image, n_max=n_max, depth=1) for decide in
                                      (check_informational_equivalence,
                                       check_automorphic_equivalence))
        assert automorphic == check_automorphic_equivalence(model, model, n_max=n_max, depth=1)
        assert VERDICT_INEQUIVALENT not in (informational.verdict, automorphic.verdict), label
        if informational.verdict == VERDICT_WITNESSED:
            assert dict(informational.witness)["kind"] == "model isomorphism", label
        else:
            own = check_informational_equivalence(model, model, n_max=n_max, depth=1)
            assert (informational.verdict, own.verdict) == (VERDICT_UNKNOWN,) * 2, label
            assert informational.notes[-1] == own.notes[-1], label
        verdicts.add(informational.verdict)
    return verdicts


def swap_verdicts(n_max: int) -> list:
    """Each swap pair at (n_max, 1), checked as the docstring of
    `test_a_relation_swap_is_never_refuted` says: the automorphic verdicts
    under phi = swap P Q."""
    verdicts = []
    for label, model, image in swap_pairs():
        swap = FormulaAutomorphism.relation_permutation(model.sig, {"P": "Q", "Q": "P"})
        identity = FormulaAutomorphism.identity(model.sig)
        informational = check_informational_equivalence(model, image, n_max=n_max, depth=1)
        automorphic = check_automorphic_equivalence(model, image, [swap], n_max=n_max, depth=1)
        own = check_automorphic_equivalence(model, model, [identity], n_max=n_max, depth=1)
        assert VERDICT_INEQUIVALENT not in (informational.verdict, automorphic.verdict), label
        assert (automorphic.verdict, automorphic.notes) == (own.verdict, own.notes), label
        if automorphic.verdict == VERDICT_WITNESSED:
            assert dict(automorphic.witness)["phi"] == "swap P Q", label
        verdicts.append(automorphic.verdict)
    return verdicts


def test_a_carrier_relabelling_is_never_refuted():
    """Each generated model against its relabelling: neither decider refutes
    it.  The informational decider gives the carrier witness, or stops at
    the undefinable pullback of the model's own self-pair, with its note;
    the automorphic decider gives the self-pair's report, since the
    relabelling carries its search tree onto the self-pair's."""
    assert relabelling_verdicts(2) == {VERDICT_WITNESSED, VERDICT_UNKNOWN}


def test_a_relation_swap_is_never_refuted():
    """Each model paired with its P/Q swap.  Neither decider refutes the
    pair.  The automorphic decider under phi = swap P Q gives the self-pair's
    verdict and notes under the identity, since the swap carries the
    self-pair's atom constraints and squares onto the pair's, and each
    witness it reports names that phi."""
    verdicts = swap_verdicts(2)
    assert verdicts.count(VERDICT_WITNESSED) > len(verdicts) // 2


def test_relabellings_and_swaps_decide_over_three_variables():
    """The relabelling and swap pairs at (3, 1) keep the relations they have
    at (2, 1).  Over three variables a search that held every block
    bijection could not finish: `relabel10`'s automorphic search alone would
    list 11,943,936 of them before its first square.  Each phi has one
    candidate and the phis stream, so each decision stops at its first
    witness or undefinable pullback."""
    assert relabelling_verdicts(3) == {VERDICT_WITNESSED, VERDICT_UNKNOWN}
    verdicts = swap_verdicts(3)
    assert verdicts.count(VERDICT_WITNESSED) > len(verdicts) // 2


def test_different_atom_counts_are_refuted():
    """Each generated pair whose algebras have different atom counts over one
    or two variables: both deciders refute it by lattice size, at the first
    variable count where the sizes differ, with the sizes the algebras
    give."""
    for label, model, other in atom_count_pairs():
        sizes = [[generate_definable_algebra(m, canonical_varset(n)).size for n in (1, 2)]
                 for m in (model, other)]
        n = 1 if sizes[0][0] != sizes[1][0] else 2
        for decide in (check_informational_equivalence, check_automorphic_equivalence):
            report = decide(model, other, n_max=2, depth=1)
            assert report.verdict == VERDICT_INEQUIVALENT, label
            refutation = dict(report.refutation)
            assert refutation["invariant"] == "lattice size", label
            assert (refutation["var_count"], refutation["left"], refutation["right"]) == \
                (str(n), str(sizes[0][n - 1]), str(sizes[1][n - 1])), label


DECIDERS = (check_informational_equivalence, check_automorphic_equivalence)


def generated_pairs() -> list:
    """The drawn relabelling, swap and atom-count pairs, every ordered pair
    of fixtures with equal signatures, self-pairs included, and the two
    seeded pairs."""
    fixtures = all_fixtures()
    same_signature = [(f"{name1} {name2}", m1, m2)
                      for (name1, m1), (name2, m2) in itertools.product(fixtures, repeat=2)
                      if m1.sig == m2.sig]
    return relabel_pairs() + swap_pairs() + atom_count_pairs() + same_signature + seeded_pairs()


def searches(model1: Model, model2: Model) -> list:
    """At (2, 1), the search of each default phi, then the carrier transport
    of the first model isomorphism, if any: each as its alphas' atom images,
    None, or the text of the pullback it raised on."""
    kb1, kb2 = kbs(model1, model2, 2, 1)
    calls = [(find_functor_iso, kb1, kb2, phi) for phi in enumerate_automorphisms(model1.sig)]
    calls += [(transport_model_iso, mmap, kb1, kb2)
              for mmap in itertools.islice(model_isomorphisms(model1, model2), 1)]
    out = []
    for call in calls:
        iso = outcome(*call)
        out.append({n: a.atoms for n, a in iso.alphas.items()} if isinstance(iso, FunctorIso)
                   else iso)
    return out


def test_generator_squares_decide_as_every_bounded_square(monkeypatch):
    """On the generated pairs at (2, 1), checking the first model's
    generators gives what walking every bounded substitution gives, with
    `KnowledgeBase.generators` forced to None: equal reports from both
    deciders, verdict, witness and notes, and from every search the same
    alphas, the same None or the same raise.  Both paths are taken, and
    every verdict occurs."""
    pairs = generated_pairs()
    generators = KnowledgeBase.generators.func
    taken = set()

    def recording(kb):
        gens = generators(kb)
        taken.add(gens is not None)
        return gens

    recorded = functools.cached_property(recording)
    recorded.__set_name__(KnowledgeBase, "generators")

    def run() -> list:
        return [([decide(m1, m2, n_max=2, depth=1) for decide in DECIDERS], searches(m1, m2))
                for _, m1, m2 in pairs]

    monkeypatch.setattr(KnowledgeBase, "generators", recorded)
    fast = run()
    monkeypatch.setattr(KnowledgeBase, "generators", property(lambda kb: None))
    full = run()
    for (label, _, _), left, right in zip(pairs, fast, full):
        assert left == right, label
    assert taken == {True, False}
    assert {report.verdict for reports, _ in full for report in reports} == \
        {VERDICT_WITNESSED, VERDICT_INEQUIVALENT, VERDICT_UNKNOWN}


@pytest.mark.parametrize("bounded", [False, True])
def test_a_decision_is_symmetric(monkeypatch, bounded):
    """decide(A, B) and decide(B, A) give the same verdict from both
    deciders on the generated pairs at (2, 1), with the generators and with
    every bounded substitution.  A search stops on an undefinable pullback
    of its first model only, but when a pair is witnessed the second
    model's pullbacks are members too."""
    if bounded:
        monkeypatch.setattr(KnowledgeBase, "generators", property(lambda kb: None))
    for label, m1, m2 in generated_pairs():
        for decide in DECIDERS:
            there, back = decide(m1, m2, n_max=2, depth=1), decide(m2, m1, n_max=2, depth=1)
            assert there.verdict == back.verdict, label


def test_transport_relabels_each_point_once(monkeypatch):
    calls = []
    apply_values = ModelMap.apply_values

    def counting(self, values):
        calls.append(values)
        return apply_values(self, values)

    monkeypatch.setattr(ModelMap, "apply_values", counting)
    mmap = ModelMap(model_p(), model_p_relabeled(), ("a", "b"))
    transport_model_iso(mmap, *kbs(model_p(), model_p_relabeled()))
    assert sorted(calls) == sorted([(a,) for a in (0, 1)]
                                   + list(itertools.product((0, 1), repeat=2)))


def test_a_carrier_transport_along_generators_walks_no_pullback(monkeypatch):
    """A carrier decision on a unary-op pair whose first model has
    generators calls `DefinableAlgebra.pullback` nowhere inside the
    transport: `KnowledgeBase.generators` has already found those pullbacks
    members.  Without generators the transport walks them."""
    pullback = lattice.DefinableAlgebra.pullback
    transport = equivalence.transport_model_iso
    calls: list[int] = []
    inside = []

    def counting(self, table, mask):
        if inside:
            calls.append(mask)
        return pullback(self, table, mask)

    def recording(*args):
        inside.append(True)
        try:
            return transport(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(lattice.DefinableAlgebra, "pullback", counting)
    monkeypatch.setattr(equivalence, "transport_model_iso", recording)
    model1, model2 = model_neg(), relabeled(model_neg(), (1, 0))
    pair = kbs(model1, model2, 2, 1)
    report = decide_equivalence(*pair)
    assert pair[0].generators is not None
    assert report.verdict == VERDICT_WITNESSED
    assert dict(report.witness)["kind"] == "model isomorphism"
    assert calls == []
    monkeypatch.setattr(KnowledgeBase, "generators", property(lambda kb: None))
    assert decide_equivalence(*kbs(model1, model2, 2, 1)).verdict == VERDICT_WITNESSED
    assert calls


def test_a_tampered_composite_fails_the_functor_as_the_member_loops_do():
    """A composite's table in either model of a relabelling pair sends the
    first and last points' images to every point, so two atom pairs along
    the composite are not admissible, in the model the composite was checked
    in or in its image.  The composite loop raises on the first of them, in
    the first model's atom order, with the text of the member loops."""
    def raised(fn, iso):
        try:
            return outcome(fn, iso)
        except AdmissibilityError as exc:
            return f"not admissible: {exc}"

    swapped_neg = relabeled(model_neg(), (1, 0))
    texts = []
    for side in (0, 1):
        kbs = (KnowledgeBase(model_neg(), 2, 1), KnowledgeBase(swapped_neg, 2, 1))
        iso = transport_model_iso(next(model_isomorphisms(*(kb.model for kb in kbs))), *kbs)
        assert build_description_iso(iso).passed
        table = tampered_composite_table(kbs[side])
        table.bits[0] = table.bits[-1] = (1 << len(table.fibers)) - 1
        table.images.clear()
        texts.append(raised(build_description_iso, iso))
        assert texts[-1] == raised(memberwise_description_iso, iso)
    assert texts == [f"not admissible: assignment {mask} -> {mask} is not admissible"
                     " for {x1 := neg(neg(x1)), x2 := x2}" for mask in ("0x1", "0x8")]


def test_the_witness_search_backtracks_past_a_failed_square(monkeypatch):
    """On this 3-element self-pair, with x1 and x2 swapped over two variables,
    candidate alphas fail naturality squares during the block-bijection
    search (`search_find_functor_iso`), which drops them and goes on, and a
    witness still comes back.  The formula-induced map is a witness too, and
    its description functor report is the member loops' report, over 2^9
    members."""
    sig = Signature((("f", 1),), (("P", 1), ("Q", 1)))
    model = Model(sig, (0, 1, 2), {"f": {(0,): 1, (1,): 0, (2,): 0}},
                  {"P": [], "Q": [(0,)]})
    phi = FormulaAutomorphism.variable_renaming(sig, {2: ("x2", "x1")})
    assert phi.describe() == "renamevars[2] x1:x2,x2:x1"
    squares = []

    def recording(*args):
        squares.append(_squares_commute(*args))
        return squares[-1]

    monkeypatch.setattr(helpers, "_squares_commute", recording)
    kb = KnowledgeBase(model, 2, 1)
    assert search_find_functor_iso(kb, kb, phi) is not None and False in squares
    iso = find_functor_iso(kb, kb, phi)
    assert iso is not None
    assert build_description_iso(iso) == memberwise_description_iso(iso)


def exhaustion_pair() -> tuple[Model, Model]:
    """A constant f = 1 against f swapping 0 and 2, both with P everywhere."""
    sig = Signature((("f", 1),), (("P", 1),))
    everywhere = {"P": [(0,), (1,), (2,)]}
    return (Model(sig, (0, 1, 2), {"f": {(0,): 1, (1,): 1, (2,): 1}}, everywhere),
            Model(sig, (0, 1, 2), {"f": {(0,): 2, (1,): 1, (2,): 0}}, everywhere))


def test_the_witness_search_runs_out_of_candidates():
    """The exhaustion pair: over one variable the lattice sizes and the
    constraint classes agree, so the identity has one block bijection, and
    it fails the square along x1 := f(x1): the preimage of {1} is the whole
    carrier in the first model and {1} in the second.  Neither the search
    nor the block-bijection search finds a witness, and both modes decide
    UNKNOWN with the class note alone."""
    fc, fi = exhaustion_pair()
    sig = fc.sig
    kb1, kb2 = kbs(fc, fi, 1, 1)
    phi = FormulaAutomorphism.identity(sig)
    lat1, lat2 = kb1.description(1), kb2.description(1)
    assert len(lat1) == len(lat2) == 4
    classes = constraint_classes(lat1, lat2, _atom_constraints(kb1, kb2, phi, 1))
    [candidate] = map(lattice.UnionMap, bijections(classes))
    assert not _squares_commute({1: candidate}, phi, kb1, kb2, 1, 1)
    x1 = canonical_varset(1)
    step = Substitution(x1, x1, (parse_term("f(x1)", sig, x1),))
    assert kb1.geometry.table(step).preimage(0b010) == 0b111
    assert kb2.geometry.table(step).preimage(0b010) == 0b010
    assert find_functor_iso(kb1, kb2, phi) is None is search_find_functor_iso(kb1, kb2, phi)
    for decide in (check_informational_equivalence, check_automorphic_equivalence):
        report = decide(fc, fi, n_max=1, depth=1)
        assert report.verdict == VERDICT_UNKNOWN
        assert report.notes == (
            "supported automorphism class: relation permutations and variable renamings",)


def supported_phis(sig: Signature, n_max: int) -> list:
    """Every relation permutation, alone and with each variable renaming
    family."""
    relations = enumerate_automorphisms(sig)
    return relations + [FormulaAutomorphism(sig, r.rel_images, f.var_images)
                        for r in relations for f in renaming_families(sig, n_max)]


def test_one_bijections_run_matches_the_recursion_over_sizes(monkeypatch):
    """The block-bijection search (`search_find_functor_iso`) gives what
    the recursion over the sizes gave (`recursive_find_functor_iso`): None,
    the same error text, or the same atom images per size.  It checks the
    same squares on the same atom images in the same order, with the same
    results, so it visits the same candidates.  It makes one `bijections`
    call when the size, constraint and class checks pass, and none
    otherwise; the recursion opens a stream per candidate of the size
    below.  The corpus is every ordered pair of
    each census family's representatives at (2, 1), the seeded and bounded
    pairs at n_max 1 and 2, the K3 CFI pair at n_max 1 and 2, and the
    exhaustion pair, each under every supported automorphism."""
    cases = []
    for _, size, ops, rels in FAMILIES:
        reps = [KnowledgeBase(m, 2, 1) for m in representatives(all_models(size, ops, rels))]
        cases += itertools.product(reps, repeat=2)
    for (_, m1, m2), n_max in itertools.product(seeded_pairs() + bounded_pairs(), (1, 2)):
        cases.append(kbs(m1, m2, n_max, 1))
    cases += [kbs(*cfi_pair([(0, 1), (0, 2), (1, 2)]), n_max, 0) for n_max in (1, 2)]
    cases.append(kbs(*exhaustion_pair(), 1, 1))

    squares, streams = [], []

    def recording(alphas, phi, kb1, kb2, source_n, target_n):
        args = (source_n, target_n, items(alphas[source_n].atoms), items(alphas[target_n].atoms))
        try:
            result = _squares_commute(alphas, phi, kb1, kb2, source_n, target_n)
        except UndefinablePullbackError as exc:
            squares.append((args, str(exc)))
            raise
        squares.append((args, result))
        return result

    def counting(cells, fits=None):
        streams.append(fits)
        return bijections(cells, fits)

    monkeypatch.setattr(helpers, "_squares_commute", recording)
    monkeypatch.setattr(helpers, "bijections", counting)

    def run(search, kb1, kb2, phi) -> tuple:
        squares.clear()
        streams.clear()
        iso = outcome(search, kb1, kb2, phi)
        if isinstance(iso, FunctorIso):
            assert iso.phi == phi
            iso = [(n, items(alpha.atoms)) for n, alpha in iso.alphas.items()]
        return iso, list(squares), len(streams)

    outcomes = Counter()
    most_streams = 0
    for kb1, kb2 in cases:
        for phi in supported_phis(kb1.model.sig, kb1.n_max):
            old, old_squares, old_streams = run(recursive_find_functor_iso, kb1, kb2, phi)
            new, new_squares, new_streams = run(search_find_functor_iso, kb1, kb2, phi)
            assert (new, new_squares) == (old, old_squares)
            assert new_streams == min(old_streams, 1)
            most_streams = max(most_streams, old_streams)
            outcomes["raised" if isinstance(new, str) else "none" if new is None else "found"] += 1
            outcomes["squares"] += len(new_squares)
    assert all(outcomes[k] for k in ("raised", "none", "found", "squares")) and most_streams > 1


def seed_depth(kb: KnowledgeBase) -> int:
    """The largest term depth of a seed cut in the knowledge base's
    algebras: a cut that projects no block."""
    depths = [0]
    for n in range(1, kb.n_max + 1):
        for cut, _, _, _, block in kb.description(n).algebra._splits.values():
            if block is None:
                depths += map(term_depth, cut.args if isinstance(cut, Atom)
                              else (cut.left, cut.right))
    return max(depths)


def test_the_induced_map_decides_as_the_block_bijection_search():
    """`find_functor_iso` against the block-bijection search it replaced
    (`search_find_functor_iso`), under every relation permutation and every
    renaming family: a witness on both sides or on neither, and the same
    error text.  A decision may move only where the search has no witness
    either at the depth D of the first model's seed terms (module
    docstring, "One candidate").  The corpus is every ordered pair of each
    census family's representatives at (n_max, depth) = (1, 1), (2, 1) and
    (1, 2), the seeded, relabelling, swap and bounded pairs and every
    same-signature pair of `op_models` at n_max 1 and 2, the K3 CFI pair
    at n_max 1 and 2, and the two-6-cycle pair at (1, 1) and (1, 2).  Only
    that pair at (1, 1) moves: the search witnesses it by a map that
    ignores R(x1, f(f(x1))), and finds no witness at D = 2."""
    cases = []
    for (_, size, ops, rels), bounds in itertools.product(FAMILIES, ((1, 1), (2, 1), (1, 2))):
        reps = representatives(all_models(size, ops, rels))
        cases += [(m1, m2, *bounds) for m1, m2 in itertools.product(reps, repeat=2)]
    ops = [m for _, m in op_models()]
    pairs = [(m1, m2) for _, m1, m2 in seeded_pairs() + relabel_pairs() + swap_pairs()
             + bounded_pairs()]
    pairs += [(m1, m2) for m1, m2 in itertools.product(ops, repeat=2) if m1.sig == m2.sig]
    cases += [(m1, m2, n_max, 1) for (m1, m2), n_max in itertools.product(pairs, (1, 2))]
    cases += [(*cfi_pair([(0, 1), (0, 2), (1, 2)]), n_max, 0) for n_max in (1, 2)]
    cases += [(*two_six_cycles(), 1, depth) for depth in (1, 2)]

    def run(search, *args):
        """True for a witness, else None or the error text."""
        iso = outcome(search, *args)
        return isinstance(iso, FunctorIso) or iso

    outcomes, moved = Counter(), []
    for m1, m2, n_max, depth in cases:
        kb1, kb2 = kbs(m1, m2, n_max, depth)
        for phi in enumerate_automorphisms(m1.sig) + renaming_families(m1.sig, n_max):
            new = run(find_functor_iso, kb1, kb2, phi)
            old = run(search_find_functor_iso, kb1, kb2, phi)
            outcomes[new if new in (True, None) else "raised"] += 1
            if new != old:
                deep = kbs(m1, m2, n_max, max(depth, seed_depth(kb1)))
                assert run(search_find_functor_iso, *deep, phi) is not True
                moved.append((m1, n_max, depth, phi.describe(), old, new))
    assert moved == [(two_six_cycles()[0], 1, 1, "identity", True, None)]
    assert all(outcomes[k] for k in (True, None, "raised")), outcomes


def counted_enumerations(monkeypatch) -> list:
    """The arguments of each `enumerate_substitutions` call from now on."""
    calls = []
    enumerate_substitutions = categories.enumerate_substitutions

    def counting(*args):
        calls.append(args)
        return enumerate_substitutions(*args)

    monkeypatch.setattr(categories, "enumerate_substitutions", counting)
    return calls


def test_a_knowledge_base_enumerates_each_substitution_set_once(monkeypatch):
    """Only `Syntax.substitutions` enumerates substitutions, once per
    bounded set of a syntax.  The witness search above checks its squares
    on the generators alone and enumerates none.  The same search on a
    model with a binary op has no generators, and makes one enumeration per
    pair of sizes, over two sizes; so do both sweeps over one knowledge
    base together.  Each knowledge base is constructed directly, so it
    owns a fresh syntax and no syntax an earlier test left answers."""
    assert not hasattr(equivalence, "enumerate_substitutions")
    calls = counted_enumerations(monkeypatch)
    sig = Signature((("f", 1),), (("P", 1), ("Q", 1)))
    model = Model(sig, (0, 1, 2), {"f": {(0,): 1, (1,): 0, (2,): 0}},
                  {"P": [], "Q": [(0,)]})
    phi = FormulaAutomorphism.variable_renaming(sig, {2: ("x2", "x1")})
    assert find_functor_iso(KnowledgeBase(model, 2, 1), KnowledgeBase(model, 2, 1),
                            phi) is not None
    assert len(calls) == 0
    sig = Signature((("g", 2),), (("P", 1),))
    binary = Model(sig, (0, 1), {"g": {(a, b): a * b for a in (0, 1) for b in (0, 1)}},
                   {"P": [(0,)]})
    pair = kbs(binary, binary, 2, 1)
    assert pair[0].generators is None
    assert find_functor_iso(*pair, FormulaAutomorphism.identity(sig)) is not None
    assert len(calls) == 4
    kb = KnowledgeBase(model_neg(), 2, 1)
    assert kb.check_duality().passed and kb.verify_push_functoriality().passed
    assert len(calls) == 8


def test_knowledge_bases_over_one_operation_set_and_depth_share_one_syntax(monkeypatch):
    """Two models with other relations but one operation set and depth,
    resolved in a row, share one syntax: between them, their sweeps
    enumerate each bounded set once, and read its substitutions and
    composites as the same objects, while each maps them to tables of its
    own, since the second lists its carrier in the other order.  Another
    depth or another operation set gets a syntax of its own, and the next
    model over the first operation set and depth, resolved after it, gets
    another.  Run in a new thread, which keeps no pair."""
    calls = counted_enumerations(monkeypatch)

    def run():
        pq1 = model_pq1()
        p = knowledge_base(model_p(), 2, 1)
        pq = knowledge_base(Model(pq1.sig, (1, 0), None, pq1.rel_tables), 2, 1)
        assert p.syntax is pq.syntax
        assert p.geometry.frame is not pq.geometry.frame
        for kb in (p, pq):
            assert kb.check_duality().passed and kb.verify_push_functoriality().passed
        sizes = [(len(source), len(target)) for _, source, target, _ in calls]
        assert sorted(sizes) == sorted(itertools.product((1, 2), repeat=2))
        for a, b in itertools.product((1, 2), repeat=2):
            assert p.substitutions(a, b) is pq.substitutions(a, b)
        for a, b, c in itertools.product((1, 2), repeat=3):
            composites, _ = p.syntax.composites(a, b, c)
            rows_p, rows_pq = p._composite_rows(a, b, c), pq._composite_rows(a, b, c)
            assert [t.key for row in rows_p for t in row] == \
                [t.key for row in rows_pq for t in row]
            assert not {id(t) for row in rows_p for t in row} & \
                {id(t) for row in rows_pq for t in row}
            assert {id(t.key) for row in rows_p for t in row} <= \
                {id(s) for s in composites + p.substitutions(a, c)}
        deeper = knowledge_base(model_p(), 2, 2)
        neg = knowledge_base(model_neg(), 2, 1)
        assert len({id(kb.syntax) for kb in (p, deeper, neg)}) == 3
        assert [(kb.syntax.ops, kb.syntax.depth) for kb in (p, deeper, neg)] == \
            [((), 1), ((), 2), ((("neg", 1),), 1)]
        again = knowledge_base(model_pq2(), 2, 1)
        assert again.syntax is not p.syntax
        assert knowledge_base(model_p(), 2, 1).syntax is again.syntax

    in_new_thread(run)


def sweeps_and_decisions(kbs: list) -> list:
    """Both sweeps over each knowledge base, in order, then both deciders over
    each knowledge base and the next, the last with the first, where their
    signatures are one."""
    out = []
    for kb in kbs:
        out += [kb.check_duality(), kb.verify_push_functoriality()]
    for kb1, kb2 in zip(kbs, kbs[1:] + kbs[:1]):
        if kb1.model.sig == kb2.model.sig:
            out += [decide_equivalence(kb1, kb2),
                    decide_equivalence(kb1, kb2, mode="automorphic")]
    return out


def shared_syntax_cases() -> list:
    """Per case, its models, all with one operation set, n_max and depth."""
    fixtures = [m for _, m in all_fixtures()]
    one_op = [m for _, m in op_models()]
    cases = [pytest.param(group, 2, depth, id=f"fixtures {name} d{depth}")
             for depth in (1, 2)
             for name, group in (("without ops", [m for m in fixtures if not m.sig.ops]),
                                 ("with ops", [m for m in fixtures if m.sig.ops]))]
    cases += [pytest.param(one_op[:3], 2, 1, id="op_models f"),
              pytest.param(one_op[3:], 2, 1, id="op_models g"),
              pytest.param([dict(constant_models())["cg2"]], 2, 1, id="cg2"),
              pytest.param([model_neg(), model_neg()], 2, 2, id="m_neg d2")]
    cases += [pytest.param(representatives(all_models(size, ops, rels)), 2, 1,
                           id=f"census {label}")
              for label, size, ops, rels in FAMILIES]
    return cases


@pytest.mark.parametrize("models,n_max,depth", shared_syntax_cases())
def test_a_warm_shared_syntax_reports_as_a_fresh_one(models, n_max, depth):
    """Both sweeps and both deciders report the same over knowledge bases
    resolved in a row that share a warm syntax, one whose sets and
    composites an earlier pass over the same models made, and over
    knowledge bases constructed directly, each with a fresh syntax of its
    own.  The warm ones are resolved for copies of the models, so they are
    new knowledge bases that take the kept syntax."""
    first = [knowledge_base(m, n_max, depth) for m in models]
    sweeps_and_decisions(first)
    warm = [knowledge_base(copy.copy(m), n_max, depth) for m in models]
    assert all(kb.syntax is first[0].syntax and kb not in first for kb in warm)
    fresh = [KnowledgeBase(m, n_max, depth) for m in models]
    assert len({id(kb.syntax) for kb in fresh + warm[:1]}) == len(models) + 1
    assert sweeps_and_decisions(warm) == sweeps_and_decisions(fresh)


def resolved_reports(models: list, n_max: int, depth: int) -> list:
    """`sweeps_and_decisions` through the module-level sweeps and deciders,
    which resolve the models' knowledge bases in a row."""
    out = []
    for m in models:
        out += [check_duality(m, n_max, depth), verify_push_functoriality(m, depth, n_max)]
    for m1, m2 in zip(models, models[1:] + models[:1]):
        if m1.sig == m2.sig:
            out += [check_informational_equivalence(m1, m2, n_max, depth),
                    check_automorphic_equivalence(m1, m2, None, n_max, depth)]
    return out


def fresh_reports(models: list, n_max: int, depth: int) -> list:
    """`resolved_reports` over knowledge bases constructed directly in a new
    thread, one per sweep and per side of a decision, one for both sides
    when the models are equal, so each with a frame of its own."""
    def run():
        def kb(m):
            return KnowledgeBase(m, n_max, depth)

        out = []
        for m in models:
            out += [kb(m).check_duality(), kb(m).verify_push_functoriality()]
        for m1, m2 in zip(models, models[1:] + models[:1]):
            if m1.sig == m2.sig:
                kb1 = kb(m1)
                kb2 = kb1 if m2 == m1 else kb(m2)
                out += [decide_equivalence(kb1, kb2),
                        decide_equivalence(kb1, kb2, mode="automorphic")]
        return out

    return in_new_thread(run)


def warm_frame_cases() -> list:
    """Per case, its models in a row and their bounds: the fixtures, the
    seeded models, grouped by shape so that models in a row share a
    signature, the models with one operation and each census family's
    representatives at (2, 1)."""
    seeded = sorted(seeded_models(), key=lambda named: named[0].rstrip("0123456789"))
    cases = [pytest.param([m for _, m in all_fixtures()], 2, 1, id="fixtures"),
             pytest.param([m for _, m in seeded], 2, 1, id="seeded"),
             pytest.param([m for _, m in op_models()], 2, 1, id="op_models")]
    cases += [pytest.param(representatives(all_models(size, ops, rels)), 2, 1,
                           id=f"census {label}")
              for label, size, ops, rels in FAMILIES]
    return cases


@pytest.mark.parametrize("models,n_max,depth", warm_frame_cases())
def test_knowledge_bases_on_warm_frames_report_as_fresh_ones(monkeypatch, models, n_max, depth):
    """Both sweeps and both deciders report the same, failure lines naming a
    table's key included, over knowledge bases resolved in a row, which
    share frames, and over fresh ones, each with a frame of its own.  The
    resolved run goes twice, the second time over copies of the models, so
    that its knowledge bases are new and take frames whose tables the first
    built: between them its second run builds fewer tables than the fresh
    one."""
    calls = counted_pullbacks(monkeypatch)
    resolved_reports(models, n_max, depth)
    calls.clear()
    warm = resolved_reports([copy.copy(m) for m in models], n_max, depth)
    warm_built = len(calls)
    calls.clear()
    assert warm == fresh_reports(models, n_max, depth)
    assert warm_built < len(calls)


def test_decider_pairs_on_warm_frames_report_as_fresh_knowledge_bases():
    """Both deciders over each decider pair give the same reports on
    knowledge bases the module-level deciders resolve, over copies of pairs
    decided just before, and on knowledge bases constructed directly in a
    new thread, each with a frame of its own."""
    pairs = [(m1, m2, n_max, depth) for _, m1, m2, n_max, depth in decider_pairs()]

    def decisions(pairs: list, resolve) -> list:
        return [decide_equivalence(*resolve(m1, m2, n_max, depth), mode=mode)
                for m1, m2, n_max, depth in pairs for mode in ("informational", "automorphic")]

    def direct(m1, m2, n_max, depth):
        kb1 = KnowledgeBase(m1, n_max, depth)
        return kb1, kb1 if m2 == m1 else KnowledgeBase(m2, n_max, depth)

    decisions(pairs, categories.knowledge_bases)
    warm = decisions([(copy.copy(m1), copy.copy(m2), *bounds) for m1, m2, *bounds in pairs],
                     categories.knowledge_bases)
    assert warm == in_new_thread(lambda: decisions(pairs, direct))


def conjugated(iso: FunctorIso, renaming: FormulaAutomorphism, phi: FormulaAutomorphism,
               inverse: bool) -> FunctorIso:
    """The witness as a family for `phi`: each alpha followed by the second
    model's pullback along the renaming over its size, or along that
    renaming's inverse."""
    alphas = {}
    for n, alpha in iso.alphas.items():
        u = renaming.renaming_for(n)
        u = u.inverted() if inverse else u
        alphas[n] = lattice.UnionMap({atom: iso.kb2.geometry.table(u).preimage(image)
                                      for atom, image in alpha.atoms.items()})
    return dataclasses.replace(iso, phi=phi, alphas=alphas)


def natural(iso: FunctorIso) -> bool:
    """Whether a family meets its automorphism's atom constraints and every
    naturality square, and passes the description functor construction."""
    kb1, kb2 = iso.kb1, iso.kb2
    sizes = range(1, iso.n_max + 1)
    constraints = {n: _atom_constraints(kb1, kb2, iso.phi, n) for n in sizes}
    if None in constraints.values() or any(iso.alphas[n][m1] != m2 for n in sizes
                                           for m1, m2 in constraints[n]):
        return False
    if not all(_squares_commute(iso.alphas, iso.phi, kb1, kb2, a, b)
               for a, b in itertools.product(sizes, repeat=2)):
        return False
    try:
        return build_description_iso(iso).passed
    except AdmissibilityError:
        return False


def test_renamings_are_inner():
    """Conjugating by the second model's pullbacks along a renaming family u
    carries witnesses both ways: alpha_n followed by pre2 along u_n is a
    witness for phi with the renaming added, and a renaming witness followed
    by pre2 along u_n^-1 is one without it.  So a phi with a renaming finds
    a witness, finds none, or raises the same error exactly when its
    relation part does.  Pulling back along u_n instead fails for some
    renamings that are not involutions, so the direction matters."""
    pairs = [(m1, m2, n_max, depth) for _, m1, m2, n_max, depth in decider_pairs()]
    pairs += [(model_p(), model_p_relabeled(), 3, 1), (model_pq1(), model_pq2(), 3, 1)]
    counts = {"found": 0, "none": 0, "raised": 0, "conjugates": 0, "wrong way": 0}
    for m1, m2, n_max, depth in pairs:
        kb1, kb2 = kbs(m1, m2, n_max, depth)
        families = renaming_families(m1.sig, n_max)
        for iso, family in itertools.product(reported_witnesses(kb1, kb2), families):
            if isinstance(iso, FunctorIso):
                phi = FormulaAutomorphism(m1.sig, iso.phi.rel_images, family.var_images)
                assert natural(conjugated(iso, family, phi, inverse=False))
                counts["conjugates"] += 1
        for relation_part, family in itertools.product(enumerate_automorphisms(m1.sig),
                                                       families):
            phi = FormulaAutomorphism(m1.sig, relation_part.rel_images, family.var_images)
            renamed = outcome(find_functor_iso, kb1, kb2, phi)
            plain = outcome(find_functor_iso, kb1, kb2, relation_part)
            if isinstance(renamed, str) or renamed is None:
                assert renamed == plain
                counts["raised" if renamed else "none"] += 1
                continue
            assert isinstance(plain, FunctorIso)
            counts["found"] += 1
            back, wrong = (conjugated(renamed, family, relation_part, inverse)
                           for inverse in (True, False))
            assert natural(back)
            counts["wrong way"] += wrong.alphas != back.alphas and not natural(wrong)
    assert all(counts.values()), counts


def test_the_renaming_families_change_no_report():
    """Both deciders give the same report with the default automorphisms
    pinned as with every variable renaming family added after them, on every
    same-signature pair of the fixtures and the seeded models, self-pairs
    included.  Pinned phis skip the carrier path, so both deciders search
    them alone; unpinned, the automorphic decider searches the defaults and
    gives the same report.  Some decisions try every automorphism and end
    UNKNOWN, so the families are reached."""
    models = [m for _, m in all_fixtures() + seeded_models()]
    pairs = [(m1, m2) for m1, m2 in itertools.combinations_with_replacement(models, 2)
             if m1.sig == m2.sig]
    exhausted = 0
    for (m1, m2), decide in itertools.product(pairs, (check_informational_equivalence,
                                                      check_automorphic_equivalence)):
        defaults = enumerate_automorphisms(m1.sig)
        phis = defaults + renaming_families(m1.sig, 2)
        report = decide(m1, m2, n_max=2, depth=1, phis=defaults)
        assert report == decide(m1, m2, n_max=2, depth=1, phis=phis)
        if decide is check_automorphic_equivalence:
            assert report == decide(m1, m2, n_max=2, depth=1)
        exhausted += report.verdict == VERDICT_UNKNOWN and len(report.notes) == 1
    assert len(pairs) == 32 and exhausted > 0


def model_fp() -> Model:
    """The 3-element model with f the 3-cycle and P = {1}."""
    return Model(Signature((("f", 1),), (("P", 1),)), (0, 1, 2),
                 {"f": {(0,): 1, (1,): 2, (2,): 0}}, {"P": [(1,)]})


def test_the_squares_are_the_functor(monkeypatch):
    """Every witness the deciders report passes the description functor
    construction and the admissibility transfer, on the decider pairs, the
    27-atom relabelling pair and the `fp` and `m_p` self-pairs, and so does
    the witness of a pinned phi that swaps x1 and x2.  Each meets the
    proof's premises: it is Boolean, and its phi permutes the bounded
    substitution sets.  With the construction made to raise, both deciders
    give the same reports, so neither runs it."""
    pairs = decider_pairs() + [("named pair", *named_pair(), 2, 1),
                               ("fp self", model_fp(), model_fp(), 2, 1),
                               ("m_p self", model_p(), model_p(), 2, 1)]
    swap = FormulaAutomorphism.variable_renaming(model_neg().sig, {2: ("x2", "x1")})
    assert swap.describe() == "renamevars[2] x1:x2,x2:x1"
    sizes = (canonical_varset(1), canonical_varset(2))
    for source, target in itertools.product(sizes, repeat=2):
        bounded = set(enumerate_substitutions(swap.sig, source, target, 1))
        assert {swap.map_subst(s) for s in bounded} == bounded
    isos = [iso for label, m1, m2, n_max, depth in pairs
            for iso in reported_witnesses(*kbs(m1, m2, n_max, depth))
            if isinstance(iso, FunctorIso)]
    isos.append(find_functor_iso(*kbs(model_neg(), model_neg(), 2, 1), swap))
    for iso in isos:
        assert _is_boolean(iso), iso.phi.describe()
        assert build_description_iso(iso).passed, iso.phi.describe()
        assert verify_admissibility_transfer(iso).passed, iso.phi.describe()
    deciders = (check_informational_equivalence, check_automorphic_equivalence)
    runs = [(decide, m1, m2, dict(n_max=n_max, depth=depth))
            for _, m1, m2, n_max, depth in pairs for decide in deciders]
    runs.append((check_automorphic_equivalence, model_neg(), model_neg(),
                 dict(n_max=2, depth=1, phis=[swap])))
    reports = [decide(m1, m2, **bounds) for decide, m1, m2, bounds in runs]

    def refused(iso):
        raise AssertionError("the description functor ran on a reported witness")

    monkeypatch.setattr(equivalence, "build_description_iso", refused)
    assert [decide(m1, m2, **bounds) for decide, m1, m2, bounds in runs] == reports
    assert all(report.verdict == VERDICT_WITNESSED for report in reports[-7:])
    assert dict(reports[-1].witness)["phi"] == swap.describe()
    assert len(isos) > 7 and sum(r.verdict == VERDICT_WITNESSED for r in reports) > 7


def test_the_duality_sweep_and_the_description_functor_build_no_morphism(monkeypatch):
    """Both move atom images through pullback tables: with the morphism
    constructor refusing, the duality sweep passes on every fixture at
    (2, 1), and the description functor on the deciders' witnesses of a
    swapped pair, a self-pair and a renaming phi."""
    def refused(self, *args):
        raise AssertionError("a morphism was built")

    monkeypatch.setattr(categories._Morphism, "__init__", refused)
    one = KnowledgeBase(model_p(), 1, 1).description(1)
    with pytest.raises(AssertionError, match="^a morphism was built$"):
        categories.identity_desc(one)
    for _, model in all_fixtures():
        assert KnowledgeBase(model, 2, 1).check_duality().passed
    swap = FormulaAutomorphism.variable_renaming(model_neg().sig, {2: ("x2", "x1")})
    isos = [iso for m1, m2 in ((model_pq1(), model_pq2()), (model_neg(), model_neg()))
            for iso in reported_witnesses(KnowledgeBase(m1, 2, 1), KnowledgeBase(m2, 2, 1))]
    isos.append(find_functor_iso(KnowledgeBase(model_neg(), 2, 1),
                                 KnowledgeBase(model_neg(), 2, 1), swap))
    assert len(isos) == 3 and all(isinstance(iso, FunctorIso) for iso in isos)
    for iso in isos:
        assert build_description_iso(iso).passed, iso.phi.describe()


def test_the_description_functor_reads_the_sweeps_composite_tables():
    """After both sweeps over a knowledge base, the description functor of a
    witness over it, with the identity phi or the renaming of x1 and x2,
    adds no pullback table to its geometry: every composite it checks is
    one the sweeps' rows hold."""
    sig = model_neg().sig
    for phi in (FormulaAutomorphism.identity(sig),
                FormulaAutomorphism.variable_renaming(sig, {2: ("x2", "x1")})):
        kb = KnowledgeBase(model_neg(), 2, 1)
        assert kb.check_duality().passed and kb.verify_push_functoriality().passed
        iso = find_functor_iso(kb, kb, phi)
        tables = len(kb.geometry.frame.tables)
        assert build_description_iso(iso).passed, phi.describe()
        assert len(kb.geometry.frame.tables) == tables


def test_both_deciders_on_one_pair_build_each_model_s_sizes_once(monkeypatch):
    builds = counted_builds(monkeypatch)
    m1 = model_p()
    m2 = relabeled(m1, (1, 0))
    assert m2 != m1
    check_informational_equivalence(m1, m2, 2, 1)
    check_automorphic_equivalence(m1, m2, None, 2, 1)
    assert sorted((model is m2, n) for model, n in builds) == \
        [(False, 1), (False, 2), (True, 1), (True, 2)]


def resolver_pairs() -> list:
    """Each fixture and seeded model against its carrier's cyclic shift, and
    every ordered pair of them with one signature."""
    models = [(name, m) for name, m in all_fixtures() + seeded_models()]
    out = [(f"{name} shifted", m, relabeled(m, m.carrier[1:] + m.carrier[:1]))
           for name, m in models]
    return out + [(f"{name1} {name2}", m1, m2) for name1, m1 in models
                  for name2, m2 in models if m1.sig == m2.sig]


@pytest.mark.parametrize("label,model1,model2", resolver_pairs())
def test_resolved_deciders_report_as_fresh_knowledge_bases(label, model1, model2):
    fresh = {mode: decide_equivalence(*kbs(model1, model2, 2, 2), mode=mode)
             for mode in ("informational", "automorphic")}
    for _ in range(2):
        assert check_informational_equivalence(model1, model2, 2, 2) == fresh["informational"]
        assert check_automorphic_equivalence(model1, model2, None, 2, 2) == fresh["automorphic"]


def query_witnesses() -> list:
    """(label, witness) at (2, 1): every witness the searches give on the
    relabel pairs (the carrier transport and the first automorphism's) and
    on the swap pairs under swap P Q, the reported witnesses of the census's
    witnessed pairs of distinct representatives, m_neg against itself under
    the renaming family that swaps x1 and x2, and the bounded pairs' at
    (1, 1) and (2, 1), which are no carrier maps."""
    out = []
    for label, model, image in relabel_pairs():
        out += [(label, iso) for iso in reported_witnesses(*kbs(model, image, 2, 1))]
    for label, model, image in swap_pairs():
        swap = FormulaAutomorphism.relation_permutation(model.sig, {"P": "Q", "Q": "P"})
        out.append((label, outcome(find_functor_iso, *kbs(model, image, 2, 1), swap)))
    for family, reps, verdicts in census():
        out += [(f"{family} {i} {j}", iso)
                for i, j in itertools.combinations(range(len(reps)), 2)
                if verdicts[i, j] == VERDICT_WITNESSED
                for iso in reported_witnesses(*kbs(reps[i], reps[j], 2, 1))]
    neg = model_neg()
    renaming = FormulaAutomorphism.variable_renaming(neg.sig, {2: ("x2", "x1")})
    out.append(("m_neg renamevars", find_functor_iso(*kbs(neg, neg, 2, 1), renaming)))
    out += [(f"{label} {n_max}", iso) for label, m1, m2 in bounded_pairs() for n_max in (1, 2)
            for iso in reported_witnesses(*kbs(m1, m2, n_max, 1))]
    return [(label, iso) for label, iso in out if isinstance(iso, FunctorIso)]


def test_witnesses_answer_queries_alike():
    """The module docstring's "Queries": for every witness and n <= n_max,
    alpha_n sends the first model's answer to a seeded query over X_n, with
    quantifiers and terms within the depth, to the second model's answer to
    its image under phi, bound variables renamed too."""
    rng = random.Random(2017)
    witnesses = query_witnesses()
    assert len(witnesses) == 56
    assert {iso.phi.describe() for _, iso in witnesses} == {
        "identity", "swap P Q", "renamevars[2] x1:x2,x2:x1"}
    for label, iso in witnesses:
        sig = iso.kb1.model.sig
        for n in range(1, iso.n_max + 1):
            varset = canonical_varset(n)
            for _ in range(40):
                query = random_query(rng, sig, n, iso.depth)
                answer1 = satisfying_points(query, iso.kb1.model, varset,
                                            geometry=iso.kb1.geometry).mask
                answer2 = satisfying_points(map_query(iso.phi, query, n), iso.kb2.model,
                                            varset, geometry=iso.kb2.geometry).mask
                assert iso.alphas[n][answer1] == answer2, (label, n, formula_to_text(query))


def test_atom_tables_pair_as_the_formulas_do():
    """`_atom_constraints` pairs the knowledge bases' atom tables, moved
    along phi's renaming; `formulawise_atom_constraints` builds, maps and
    values every atomic formula and stops at its first clash.  They agree
    for the identity, every relation permutation and every renaming family,
    at every size, on: each census representative against the next one of
    its family at n_max 2 and depths 1 and 2, and each 2-element one against
    itself and the next at n_max 3 and depth 1, where renamings move the
    variables at two sizes; the swap pairs at depths 1 and 2; and every
    same-signature pair of `op_models()` (unary f, binary g) and of the
    fixtures at n_max 2 and depth 1, the self-pairs at depth 2 too."""
    cases = []  # (label, first model, second model, n_max, depth)
    for label, size, ops, rels in FAMILIES:
        reps = representatives(all_models(size, ops, rels))
        for rep, after in zip(reps, reps[1:] + reps[:1]):
            cases += [(label, rep, after, 2, depth) for depth in (1, 2)]
            if size == 2:
                cases += [(label, rep, other, 3, 1) for other in (rep, after)]
    cases += [(label, m1, m2, 2, depth) for label, m1, m2 in swap_pairs() for depth in (1, 2)]
    for (l1, m1), (l2, m2) in itertools.product(op_models() + all_fixtures(), repeat=2):
        if m1.sig == m2.sig:
            cases += [(f"{l1} {l2}", m1, m2, 2, depth) for depth in ((1, 2) if m1 is m2 else (1,))]
    results = set()
    renamed_at_two_sizes = 0
    for label, m1, m2, n_max, depth in cases:
        kb1, kb2 = kbs(m1, m2, n_max, depth)
        for phi in enumerate_automorphisms(m1.sig) + renaming_families(m1.sig, n_max):
            renamed_at_two_sizes += len(phi.var_images) == 2
            for n in range(1, n_max + 1):
                pairs = _atom_constraints(kb1, kb2, phi, n)
                assert pairs == formulawise_atom_constraints(kb1, kb2, phi, n), (
                    label, depth, phi.describe(), n)
                results.add((pairs is None, bool(phi.var_images), n in dict(phi.var_images)))
    assert results >= {(True, False, False), (False, False, False),
                       (True, True, True), (False, True, True)}
    assert renamed_at_two_sizes > 0


def test_the_bounded_pairs_are_witnessed_below_three_variables():
    """The 6-cycle against two triangles and K_{3,3} against the prism at
    depth 1: witnessed by the identity phi over one and two variables, with
    alphas that no carrier map gives, and refuted by lattice size over
    three.  Each witness passes the member-wise oracles;
    `test_witnesses_answer_queries_alike` puts seeded queries to it."""
    class_note = "supported automorphism class: relation permutations and variable renamings"
    sizes = {1: "|X|=1: 2 filters", 2: "|X|=1: 2 filters; |X|=2: 8 filters"}
    refuted = {"6-cycle / two triangles": (1048576, 2048), "K33 / prism": (2048, 1048576)}
    for label, m1, m2 in bounded_pairs():
        assert next(model_isomorphisms(m1, m2), None) is None, label
        for n_max in (1, 2):
            kb1, kb2 = kbs(m1, m2, n_max, 1)
            report = decide_equivalence(kb1, kb2)
            assert (report.verdict, report.witness, report.notes) == (
                VERDICT_WITNESSED,
                (("kind", "functor isomorphism"), ("phi", "identity"), ("alphas", sizes[n_max])),
                (class_note,)), (label, n_max)
            iso = find_functor_iso(kb1, kb2, FormulaAutomorphism.identity(m1.sig))
            assert iso.sizes() == sizes[n_max]
            assert memberwise_is_boolean(iso), label
            for a, b in itertools.product(range(1, n_max + 1), repeat=2):
                assert memberwise_squares_commute(iso.alphas, iso.phi, kb1, kb2, a, b), label
            functor = memberwise_description_iso(iso)
            assert functor.passed and functor == build_description_iso(iso), label
            assert verify_admissibility_transfer(iso).passed, label
        left, right = refuted[label]
        report = decide_equivalence(*kbs(m1, m2, 3, 1))
        assert (report.verdict, report.refutation) == (VERDICT_INEQUIVALENT, (
            ("invariant", "lattice size"), ("var_count", "3"), ("left", str(left)),
            ("right", str(right)), ("values", f"{left} vs {right} at |X|=3"),
            ("summary", f"lattice size {left} vs {right} at X={{x1, x2, x3}}"))), label
