"""The census of small models: every model of five small signatures, reduced
to one representative per isomorphism class, and the informational verdict
of every pair of representatives at (n_max, depth) = (2, 1).

`tests/census.golden` pins one line per family: its representative count,
each verdict's count over the unordered pairs of distinct representatives,
and each verdict's count over the self-pairs.  The other tests here check
relations between the verdicts rather than their counts: the order of a
pair does not matter, witnessed verdicts are transitive, an `INEQUIVALENT`
verdict is the same on both members of a witnessed pair, every pair gets
the same verdict at depth 2, and at n_max = |M| a pair is witnessed exactly
when its models are isomorphic up to a relation permutation.
"""

import functools
import itertools
import pathlib
from collections import Counter

from kbgeo import (
    FormulaAutomorphism,
    FunctorIso,
    KnowledgeBase,
    Model,
    Signature,
    VERDICT_INEQUIVALENT,
    VERDICT_UNKNOWN,
    VERDICT_WITNESSED,
    check_informational_equivalence,
    decide_equivalence,
    enumerate_automorphisms,
    find_functor_iso,
    model_isomorphisms,
    transport_model_iso,
)
from kbgeo.lattice import UnionMap
from helpers import (
    formulawise_atom_constraints,
    memberwise_description_iso,
    memberwise_is_boolean,
    relabeled,
)

CENSUS_GOLDEN = pathlib.Path(__file__).resolve().parent / "census.golden"

# (label, carrier size, ops, relations)
FAMILIES = (
    ("2 P,Q", 2, (), (("P", 1), ("Q", 1))),
    ("2 f,P", 2, (("f", 1),), (("P", 1),)),
    ("2 R", 2, (), (("R", 2),)),
    ("3 P,Q", 3, (), (("P", 1), ("Q", 1))),
    ("3 f,P", 3, (("f", 1),), (("P", 1),)),
)
VERDICTS = (VERDICT_INEQUIVALENT, VERDICT_UNKNOWN, VERDICT_WITNESSED)


def all_models(size: int, ops: tuple, rels: tuple):
    """Every model of the signature over carrier 0..size-1: op tables in
    `itertools.product` order, then relation tables, each a bit per row."""
    carrier = tuple(range(size))
    sig = Signature(ops, rels)
    op_rows = [list(itertools.product(carrier, repeat=arity)) for _, arity in ops]
    rel_rows = [list(itertools.product(carrier, repeat=arity)) for _, arity in rels]
    for values in itertools.product(*(itertools.product(carrier, repeat=len(rows))
                                      for rows in op_rows)):
        op_tables = {name: dict(zip(rows, vals))
                     for (name, _), rows, vals in zip(ops, op_rows, values)}
        for bits in itertools.product(*(range(1 << len(rows)) for rows in rel_rows)):
            rel_tables = {name: [row for i, row in enumerate(rows) if bit >> i & 1]
                          for (name, _), rows, bit in zip(rels, rel_rows, bits)}
            yield Model(sig, carrier, op_tables or None, rel_tables)


def representatives(models) -> list:
    """The first model of each isomorphism class, in the given order."""
    out: list = []
    for model in models:
        if all(next(model_isomorphisms(model, rep), None) is None for rep in out):
            out.append(model)
    return out


@functools.cache
def census() -> tuple:
    """Per family, its label, its representatives and the verdict at (2, 1)
    of every ordered pair of them, self-pairs included, keyed by indices."""
    out = []
    for label, size, ops, rels in FAMILIES:
        reps = representatives(all_models(size, ops, rels))
        verdicts = {(i, j): check_informational_equivalence(reps[i], reps[j], 2, 1).verdict
                    for i, j in itertools.product(range(len(reps)), repeat=2)}
        out.append((label, reps, verdicts))
    return tuple(out)


def census_lines() -> list:
    """The golden's lines: one per family, then the totals."""
    lines, total_reps, total_pairs, total_selves = [], 0, Counter(), Counter()
    for label, reps, verdicts in census():
        pairs = Counter(verdicts[i, j] for i, j in itertools.combinations(range(len(reps)), 2))
        selves = Counter(verdicts[i, i] for i in range(len(reps)))
        lines.append(_line(label, len(reps), pairs, selves))
        total_reps += len(reps)
        total_pairs += pairs
        total_selves += selves
    return lines + [_line("all", total_reps, total_pairs, total_selves)]


def _line(label: str, reps: int, pairs: Counter, selves: Counter) -> str:
    def counts(verdicts: Counter) -> str:
        return ", ".join(f"{v} {verdicts[v]}" for v in VERDICTS)
    return f"{label}: {reps} representatives; pairs {counts(pairs)}; self {counts(selves)}"


def test_the_census_matches_its_golden():
    assert census_lines() == CENSUS_GOLDEN.read_text().splitlines()


def test_reversing_a_census_pair_keeps_its_verdict():
    for label, reps, verdicts in census():
        for i, j in itertools.combinations(range(len(reps)), 2):
            assert verdicts[i, j] == verdicts[j, i], (label, i, j)


def test_witnessed_census_verdicts_are_transitive():
    """Triples may repeat a representative, since the census holds the
    self-pairs; no family has a witnessed chain of three distinct ones."""
    checked = 0
    for label, reps, verdicts in census():
        for i, j, k in itertools.product(range(len(reps)), repeat=3):
            if verdicts[i, j] == verdicts[j, k] == VERDICT_WITNESSED:
                checked += 1
                assert verdicts[i, k] == VERDICT_WITNESSED, (label, i, j, k)
    assert checked


def witness(kb1: KnowledgeBase, kb2: KnowledgeBase):
    """The witness `decide_equivalence` reports for a witnessed pair: a
    transported carrier isomorphism, else the first found functor
    isomorphism over `enumerate_automorphisms`."""
    mmap = next(model_isomorphisms(kb1.model, kb2.model), None)
    if mmap is not None:
        return transport_model_iso(mmap, kb1, kb2)
    return next(iso for phi in enumerate_automorphisms(kb1.model.sig)
                if (iso := find_functor_iso(kb1, kb2, phi)) is not None)


def composed(first: FunctorIso, second: FunctorIso) -> FunctorIso:
    """`first`, then `second`: the composed relation map, and per size the
    `UnionMap` of each atom's image under both alphas."""
    sig = first.kb1.model.sig
    phi = FormulaAutomorphism(sig, tuple((name, second.phi.rel_image(first.phi.rel_image(name)))
                                         for name in sig.rel_names))
    alphas = {n: UnionMap({atom: second.alphas[n][first.alphas[n][atom]]
                           for atom in first.kb1.description(n).algebra.block_masks()})
              for n in first.alphas}
    return FunctorIso(phi, alphas, first.kb1, second.kb2)


def test_composed_census_witnesses_pass_the_member_wise_oracles():
    """Per witnessed pair (i, j) of distinct representatives, one transitive
    triple i -> j -> k, with k the first representative that j is witnessed
    to: the census has no witnessed triple of three distinct
    representatives, so k is i or j.  The composite of the two witnesses is
    a description functor isomorphism from i to k, with Boolean alphas that
    send each atomic formula's mask to the mask of its image under the
    composed phi."""
    composites = 0
    for label, reps, verdicts in census():
        kbs = [KnowledgeBase(rep, 2, 1) for rep in reps]
        for i, j in itertools.permutations(range(len(reps)), 2):
            if verdicts[i, j] != VERDICT_WITNESSED:
                continue
            k = next(k for k in range(len(reps)) if verdicts[j, k] == VERDICT_WITNESSED)
            iso = composed(witness(kbs[i], kbs[j]), witness(kbs[j], kbs[k]))
            assert memberwise_description_iso(iso).passed, (label, i, j, k)
            assert memberwise_is_boolean(iso), (label, i, j, k)
            for n in (1, 2):
                constraints = formulawise_atom_constraints(kbs[i], kbs[k], iso.phi, n)
                assert constraints is not None and all(
                    iso.alphas[n][mask1] == mask2 for mask1, mask2 in constraints), (
                    label, i, j, k, n)
            composites += 1
    assert composites == 20


def test_an_inequivalent_verdict_is_the_same_on_both_members_of_a_witnessed_pair():
    for label, reps, verdicts in census():
        for i, j in itertools.permutations(range(len(reps)), 2):
            if verdicts[i, j] != VERDICT_WITNESSED:
                continue
            for k in range(len(reps)):
                assert ((verdicts[i, k] == VERDICT_INEQUIVALENT)
                        == (verdicts[j, k] == VERDICT_INEQUIVALENT)), (label, i, j, k)


def test_census_verdicts_agree_at_depths_1_and_2():
    """Every op of the census is unary and n_max = 2 covers every relation's
    arity, where deeper terms are expected to add no constraint that removes
    a witness.  One order of each pair of distinct representatives is
    decided again at depth 2."""
    for label, reps, verdicts in census():
        for i, j in itertools.combinations(range(len(reps)), 2):
            deeper = check_informational_equivalence(reps[i], reps[j], 2, 2).verdict
            assert deeper == verdicts[i, j], (label, i, j)


def test_each_representative_against_its_shifted_copy_decides_as_against_itself():
    """A representative and its copy with the carrier shifted cyclically are
    isomorphic, so their verdicts at (2, 1) total the self-pairs' of the
    golden: 84 witnessed, and `UNKNOWN` for the 10 whose pullbacks along
    some bounded substitution are not definable."""
    totals = Counter()
    for label, reps, verdicts in census():
        for i, rep in enumerate(reps):
            shifted = relabeled(rep, rep.carrier[1:] + rep.carrier[:1])
            verdict = check_informational_equivalence(rep, shifted, 2, 1).verdict
            assert verdict == verdicts[i, i], (label, i)
            totals[verdict] += 1
    assert totals == {VERDICT_WITNESSED: 84, VERDICT_UNKNOWN: 10}


def test_at_n_max_the_carrier_size_witnesses_are_the_permuted_isomorphisms():
    """`kbgeo.equivalence`'s module docstring, "Carriers": each family at
    n_max = |M| and depth 1, the 2-element ones at (2, 1) and the 3-element
    ones at (3, 1).  In both the informational and the automorphic mode,
    every pair of representatives, self-pairs included, is witnessed exactly
    when the first model is isomorphic to the second with its relations
    permuted by some phi's relation part, except for the 10 self-pairs
    whose witness search stops at an undefinable pullback, which stay
    `UNKNOWN` with that note.  The verdict counts at (3, 1) are those of
    the golden at (2, 1)."""
    undefinable = 0
    for label, size, ops, rels in FAMILIES:
        reps = representatives(all_models(size, ops, rels))
        kbs = [KnowledgeBase(rep, size, 1) for rep in reps]
        phis = enumerate_automorphisms(reps[0].sig)
        counts = Counter()
        for i, j in itertools.combinations_with_replacement(range(len(reps)), 2):
            permuted = [Model(reps[j].sig, reps[j].carrier, reps[j].op_tables or None,
                              {name: reps[j].rel_tables[phi.rel_image(name)]
                               for name, _ in rels}) for phi in phis]
            isomorphic = any(next(model_isomorphisms(reps[i], image), None) is not None
                             for image in permuted)
            for mode in ("automorphic", "informational"):
                report = decide_equivalence(kbs[i], kbs[j], mode=mode)
                if (report.verdict == VERDICT_WITNESSED) != isomorphic:
                    assert i == j and report.verdict == VERDICT_UNKNOWN, (label, i, j, mode)
                    assert "witness search stopped: pullback" in report.notes[-1], (label, i)
                    undefinable += mode == "informational"
            counts[report.verdict, i == j] += 1  # the informational verdict
        if size == 3:
            _, _, verdicts = next(family for family in census() if family[0] == label)
            assert counts == Counter((verdicts[i, j], i == j) for i, j in
                                     itertools.combinations_with_replacement(range(len(reps)), 2))
    assert undefinable == 10
