"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every check is exact; a criterion passes only with zero violations.  The
formula panels used for the quantifier and substitution sweeps are
deterministic prefixes of the generated formula streams, so runs are
repeatable byte for byte.
"""

import copy
import itertools

from kbgeo import (
    And,
    Exists,
    FALSE,
    FormulaAutomorphism,
    FormulaContext,
    KnowledgeBase,
    ModelMap,
    PointSet,
    apply_subst_formula,
    build_description_iso,
    build_filter_lattice,
    canonical_varset,
    check_automorphic_equivalence,
    check_duality,
    check_informational_equivalence,
    closure,
    enumerate_formulas,
    enumerate_substitutions,
    find_functor_iso,
    generate_definable_algebra,
    holds_on_all,
    filter_preimage,
    points_satisfying_all,
    satisfying_points,
    subst_image_points,
    subst_preimage_points,
    transport_model_iso,
    verify_push_functoriality,
    VERDICT_INEQUIVALENT,
    VERDICT_UNKNOWN,
    VERDICT_WITNESSED,
)
from kbgeo.cli import run_command, write_report
from helpers import (
    all_fixtures,
    brute_definable_family,
    model_neg,
    model_p,
    model_p0,
    model_p_relabeled,
    model_pq1,
    model_pq2,
    verify_admissibility_transfer,
)

import pathlib

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def conclude(number: int, name: str, violations: list):
    status = "PASS" if not violations else "FAIL"
    print(f"criterion {number} ({name}): {status}")
    assert not violations, (
        f"criterion {number} ({name}): {len(violations)} violations; "
        f"first: {violations[0]}")


def submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def formula_prefix(ctx: FormulaContext, depth: int, count: int) -> list:
    return list(itertools.islice(enumerate_formulas(ctx, depth), count))


def test_criterion_1_galois_closure():
    violations = []
    for name, model in all_fixtures():
        for k in (1, 2, 3):
            varset = canonical_varset(k)
            algebra = generate_definable_algebra(model, varset)
            space = algebra.space
            closures = {}
            for mask in range(1 << space.size):
                closed = closure(PointSet(space, mask), algebra).points.mask
                closures[mask] = closed
                if mask & ~closed:
                    violations.append(f"{name} |X|={k}: {mask:#x} not below its closure")
                if closure(PointSet(space, closed), algebra).points.mask != closed:
                    violations.append(f"{name} |X|={k}: closure of {mask:#x} not idempotent")
            for big, cl_big in closures.items():
                for small in submasks(big):
                    if closures[small] & ~cl_big:
                        violations.append(
                            f"{name} |X|={k}: closure not monotone on {small:#x} <= {big:#x}")
            ctx = FormulaContext(model.sig, varset)
            panel = formula_prefix(ctx, 1, 24)
            sets = [points_satisfying_all(panel[:i], model, varset)
                    for i in range(len(panel) + 1)]
            for i in range(len(sets) - 1):
                if not sets[i + 1].is_subset_of(sets[i]):
                    violations.append(
                        f"{name} |X|={k}: solution sets not antitone in the formula list")
            small = PointSet(space, closures[0])
            for f in panel[:12]:
                if holds_on_all(PointSet(space, 0), f) is False:
                    violations.append(f"{name} |X|={k}: empty set fails a formula")
                full = PointSet.full(space)
                if holds_on_all(full, f) and not holds_on_all(small, f):
                    violations.append(
                        f"{name} |X|={k}: filters not antitone on {small} <= {full}")
    conclude(1, "galois closure properties", violations)


def test_criterion_2_quantifier_axioms():
    violations = []
    for name, model in all_fixtures():
        for k in (1, 2):
            varset = canonical_varset(k)
            ctx = FormulaContext(model.sig, varset)
            shallow = formula_prefix(ctx, 1, 300)
            atomic = formula_prefix(ctx, 0, 12)
            deep = formula_prefix(ctx, 3, 200)

            def val(f):
                return satisfying_points(f, model, varset).mask

            for var in varset.names:
                if val(Exists(var, FALSE)) != 0:
                    violations.append(f"{name} |X|={k}: exists {var}. false is nonempty")
            for f in itertools.chain(shallow, deep):
                mask = val(f)
                for var in varset.names:
                    if mask & ~val(Exists(var, f)):
                        violations.append(
                            f"{name} |X|={k}: formula not below its projection on {var}")
                        break
            for f in shallow:
                for g in atomic:
                    for var in varset.names:
                        left = val(Exists(var, And(f, Exists(var, g))))
                        right = val(Exists(var, f)) & val(Exists(var, g))
                        if left != right:
                            violations.append(
                                f"{name} |X|={k}: projection distribution fails on "
                                f"({f!r}, {g!r}, {var})")
            if k >= 2:
                for f in itertools.chain(shallow, deep[:60]):
                    for x, y in itertools.permutations(varset.names, 2):
                        if val(Exists(x, Exists(y, f))) != val(Exists(y, Exists(x, f))):
                            violations.append(
                                f"{name} |X|={k}: projections on {x}, {y} do not commute")
    conclude(2, "quantifier axioms", violations)


def test_criterion_3_substitution_transport():
    violations = []
    for name, model in ((n, m) for n, m in all_fixtures() if n in ("m_p", "m_neg")):
        algebras = {n: generate_definable_algebra(model, canonical_varset(n))
                    for n in (1, 2)}
        lattices = {n: build_filter_lattice(model, canonical_varset(n))
                    for n in (1, 2)}
        for a in (1, 2):
            source = canonical_varset(a)
            ctx = FormulaContext(model.sig, source)
            singles = formula_prefix(ctx, 1, 150)
            panels = [[f] for f in singles]
            atomic = formula_prefix(ctx, 0, 8)
            panels += [[f, g] for f, g in itertools.combinations(atomic, 2)]
            for b in (1, 2):
                target = canonical_varset(b)
                for s in enumerate_substitutions(model.sig, source, target, 2):
                    for panel in panels:
                        direct = points_satisfying_all(
                            [apply_subst_formula(s, f) for f in panel], model, target)
                        routed = subst_preimage_points(
                            s, points_satisfying_all(panel, model, source))
                        if direct != routed:
                            violations.append(
                                f"{name}: preimage points disagree for {s} on a panel "
                                f"of {len(panel)} formulas")
                    space_b = algebras[b].space
                    for mask in range(1 << space_b.size):
                        pset = PointSet(space_b, mask)
                        filt = lattices[b].filter_for_mask(closure(pset, algebras[b]).mask)
                        pulled = filter_preimage(s, filt, lattices[a])
                        routed = closure(subst_image_points(s, pset), algebras[a]).mask
                        if pulled.mask != routed:
                            violations.append(
                                f"{name}: image filter of {mask:#x} along {s} disagrees")
    conclude(3, "substitution transport", violations)


def test_criterion_4_preimages_stay_definable():
    violations = []
    for name, model in ((n, m) for n, m in all_fixtures() if n in ("m_p", "m_neg")):
        algebras = {n: generate_definable_algebra(model, canonical_varset(n))
                    for n in (1, 2)}
        families = {n: brute_definable_family(model, n) for n in (1, 2)}
        for a in (1, 2):
            for b in (1, 2):
                subs = enumerate_substitutions(
                    model.sig, canonical_varset(a), canonical_varset(b), 2)
                space_b = algebras[b].space
                for s in subs:
                    for member in algebras[a]:
                        pre = subst_preimage_points(s, member.points)
                        if pre.mask not in algebras[b].index:
                            violations.append(
                                f"{name}: preimage of {member.mask:#x} along {s} "
                                f"escapes the generated algebra")
                        rows = frozenset(space_b.value_rows[i] for i in pre.indices())
                        if rows not in families[b]:
                            violations.append(
                                f"{name}: preimage of {member.mask:#x} along {s} "
                                f"escapes the brute-force family")
    conclude(4, "substitution preimages definable", violations)


def test_criterion_5_duality():
    violations = []
    expected_sizes = {"m_eq": "2 4", "m_p": "4 16"}
    for name, model in all_fixtures():
        report = check_duality(model, 2)
        if not report.passed:
            violations.append(f"{name}: duality check failed: {report.failures[0]}")
            continue
        sizes = dict(report.entries)["sizes"]
        brute = " ".join(str(len(brute_definable_family(model, n))) for n in (1, 2))
        if sizes != brute:
            violations.append(f"{name}: lattice sizes {sizes} differ from oracle {brute}")
        if name in expected_sizes and sizes != expected_sizes[name]:
            violations.append(f"{name}: lattice sizes {sizes} != {expected_sizes[name]}")
    conclude(5, "description-content duality", violations)


def test_criterion_6_push_functoriality():
    violations = []
    for name, model in (("m_p", model_p()), ("m_neg", model_neg())):
        report = verify_push_functoriality(model, 2, 2)
        triples = int(dict(report.entries)["triples"])
        if not report.passed:
            violations.append(f"{name}: {report.failures[0]}")
        if triples < 100:
            violations.append(f"{name}: only {triples} composition triples checked")
    conclude(6, "pushforward functoriality", violations)


def swap_pq() -> FormulaAutomorphism:
    return FormulaAutomorphism.relation_permutation(
        model_pq1().sig, {"P": "Q", "Q": "P"})


def model_neg_relabeled():
    from kbgeo import Model, Signature
    return Model(Signature((("neg", 1),), (("P", 1),)), ("a", "b"),
                 {"neg": {("a",): "b", ("b",): "a"}}, {"P": [("b",)]})


def kbs(model1, model2, depth: int = 2) -> tuple:
    """The two knowledge bases at n_max 2 and, by default, depth 2: the
    deciders' default bounds."""
    return KnowledgeBase(model1, 2, depth), KnowledgeBase(model2, 2, depth)


def transport(model1, model2, depth: int):
    return transport_model_iso(ModelMap(model1, model2, ("a", "b")), *kbs(model1, model2, depth))


def criterion_7_witnesses(depth: int) -> list:
    """The functor isomorphisms behind every witnessed verdict of criterion 7,
    found within the depth."""
    witnesses = [find_functor_iso(*kbs(model_pq1(), model_pq2(), depth), swap_pq())]
    witnesses.append(transport(model_p(), model_p_relabeled(), depth))
    witnesses.append(transport(model_neg(), model_neg_relabeled(), depth))
    return witnesses


def test_criterion_7_equivalence_chain():
    violations = []
    report = check_informational_equivalence(model_pq1(), model_pq2())
    if report.verdict != VERDICT_WITNESSED:
        violations.append(f"swapped relations: verdict {report.verdict}")
    elif dict(report.witness)["phi"] != "swap P Q":
        violations.append(f"swapped relations: wrong witness {dict(report.witness)}")
    iso = find_functor_iso(*kbs(model_pq1(), model_pq2()), swap_pq())
    if iso is None:
        violations.append("swapped relations: no functor isomorphism found")
    elif not build_description_iso(iso).passed:
        violations.append("swapped relations: description functor laws failed")

    refuted = check_informational_equivalence(model_p(), model_p0(), n_max=1)
    if refuted.verdict != VERDICT_INEQUIVALENT:
        violations.append(f"empty relation: verdict {refuted.verdict}")
    else:
        refutation = dict(refuted.refutation)
        if refutation.get("values") != "4 vs 2 at |X|=1":
            violations.append(f"empty relation: refutation values {refutation}")
        if refutation.get("summary") != "lattice size 4 vs 2 at X={x1}":
            violations.append(f"empty relation: refutation summary {refutation}")
    if check_informational_equivalence(model_p(), model_p0()).verdict \
            != VERDICT_INEQUIVALENT:
        violations.append("empty relation: not refuted at the default bounds")

    for name, pair in (("m_p", (model_p(), model_p_relabeled())),
                       ("m_neg", (model_neg(), model_neg_relabeled()))):
        relab = check_informational_equivalence(*pair)
        if relab.verdict != VERDICT_WITNESSED:
            violations.append(f"{name} relabeled: verdict {relab.verdict}")
        else:
            witness = dict(relab.witness)
            if witness["phi"] != "identity":
                violations.append(f"{name} relabeled: witnessed by {witness['phi']}")
        direct = find_functor_iso(*kbs(*pair), FormulaAutomorphism.identity(pair[0].sig))
        if direct is None:
            violations.append(f"{name} relabeled: identity functor search failed")
        elif not build_description_iso(direct).passed:
            violations.append(f"{name} relabeled: description functor laws failed")

    for argv in (["equiv", str(FIXTURES / "m_pq1.kbm"), str(FIXTURES / "m_pq2.kbm")],
                 ["equiv", str(FIXTURES / "m_p.kbm"), str(FIXTURES / "m_p0.kbm"),
                  "--max-vars", "1"]):
        code1, text1 = run_command(argv)
        code2, text2 = run_command(argv)
        if (code1, text1) != (code2, text2):
            violations.append(f"report for {argv} is not deterministic")
    rep1 = check_informational_equivalence(model_pq1(), model_pq2())
    rep2 = check_informational_equivalence(model_pq1(), model_pq2())
    if rep1 != rep2 or write_report(rep1, "machine") != write_report(rep2, "machine"):
        violations.append("equivalence reports are not deterministic")
    conclude(7, "equivalence deciders", violations)


def test_criterion_8_admissibility_transfer():
    violations = []
    for i, iso in enumerate(criterion_7_witnesses(1)):
        report = verify_admissibility_transfer(iso, n_max=1)
        if not report.passed:
            violations.append(f"witness {i}: transfer failed: {report.failures[0]}")
        if report.checked == 0:
            violations.append(f"witness {i}: transfer checked nothing")
        corrupted = copy.deepcopy(iso)
        alpha = corrupted.alphas[1]
        masks = sorted(alpha)
        alpha[masks[0]], alpha[masks[-1]] = alpha[masks[-1]], alpha[masks[0]]
        control = verify_admissibility_transfer(corrupted, n_max=1)
        if control.passed or len(control.failures) < 1:
            violations.append(f"witness {i}: corrupted control reported no violation")
    conclude(8, "admissibility transfer", violations)


def test_criterion_9_negative_controls():
    violations = []
    for n_max in (1, 2):
        for depth in (1, 2):
            report = check_informational_equivalence(model_p(), model_p0(),
                                                     n_max=n_max, depth=depth)
            if report.verdict == VERDICT_WITNESSED:
                violations.append(
                    f"models with different lattices witnessed at "
                    f"n_max={n_max} depth={depth}")
    pinned = check_automorphic_equivalence(
        model_pq1(), model_pq2(), [FormulaAutomorphism.identity(model_pq1().sig)])
    if pinned.verdict == VERDICT_INEQUIVALENT:
        violations.append("pinned identity falsely refuted the swapped-relation pair")
    if pinned.verdict not in (VERDICT_UNKNOWN, VERDICT_WITNESSED):
        violations.append(f"pinned identity produced verdict {pinned.verdict}")
    if pinned.verdict == VERDICT_WITNESSED:
        violations.append("pinned identity cannot witness the swapped-relation pair")
    enumerated = check_informational_equivalence(model_pq1(), model_pq2())
    if enumerated.verdict != VERDICT_WITNESSED:
        violations.append(f"enumerated search gave {enumerated.verdict}")
    conclude(9, "negative controls", violations)
