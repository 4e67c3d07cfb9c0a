"""Fixture models and independent brute-force oracles shared by the tests.

The oracles here deliberately avoid the library's atoms by partition
refinement, its closed-form lattice profile and its pullback tables:
definable families are grown as frozensets of assignment rows with a plain
fixpoint loop, term functions are closed pointwise, lattice profiles come
from an all-triples cover search, and substitutions act on masks through
assignments composed term by term.  Agreement between the two
implementations is what the lattice, semantics and acceptance tests check.
"""

import itertools
import random

from kbgeo import Model, Signature, eval_term


def model_eq() -> Model:
    return Model(Signature((), ()), (0, 1))


def model_p() -> Model:
    return Model(Signature((), (("P", 1),)), (0, 1), None, {"P": [(1,)]})


def model_p0() -> Model:
    return Model(Signature((), (("P", 1),)), (0, 1), None, {"P": []})


def model_pq1() -> Model:
    return Model(Signature((), (("P", 1), ("Q", 1))), (0, 1), None,
                 {"P": [(1,)], "Q": []})


def model_pq2() -> Model:
    return Model(Signature((), (("P", 1), ("Q", 1))), (0, 1), None,
                 {"P": [], "Q": [(1,)]})


def model_neg() -> Model:
    return Model(Signature((("neg", 1),), (("P", 1),)), (0, 1),
                 {"neg": {(0,): 1, (1,): 0}}, {"P": [(1,)]})


def model_p_relabeled() -> Model:
    """The P model with carrier renamed 0 -> a, 1 -> b."""
    return Model(Signature((), (("P", 1),)), ("a", "b"), None, {"P": [("b",)]})


def all_fixtures() -> list:
    return [
        ("m_eq", model_eq()),
        ("m_p", model_p()),
        ("m_p0", model_p0()),
        ("m_pq1", model_pq1()),
        ("m_pq2", model_pq2()),
        ("m_neg", model_neg()),
    ]


def seeded_models() -> list:
    """Three random 3-element models of each shape, from a fixed seed: unary P
    and Q, a binary R, and a unary op f with a unary P.  Each table row is
    kept at even odds."""
    rng = random.Random(2017)
    carrier = (0, 1, 2)

    def rows(arity: int) -> list:
        return [row for row in itertools.product(carrier, repeat=arity) if rng.random() < 0.5]

    out = []
    for i in range(3):
        out.append((f"pq{i}", Model(Signature((), (("P", 1), ("Q", 1))), carrier, None,
                                    {"P": rows(1), "Q": rows(1)})))
        out.append((f"r{i}", Model(Signature((), (("R", 2),)), carrier, None, {"R": rows(2)})))
        op = {(a,): rng.choice(carrier) for a in carrier}
        out.append((f"fp{i}", Model(Signature((("f", 1),), (("P", 1),)), carrier,
                                    {"f": op}, {"P": rows(1)})))
    return out


def brute_rows(model: Model, k: int) -> list:
    """All assignment rows for k variables, one tuple per point."""
    return list(itertools.product(model.carrier, repeat=k))


def brute_term_functions(model: Model, k: int, depth: int = 2) -> set:
    """Pointwise term functions over k variables as value tuples per row."""
    rows = brute_rows(model, k)
    funcs = {tuple(row[i] for row in rows) for i in range(k)}
    for _ in range(depth):
        new = set(funcs)
        for name, arity in model.sig.ops:
            table = model.op_tables[name]
            for combo in itertools.product(sorted(funcs), repeat=arity):
                new.add(tuple(table[tuple(f[j] for f in combo)]
                              for j in range(len(rows))))
        if new == funcs:
            break
        funcs = new
    return funcs


def brute_definable_family(model: Model, k: int, depth: int = 2) -> set:
    """Every definable subset of the k-variable space, as frozensets of rows.

    Grown by a fixpoint loop over complement, union, and coordinate
    projection, starting from relation and equality atoms applied to term
    functions.
    """
    rows = brute_rows(model, k)
    all_rows = frozenset(rows)
    funcs = sorted(brute_term_functions(model, k, depth))
    family = {frozenset(), all_rows}
    for name, arity in model.sig.rels:
        table = model.rel_tables[name]
        for combo in itertools.product(funcs, repeat=arity):
            family.add(frozenset(row for j, row in enumerate(rows)
                                 if tuple(f[j] for f in combo) in table))
    if model.sig.with_equality:
        for f, g in itertools.product(funcs, repeat=2):
            family.add(frozenset(row for j, row in enumerate(rows)
                                 if f[j] == g[j]))

    def project(member, i):
        kept = set()
        for row in rows:
            for value in model.carrier:
                if row[:i] + (value,) + row[i + 1:] in member:
                    kept.add(row)
                    break
        return frozenset(kept)

    while True:
        additions = set()
        members = sorted(family, key=sorted)
        for member in members:
            additions.add(all_rows - member)
            for i in range(k):
                additions.add(project(member, i))
        for a, b in itertools.combinations(members, 2):
            additions.add(a | b)
        if additions <= family:
            return family
        family |= additions


def brute_closure(model: Model, k: int, subset, family=None) -> frozenset:
    """Least definable superset of a set of rows."""
    subset = frozenset(subset)
    if family is None:
        family = brute_definable_family(model, k)
    result = frozenset(brute_rows(model, k))
    for member in family:
        if subset <= member:
            result &= member
    return result


def brute_lattice_profile(family) -> tuple:
    """(size, height, sorted degree multiset) of the cover diagram of the
    filters dual to a family, found by testing every triple of members.

    A filter is below another when its dual contains the other's dual; a
    cover is a strict pair with nothing strictly between.
    """
    members = sorted(family, key=sorted)
    n = len(members)
    leq = [[members[j] <= members[i] for j in range(n)] for i in range(n)]
    covers = [(i, j) for i in range(n) for j in range(n)
              if i != j and leq[i][j]
              and not any(k != i and k != j and leq[i][k] and leq[k][j] for k in range(n))]
    degree = [0] * n
    for i, j in covers:
        degree[i] += 1
        degree[j] += 1
    up = [[] for _ in range(n)]
    for i, j in covers:
        up[i].append(j)
    longest = [0] * n
    for i in sorted(range(n), key=lambda i: -len(members[i])):
        for j in up[i]:
            longest[j] = max(longest[j], longest[i] + 1)
    return n, max(longest), tuple(sorted(degree))


def brute_composites(model: Model, subst) -> list:
    """For each assignment over the substitution's target, in enumeration
    order, the row number of its composite with the substitution among the
    assignments over the source, evaluated term by term with eval_term."""
    source_rows = brute_rows(model, len(subst.source))
    out = []
    for row in brute_rows(model, len(subst.target)):
        env = dict(zip(subst.target.names, row))
        out.append(source_rows.index(tuple(eval_term(t, env, model) for t in subst.images)))
    return out


def brute_preimage(composites: list, mask: int) -> int:
    """Target points whose composite lies in the source mask."""
    return sum(1 << p for p, q in enumerate(composites) if mask >> q & 1)


def brute_image(composites: list, mask: int) -> int:
    """Source points that are composites of points in the target mask."""
    return sum(1 << q for q in {composites[p] for p in range(len(composites)) if mask >> p & 1})
