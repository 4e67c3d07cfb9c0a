"""Fixture models and independent brute-force oracles shared by the tests.

The oracles here deliberately avoid the library's atoms by partition
refinement, its closed-form lattice profile and its pullback tables:
definable families are grown as frozensets of assignment rows with a plain
fixpoint loop, term functions are closed pointwise, lattice profiles come
from an all-triples cover search, and substitutions act on masks through
assignments composed term by term.  Agreement between the two
implementations is what the lattice, semantics and acceptance tests check.

The member-wise oracles at the end are the category sweeps' and the
equivalence deciders' loops as they were before they ran on atoms: every
description morphism is a `DescMorphism` and every content morphism a
`ContMorphism` over all lattice members, every push moves a `ClosedFilter`,
every naturality square is checked on every member, and the alphas, their
Boolean check and the carrier transport walk every member point by point
instead of extending atom images.  Beside them, the admissibility transfer
of a witness is checked on every pair of members, and the atom constraints
are made by building, mapping and valuing every atomic formula instead of
pairing atom tables.

`eager_definable_algebra` is the eager seed policy over the library's
split tree: every seed is read off the fully drained clone, with no stop
once each point is its own atom, and every block's witness is checked
through a fresh valuation.

The filtered streams at the end are the three bijection searches as they
were before they ran on `core.bijections`: every carrier permutation kept
when it preserves every table, every relation permutation kept when it
keeps arities, and the product of the permutations within each cell.
`search_find_functor_iso` is the witness search as it was before each phi
had one candidate, its formula-induced map: one `bijections` run over
every block bijection that keeps the atom constraints, with the squares
checked once a size's last atom is placed.  `recursive_find_functor_iso` is
that search as it was before one run mapped every size: a recursion over
the sizes that opens a new stream for each candidate of the size below.

`tuple_parse_formula` and `tuple_parse_term` are the parsers as they were
before they read token values by index: a scanner regex with one group per
token kind gives every token as a (kind, value, offset) tuple, and a cursor
object hands them out through `peek`, `next`, `expect` and `items`.
"""

import itertools
import random
import re
import threading
from typing import Optional

from kbgeo import (
    AdmissibilityError,
    DefinabilityError,
    DescMorphism,
    FormulaAutomorphism,
    FunctorIso,
    KnowledgeBase,
    MismatchError,
    Model,
    Report,
    Signature,
    UndefinablePullbackError,
    Substitution,
    canonical_varset,
    compose_cont,
    compose_desc,
    compose_subst,
    content_morphism,
    enumerate_substitutions,
    eval_term,
    generate_definable_algebra,
    identity_desc,
    least_desc_morphism,
    push_filter,
    satisfying_points,
)
from kbgeo.core import (MAX_NESTING, OpApp, ParseError, SignatureError, Term, Var, VarSet,
                        bijections, term_functions)
from kbgeo.equivalence import _atom_constraints, _check_bounds, _squares_commute
from kbgeo.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Equal,
    Exists,
    FalseF,
    Forall,
    Formula,
    FormulaContext,
    Implies,
    Not,
    Or,
    SubstNode,
    TrueF,
    _PRECS,
    atomic_formulas,
)
from kbgeo.lattice import DefinableAlgebra, FilterLattice, UnionMap, _check_witness
from kbgeo import semantics
from kbgeo.semantics import Geometry, _Valuation, _atom_mask, _equal_mask, _exists_mask


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


def model_nand() -> Model:
    """Two elements, g = NAND and P = {0}.  NAND is functionally complete, so
    over n variables the clone is all 2^(2^n) functions, while the seeds
    make every point its own atom within the first round."""
    return Model(Signature((("g", 2),), (("P", 1),)), (0, 1),
                 {"g": {(a, b): 1 - (a & b) for a in (0, 1) for b in (0, 1)}}, {"P": [(0,)]})


def model_clone_wall() -> Model:
    """Three elements, P = {0} and a binary g with rows 1 0 1 / 2 0 0 / 2 0 1,
    whose clone over two variables has up to 3^9 functions."""
    rows = ((1, 0, 1), (2, 0, 0), (2, 0, 1))
    return Model(Signature((("g", 2),), (("P", 1),)), (0, 1, 2),
                 {"g": {(a, b): rows[a][b] for a in range(3) for b in range(3)}}, {"P": [(0,)]})


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


def constant_models() -> list:
    """Two random models of each size 2 to 4 with a constant c, from a fixed
    seed: c and a unary op f with relations P and binary R, and c and a
    binary op g with P alone and no equality, which keeps the depth-2 atoms
    over three variables few."""
    rng = random.Random(2020)
    out = []
    for size in (2, 3, 4):
        carrier = tuple(range(size))

        def table(arity: int) -> dict:
            return {row: rng.choice(carrier) for row in itertools.product(carrier, repeat=arity)}

        def rows(arity: int) -> list:
            return [row for row in itertools.product(carrier, repeat=arity) if rng.random() < 0.5]

        out.append((f"cf{size}", Model(Signature((("c", 0), ("f", 1)), (("P", 1), ("R", 2))),
                                       carrier, {"c": table(0), "f": table(1)},
                                       {"P": rows(1), "R": rows(2)})))
        out.append((f"cg{size}", Model(Signature((("c", 0), ("g", 2)), (("P", 1),), False),
                                       carrier, {"c": table(0), "g": table(2)}, {"P": rows(1)})))
    return out


def op_models() -> list:
    """Six random 2-element models with one operation, from a fixed seed:
    three with a unary op f beside a binary R, then three with a binary op g
    beside a unary P.  Each table row is kept at even odds, and each op value
    is uniform.  The seed gives one model of each shape whose sweeps fail
    at n_max 2: f0, whose f is the identity, and g0, whose g is the meet, so
    that x1 and f(x1), or x1 and g(x1,x1), pull back alike.  In both, the
    pullback along x1, x2 := x1, x1 of a dual over two variables is not
    definable over one."""
    rng = random.Random(2034)
    carrier = (0, 1)

    def rows(arity: int) -> list:
        return [row for row in itertools.product(carrier, repeat=arity) if rng.random() < 0.5]

    out = []
    for i in range(3):
        f = {(a,): rng.choice(carrier) for a in carrier}
        out.append((f"f{i}", Model(Signature((("f", 1),), (("R", 2),)), carrier,
                                   {"f": f}, {"R": rows(2)})))
    for i in range(3):
        g = {row: rng.choice(carrier) for row in itertools.product(carrier, repeat=2)}
        out.append((f"g{i}", Model(Signature((("g", 2),), (("P", 1),)), carrier,
                                   {"g": g}, {"P": rows(1)})))
    return out


def in_new_thread(call):
    """`call()` run in a new thread, which keeps no geometry and no pair of
    knowledge bases, with their syntaxes and frames, from an earlier call:
    its result, or its exception raised here."""
    out = {}

    def run():
        try:
            out["result"] = call()
        except BaseException as exc:  # raised again in the caller's thread
            out["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    if "error" in out:
        raise out["error"]
    return out["result"]


def counted_pullbacks(monkeypatch) -> list:
    """The substitution of each pullback table built from now on, in any
    thread."""
    calls = []
    original = semantics.pullback_indices

    def counting(subst, source_space, target_space):
        calls.append(subst)
        return original(subst, source_space, target_space)

    monkeypatch.setattr(semantics, "pullback_indices", counting)
    return calls

def relabel_pairs() -> list:
    """24 models from a fixed seed, each paired with itself under a carrier
    permutation other than the identity.  A model has 2 to 4
    elements and a unary P, and at even odds a binary R and a unary op f;
    each table row is kept at even odds, and each op value is uniform."""
    rng = random.Random(2017)
    out = []
    for i in range(24):
        carrier = tuple(range(rng.randint(2, 4)))
        rels = (("P", 1),) + ((("R", 2),) if rng.random() < 0.5 else ())
        ops = (("f", 1),) if rng.random() < 0.5 else ()
        rel_tables = {name: [row for row in itertools.product(carrier, repeat=arity)
                             if rng.random() < 0.5] for name, arity in rels}
        op_tables = {name: {(a,): rng.choice(carrier) for a in carrier} for name, _ in ops}
        model = Model(Signature(ops, rels), carrier, op_tables or None, rel_tables)
        perm = carrier
        while perm == carrier:
            perm = tuple(rng.sample(carrier, len(carrier)))
        out.append((f"relabel{i} {perm}", model, relabeled(model, perm)))
    return out


def swap_pairs() -> list:
    """24 models from a fixed seed, each paired with itself with the tables of
    P and Q exchanged.  A model has 2 to 4 elements, unary P and Q with
    different tables, and at even odds a unary op f; each table row is kept
    at even odds, and each op value is uniform."""
    rng = random.Random(2017)
    out = []
    for i in range(24):
        carrier = tuple(range(rng.randint(2, 4)))
        ops = (("f", 1),) if rng.random() < 0.5 else ()
        p = q = []
        while p == q:
            p, q = ([(a,) for a in carrier if rng.random() < 0.5] for _ in "PQ")
        op_tables = {"f": {(a,): rng.choice(carrier) for a in carrier}} if ops else None
        model = Model(Signature(ops, (("P", 1), ("Q", 1))), carrier, op_tables, {"P": p, "Q": q})
        out.append((f"swap{i}", model, swapped(model, "P", "Q")))
    return out


def atom_count_pairs() -> list:
    """24 pairs from a fixed seed of two models with one signature and one
    carrier whose definable algebras have different atom counts over one or
    two variables.  A carrier has 2 to 4 elements, a signature a unary P, and
    at even odds a unary Q and a unary op f; each table row is kept at even
    odds, and each op value is uniform.  The second model is redrawn until
    its counts differ."""
    rng = random.Random(2017)

    def draw(sig: Signature, carrier: tuple) -> Model:
        rels = {name: [(a,) for a in carrier if rng.random() < 0.5] for name, _ in sig.rels}
        ops = {name: {(a,): rng.choice(carrier) for a in carrier} for name, _ in sig.ops}
        return Model(sig, carrier, ops or None, rels)

    def atom_counts(model: Model) -> tuple:
        return tuple(len(generate_definable_algebra(model, canonical_varset(n)).block_masks())
                     for n in (1, 2))

    out = []
    for i in range(24):
        rels = (("P", 1),) + ((("Q", 1),) if rng.random() < 0.5 else ())
        ops = (("f", 1),) if rng.random() < 0.5 else ()
        sig, carrier = Signature(ops, rels), tuple(range(rng.randint(2, 4)))
        model = draw(sig, carrier)
        counts = atom_counts(model)
        other = draw(sig, carrier)
        while atom_counts(other) == counts:
            other = draw(sig, carrier)
        out.append((f"atoms{i}", model, other))
    return out


def named_pair() -> tuple:
    """Two 3-element models with P = {1}, Q = {0} and P = {2}, Q = {0}: a
    relabelling pair in which atomic formulas name every element, so every
    point over three variables is its own atom: 27 atoms, 2^27 members."""
    sig = Signature((), (("P", 1), ("Q", 1)))
    return (Model(sig, (0, 1, 2), None, {"P": [(1,)], "Q": [(0,)]}),
            Model(sig, (0, 1, 2), None, {"P": [(2,)], "Q": [(0,)]}))


def symmetric_graph(edges) -> Model:
    """The 6-element model whose binary R holds on each edge in both
    directions."""
    rows = sorted({(a, b) for a, b in edges} | {(b, a) for a, b in edges})
    return Model(Signature((), (("R", 2),)), tuple(range(6)), None, {"R": rows})


def bounded_pairs() -> list:
    """Two pairs of 6-element graphs, as a symmetric binary R, that two
    variables do not tell apart and three do: the 6-cycle against two
    triangles, and K_{3,3} against the triangular prism, each the other's
    complement.  Neither pair is isomorphic under any relabelling, so a
    witness of either is not a carrier map."""
    triangles = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    return [
        ("6-cycle / two triangles",
         symmetric_graph([(i, (i + 1) % 6) for i in range(6)]), symmetric_graph(triangles)),
        ("K33 / prism", symmetric_graph([(a, b) for a in range(3) for b in range(3, 6)]),
         symmetric_graph(triangles + [(0, 3), (1, 4), (2, 5)])),
    ]


def cfi_pair(base_edges) -> tuple:
    """The Cai-Fuerer-Immerman pair over a base graph (Cai, Fuerer &
    Immerman, Combinatorica 1992) as two models with a symmetric binary R
    and no ops: not isomorphic, by the parity of the twisted edges.  Per
    base vertex v: a middle per even subset S of the edges at v, joined to
    the end a(v, e, 1) for e in S and to a(v, e, 0) for the other edges e
    at v.  Each base edge e = {u, v} joins a(u, e, i) to a(v, e, i); the
    second model crosses the first edge, joining a(u, e, i) to
    a(v, e, 1 - i).  Elements are "0", "1", ... in the order first met:
    per vertex, each middle, then its ends not yet met, then any end
    left."""
    label: dict = {}

    def element(key) -> str:
        return label.setdefault(key, str(len(label)))

    inner = []
    for v in sorted({v for edge in base_edges for v in edge}):
        at = [edge for edge in base_edges if v in edge]
        for size in range(0, len(at) + 1, 2):
            for subset in itertools.combinations(at, size):
                middle = element(("m", v, subset))
                inner += [(middle, element(("a", v, e, e in subset))) for e in at]
        for e, i in itertools.product(at, (False, True)):
            element(("a", v, e, i))

    def model(twisted: bool) -> Model:
        rows = list(inner)
        for k, (u, v) in enumerate(base_edges):
            for i in (False, True):
                j = i != (twisted and k == 0)
                rows.append((label["a", u, (u, v), i], label["a", v, (u, v), j]))
        rows += [(b, a) for a, b in rows]
        return Model(Signature((), (("R", 2),)), tuple(label.values()), None, {"R": rows})

    return model(False), model(True)


def two_six_cycles() -> tuple[Model, Model]:
    """Two 6-cycles of f, on "0".."5" and "6".."11", with R = {(a, f(f(a)))}
    on the first cycle alone, against R = {(b, f(f(f(b))))} on the second
    alone."""
    def shift(a: int, step: int) -> str:
        return str(a - a % 6 + (a + step) % 6)

    def model(step: int, start: int) -> Model:
        rows = [(str(a), shift(a, step)) for a in range(start, start + 6)]
        return Model(Signature((("f", 1),), (("R", 2),)), tuple(map(str, range(12))),
                     {"f": {(str(a),): shift(a, 1) for a in range(12)}}, {"R": rows})

    return model(2, 0), model(3, 6)


def relabeled(model: Model, perm) -> Model:
    """The model with carrier element i renamed perm[i]."""
    name = dict(zip(model.carrier, perm))
    ops = {op: {tuple(name[a] for a in args): name[value] for args, value in table.items()}
           for op, table in model.op_tables.items()}
    rels = {rel: [tuple(name[a] for a in row) for row in rows]
            for rel, rows in model.rel_tables.items()}
    return Model(model.sig, model.carrier, ops, rels)


def swapped(model: Model, first: str, second: str) -> Model:
    """The model with the tables of two relations exchanged."""
    rels = dict(model.rel_tables)
    rels[first], rels[second] = rels[second], rels[first]
    return Model(model.sig, model.carrier, model.op_tables, rels)


def seeded_pairs() -> list:
    """A relabelling pair of 3-element models with a unary op f and a unary P,
    and a swap pair of 3-element models with unary P and Q, from a fixed seed.
    Each first model is the first draw with proper nonempty relations, a
    non-identity op and two different relations, whose lattice over two
    variables has at most 32 members, so that the member-wise oracles stay
    fast."""
    rng = random.Random(2017)
    carrier = (0, 1, 2)

    def rows() -> list:
        while True:
            out = [(a,) for a in carrier if rng.random() < 0.5]
            if 0 < len(out) < len(carrier):
                return out

    def small(model: Model) -> bool:
        return len(KnowledgeBase(model, 2, 1).description(2)) <= 32

    while True:
        op = {(a,): rng.choice(carrier) for a in carrier}
        fp = Model(Signature((("f", 1),), (("P", 1),)), carrier, {"f": op}, {"P": rows()})
        if any(value != args[0] for args, value in op.items()) and small(fp):
            break
    while True:
        p, q = rows(), rows()
        pq = Model(Signature((), (("P", 1), ("Q", 1))), carrier, None, {"P": p, "Q": q})
        if p != q and small(pq):
            break
    return [("fp relabel", fp, relabeled(fp, (2, 0, 1))), ("pq swap", pq, swapped(pq, "P", "Q"))]


def renaming_families(sig: Signature, n_max: int) -> list:
    """Every family of per-size variable permutations over sizes 1..n_max but
    the identity, as pure renamings in product order: the automorphisms the
    default witness search once tried after the relation permutations, and
    the reference that the search without them is tested against."""
    per_size = [itertools.permutations(canonical_varset(n).names) for n in range(1, n_max + 1)]
    return [FormulaAutomorphism.variable_renaming(sig, dict(enumerate(family, 1)))
            for family in itertools.product(*per_size)
            if any(images != canonical_varset(n).names for n, images in enumerate(family, 1))]


def random_query(rng: random.Random, sig: Signature, n: int, depth: int,
                 connectives: int = 4) -> Formula:
    """A seeded formula over the canonical variable set of size n: each leaf
    an atomic formula of `atomic_formulas(sig, X_n, depth)`, each inner node
    one of !, &, |, ->, exists and forall, at most `connectives` of them on
    any path from the root, and no substitution node."""
    atoms = atomic_formulas(sig, canonical_varset(n), depth)
    names = canonical_varset(n).names

    def grow(budget: int) -> Formula:
        kind = rng.randrange(7) if budget else 0
        if kind == 0:
            return rng.choice(atoms)
        if kind == 1:
            return Not(grow(budget - 1))
        if kind in (2, 3, 4):
            return (And, Or, Implies)[kind - 2](grow(budget - 1), grow(budget - 1))
        return (Exists, Forall)[kind - 5](rng.choice(names), grow(budget - 1))

    return grow(connectives)


def map_query(phi: FormulaAutomorphism, f: Formula, n: int) -> Formula:
    """phi over a whole formula over the canonical variable set of size n:
    its atomic formulas by `phi.map_formula`, and each quantified variable
    by phi's renaming over size n, so that bound variables are renamed with
    the free ones."""
    renaming = phi.renaming_for(n)
    rename = {name: image.name for name, image in zip(renaming.source.names, renaming.images)}

    def go(f: Formula) -> Formula:
        if isinstance(f, (Atom, Equal)):
            return phi.map_formula(f, n)
        if isinstance(f, Not):
            return Not(go(f.body))
        if isinstance(f, (And, Or, Implies)):
            return type(f)(go(f.left), go(f.right))
        return type(f)(rename[f.var], go(f.body))

    return go(f)


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


def brute_atomic_classes(model: Model, k: int) -> list:
    """The rows of the k-variable space grouped by the truth values, row by
    row, of every relation atom over the variables and every equality
    between two variables (for a signature without operations).  Rows in
    different groups are separated by an atomic formula, so lie in
    different atoms: singleton groups make every set of rows definable."""
    rows = brute_rows(model, k)
    groups = {}
    for row in rows:
        values = [args in model.rel_tables[name]
                  for name, arity in model.sig.rels
                  for args in itertools.product(row, repeat=arity)]
        if model.sig.with_equality:
            values += [a == b for a, b in itertools.product(row, repeat=2)]
        groups.setdefault(tuple(values), []).append(row)
    return list(groups.values())


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


def brute_holds(f: Formula, env: dict, model: Model) -> bool:
    """Truth of a formula at one assignment, one node at a time: terms by
    eval_term, a quantifier by trying every carrier element, and a
    substitution node at the assignment its images evaluate to."""
    if isinstance(f, Atom):
        return tuple(eval_term(t, env, model) for t in f.args) in model.rel_tables[f.rel]
    if isinstance(f, Equal):
        return eval_term(f.left, env, model) == eval_term(f.right, env, model)
    if isinstance(f, Not):
        return not brute_holds(f.body, env, model)
    if isinstance(f, And):
        return brute_holds(f.left, env, model) and brute_holds(f.right, env, model)
    if isinstance(f, Or):
        return brute_holds(f.left, env, model) or brute_holds(f.right, env, model)
    if isinstance(f, Implies):
        return not brute_holds(f.left, env, model) or brute_holds(f.right, env, model)
    if isinstance(f, (Exists, Forall)):
        found = (brute_holds(f.body, {**env, f.var: e}, model) for e in model.carrier)
        return any(found) if isinstance(f, Exists) else all(found)
    if isinstance(f, SubstNode):
        return brute_holds(f.body, {name: eval_term(t, env, model) for name, t
                                    in zip(f.subst.source.names, f.subst.images)}, model)
    if isinstance(f, (TrueF, FalseF)):
        return isinstance(f, TrueF)
    raise TypeError(f"not a formula: {f!r}")


def brute_formula_mask(f: Formula, model: Model, n: int) -> int:
    """The points over the canonical variable set of size n, in enumeration
    order, at which `brute_holds` finds the formula true."""
    names = canonical_varset(n).names
    return sum(1 << p for p, row in enumerate(brute_rows(model, n))
               if brute_holds(f, dict(zip(names, row)), model))


def brute_preimage(composites: list, mask: int) -> int:
    """Target points whose composite lies in the source mask."""
    return sum(1 << p for p, q in enumerate(composites) if mask >> q & 1)


def brute_image(composites: list, mask: int) -> int:
    """Source points that are composites of points in the target mask."""
    return sum(1 << q for q in {composites[p] for p in range(len(composites)) if mask >> p & 1})


def memberwise_description_iso(iso) -> Report:
    """`build_description_iso` with every morphism a `DescMorphism` over all
    members: the same checks, in the same order, with the same messages.  It
    also makes the three comparisons that `build_description_iso` leaves out
    as holding by construction (identities, composites and the forward
    inverse), none of which adds to `checked`, so a report that differs
    shows a proof that does not hold."""
    sig = iso.kb1.model.sig
    objects1, objects2 = iso.kb1.description, iso.kb2.description
    inverse = iso.inverse_alphas()
    phi_inv = iso.phi.inverse()
    checked = 0
    failures = []

    def forward(m):
        a, b = len(m.source.varset), len(m.target.varset)
        assignment = {iso.alphas[a][k]: iso.alphas[b][v] for k, v in m.assignment.items()}
        return DescMorphism(objects2(a), objects2(b), iso.phi.map_subst(m.subst), assignment)

    def backward(m):
        a, b = len(m.source.varset), len(m.target.varset)
        assignment = {inverse[a][k]: inverse[b][v] for k, v in m.assignment.items()}
        return DescMorphism(objects1(a), objects1(b), phi_inv.map_subst(m.subst), assignment)

    sizes = range(1, iso.n_max + 1)
    family1, family2, images1 = {}, {}, {}
    for a in sizes:
        for b in sizes:
            lst1, lst2, img = [], [], []
            for subst in enumerate_substitutions(sig, canonical_varset(a),
                                                 canonical_varset(b), iso.depth):
                m1 = least_desc_morphism(objects1(a), objects1(b), subst)
                lst1.append(m1)
                checked += 1
                try:
                    img.append(forward(m1))
                except AdmissibilityError as exc:
                    failures.append(f"image of {subst} is not admissible: {exc}")
                    img.append(None)
                lst2.append(least_desc_morphism(objects2(a), objects2(b), subst))
            family1[(a, b)], family2[(a, b)], images1[(a, b)] = lst1, lst2, img

    for n in sizes:
        checked += 1
        if forward(identity_desc(objects1(n))) != identity_desc(objects2(n)):
            failures.append(f"identity over |X|={n} is not preserved")

    for a, b, c in itertools.product(sizes, repeat=3):
        for m1, f1 in zip(family1[(a, b)], images1[(a, b)]):
            for m2, f2 in zip(family1[(b, c)], images1[(b, c)]):
                if f1 is None or f2 is None:
                    continue
                checked += 1
                if forward(compose_desc(m2, m1)) != compose_desc(f2, f1):
                    failures.append(f"composition not preserved for {m1.subst} then {m2.subst}")

    for morphisms in family2.values():
        for m2 in morphisms:
            checked += 1
            try:
                if forward(backward(m2)) != m2:
                    failures.append(f"forward functor does not invert {m2.subst}")
            except AdmissibilityError as exc:
                failures.append(f"backward image of {m2.subst} is not admissible: {exc}")

    entries = (
        ("object", f"canonical variable sets of sizes 1..{iso.n_max}"),
        ("substitution depth", str(iso.depth)),
        ("phi", iso.phi.describe()),
    )
    return Report("description functor", entries, checked, tuple(failures))


def memberwise_squares_commute(alphas, phi, kb1, kb2, source_n: int, target_n: int) -> bool:
    """The naturality squares between two sizes, checked on every member and
    every bounded substitution of the first knowledge base's depth."""
    alpha_a, alpha_b = alphas[source_n], alphas[target_n]
    for subst in enumerate_substitutions(kb1.model.sig, canonical_varset(source_n),
                                         canonical_varset(target_n), kb1.depth):
        mapped = phi.map_subst(subst)
        for mask in kb1.description(source_n).algebra.masks:
            push1 = kb1.geometry.table(subst).preimage(mask)
            if push1 not in alpha_b:
                raise UndefinablePullbackError(subst, mask, push1)
            if alpha_b[push1] != kb2.geometry.table(mapped).preimage(alpha_a[mask]):
                return False
    return True


def formulawise_atom_constraints(kb1, kb2, phi, n: int):
    """`_atom_constraints` by formulas: every atomic formula of
    `atomic_formulas` over size n within the first knowledge base's depth is
    built, mapped by `phi.map_formula` and valued by `satisfying_points`
    over each knowledge base's geometry, in order, and the loop stops at the
    first pair that clashes with one before it (None)."""
    varset = canonical_varset(n)
    forward, backward = {}, {}
    for atom in atomic_formulas(kb1.model.sig, varset, kb1.depth):
        mask1 = satisfying_points(atom, kb1.model, varset, geometry=kb1.geometry).mask
        mask2 = satisfying_points(phi.map_formula(atom, n), kb2.model, varset,
                                  geometry=kb2.geometry).mask
        if forward.get(mask1, mask2) != mask2 or backward.get(mask2, mask1) != mask1:
            return None
        forward[mask1] = mask2
        backward[mask2] = mask1
    return sorted(forward.items())


def memberwise_candidate_alphas(lat1, lat2, constraints):
    """The candidates of `search_find_functor_iso`, the block bijections
    between the classes of `constraint_classes`, with each member's image
    summed over the blocks inside it; nothing where `constraint_classes`
    gives None."""
    blocks1 = lat1.algebra.block_masks()
    blocks2 = lat2.algebra.block_masks()
    sig1 = {b: tuple(b & ~a == 0 for a, _ in constraints) for b in blocks1}
    sig2 = {b: tuple(b & ~a == 0 for _, a in constraints) for b in blocks2}
    classes1, classes2 = {}, {}
    for b in blocks1:
        classes1.setdefault(sig1[b], []).append(b)
    for b in blocks2:
        classes2.setdefault(sig2[b], []).append(b)
    if sorted(classes1) != sorted(classes2):
        return
    keys = sorted(classes1)
    if any(len(classes1[k]) != len(classes2[k]) for k in keys):
        return
    for choice in itertools.product(*(itertools.permutations(classes2[k]) for k in keys)):
        block_map = {}
        for key, images in zip(keys, choice):
            for b, c in zip(classes1[key], images):
                block_map[b] = c
        alpha = {}
        for mask in lat1.algebra.masks:
            image = 0
            for b, c in block_map.items():
                if b & mask == b:
                    image |= c
            alpha[mask] = image
        yield alpha


def relabeled_mask(mmap, space1, space2, mask: int) -> int:
    """The mask over `space2` of the carrier map's images of the points of
    `mask` over `space1`, point by point."""
    image = 0
    for idx in range(space1.size):
        if mask >> idx & 1:
            image |= 1 << space2.index_of(mmap.apply_values(space1.value_rows[idx]))
    return image


def memberwise_transport_tables(mmap, kb1, kb2) -> dict:
    """The alphas of `transport_model_iso`, with every point of every member
    relabelled, each image checked to be a member of the second lattice."""
    alphas = {}
    for n in range(1, kb1.n_max + 1):
        algebra1 = kb1.description(n).algebra
        algebra2 = kb2.description(n).algebra
        table = {}
        for mask in algebra1.masks:
            image = relabeled_mask(mmap, algebra1.space, algebra2.space, mask)
            if image not in algebra2.index:
                raise DefinabilityError(f"relabeled member {image:#x} is missing over size {n}")
            table[mask] = image
        alphas[n] = table
    return alphas


def memberwise_is_boolean(iso) -> bool:
    """`_is_boolean` by induction over the members: each is checked against
    itself without the atom holding its lowest point."""
    for n in range(1, iso.n_max + 1):
        alpha = iso.alphas.get(n)
        algebra1 = iso.kb1.description(n).algebra
        algebra2 = iso.kb2.description(n).algebra
        if (alpha is None or sorted(alpha) != list(algebra1.masks)
                or sorted(alpha.values()) != list(algebra2.masks)
                or sorted(alpha[x] for x in algebra1.block_masks())
                != list(algebra2.block_masks())):
            return False
        atom_of = {}
        for atom in algebra1.block_masks():
            for idx in range(algebra1.space.size):
                if atom >> idx & 1:
                    atom_of[1 << idx] = atom
        for mask in algebra1.masks:
            if mask == 0:
                if alpha[0] != 0:
                    return False
                continue
            atom = atom_of[mask & -mask]
            if alpha[mask] != alpha[mask ^ atom] | alpha[atom]:
                return False
    return True


def verify_admissibility_transfer(iso, n_max=None) -> Report:
    """Exhaustively confirm that a filter pair is admissible along a
    substitution exactly when its transported pair is admissible along the
    mapped substitution, for every bounded substitution of the witness's
    depth between sizes up to n_max, by default the witness's.

    On a witness the deciders report it is a corollary of the squares
    (`kbgeo.equivalence`'s module docstring): t2 lies inside pre1_s(t1)
    exactly when alpha_b(t2) lies inside alpha_b(pre1_s(t1)), which is
    pre2_phi(s)(alpha_a(t1)), because alpha_b is a Boolean isomorphism."""
    n_max = iso.n_max if n_max is None else n_max
    if n_max < 1:
        raise MismatchError("n_max must be at least 1")
    if n_max > iso.n_max:
        raise MismatchError("cannot verify beyond the witness bounds")
    geometry1, geometry2 = iso.kb1.geometry, iso.kb2.geometry
    checked = 0
    failures = []
    for a in range(1, n_max + 1):
        for b in range(1, n_max + 1):
            masks_a = iso.kb1.description(a).algebra.masks
            masks_b = iso.kb1.description(b).algebra.masks
            for subst in iso.kb1.substitutions(a, b):
                table1 = geometry1.table(subst)
                table2 = geometry2.table(iso.phi.map_subst(subst))
                for t1 in masks_a:
                    pre1 = table1.preimage(t1)
                    pre2 = table2.preimage(iso.alphas[a][t1])
                    for t2 in masks_b:
                        checked += 1
                        before = t2 & ~pre1 == 0
                        after = iso.alphas[b][t2] & ~pre2 == 0
                        if before != after:
                            failures.append(
                                f"transfer broken for {subst} on duals "
                                f"{t1:#x}, {t2:#x}: {before} vs {after}")
    entries = (
        ("object", f"canonical variable sets of sizes 1..{n_max}"),
        ("substitution depth", str(iso.depth)),
        ("phi", iso.phi.describe()),
    )
    return Report("admissibility transfer", entries, checked, tuple(failures))


def memberwise_check_duality(kb) -> Report:
    """`KnowledgeBase.check_duality` with every morphism built over all
    members by the public constructors: the same checks, in the same order,
    with the same messages."""
    n_max, depth = kb.n_max, kb.depth
    sizes = range(1, n_max + 1)
    checked = 0
    failures = []
    morphisms, duals = {}, {}
    for a, b in itertools.product(sizes, repeat=2):
        source, target = kb.description(a), kb.description(b)
        pairs, dual_pairs = [], []
        for subst in enumerate_substitutions(kb.model.sig, source.varset, target.varset, depth):
            checked += 1
            try:
                morphism = least_desc_morphism(source, target, subst)
            except UndefinablePullbackError as exc:
                failures.append(f"no least morphism between sizes {a}->{b}: {exc}")
                continue
            pairs.append(morphism)
            dual_pairs.append(content_morphism(morphism))
        morphisms[(a, b)], duals[(a, b)] = pairs, dual_pairs

    for n in sizes:
        dual = content_morphism(identity_desc(kb.description(n)))
        checked += 1
        if any(dual.assignment[m] != m for m in dual.assignment):
            failures.append(f"identity over |X|={n} does not dualize to the identity")

    for a, b, c in itertools.product(sizes, repeat=3):
        for m1, d1 in zip(morphisms[(a, b)], duals[(a, b)]):
            for m2, d2 in zip(morphisms[(b, c)], duals[(b, c)]):
                left = content_morphism(compose_desc(m2, m1))
                right = compose_cont(d1, d2)
                checked += 1
                if left != right:
                    failures.append(f"dual of a composite differs: sizes {a}->{b}->{c}, "
                                    f"subs {m1.subst} then {m2.subst}")

    entries = (
        ("object", f"canonical variable sets of sizes 1..{n_max}"),
        ("sizes", " ".join(str(len(kb.description(n))) for n in sizes)),
        ("morphism family", f"least assignments for substitutions of depth <= {depth}"),
    )
    return Report("duality", entries, checked, tuple(failures))


def memberwise_push_functoriality(kb) -> Report:
    """`KnowledgeBase.verify_push_functoriality` with every filter of every
    source lattice pushed by `push_filter`, directly and in two stages."""
    n_max, depth = kb.n_max, kb.depth
    sizes = range(1, n_max + 1)
    checked = 0
    failures = []
    for n in sizes:
        lattice = kb.description(n)
        ident = Substitution.identity(lattice.varset)
        for filt in lattice:
            checked += 1
            if push_filter(ident, filt, lattice) != filt:
                failures.append(f"identity push moved a filter over |X|={n}")

    triples = 0
    undefinable = set()
    for a, b, c in itertools.product(sizes, repeat=3):
        lat_a, lat_b, lat_c = (kb.description(n) for n in (a, b, c))
        for s1 in enumerate_substitutions(kb.model.sig, lat_a.varset, lat_b.varset, depth):
            for s2 in enumerate_substitutions(kb.model.sig, lat_b.varset, lat_c.varset, depth):
                composite = compose_subst(s1, s2)
                for filt in lat_a:
                    triples += 1
                    checked += 1
                    try:
                        direct = push_filter(composite, filt, lat_c)
                        staged = push_filter(s2, push_filter(s1, filt, lat_b), lat_c)
                    except UndefinablePullbackError as exc:
                        if exc.subst not in undefinable:
                            undefinable.add(exc.subst)
                            failures.append(f"push along {s1} then {s2}: {exc}")
                        continue
                    if direct != staged:
                        failures.append(f"push along {s1} then {s2} disagrees with the "
                                        f"composite on dual {filt.mask:#x}")

    entries = (
        ("object", f"canonical variable sets of sizes 1..{n_max}"),
        ("substitution depth", str(depth)),
        ("triples", str(triples)),
    )
    return Report("push functoriality", entries, checked, tuple(failures))


def eager_definable_algebra(model: Model, varset, max_term_depth=None) -> DefinableAlgebra:
    """`generate_definable_algebra` with every seed read off
    `term_functions(space, max_term_depth).functions`, the whole clone, in
    `itertools.product` and `itertools.combinations` order, no stop once
    the partition is discrete, and every block's witness checked through a
    fresh valuation."""
    space = Geometry(model).space(varset)
    clone = term_functions(space, max_term_depth)
    algebra = DefinableAlgebra(space)
    for rel, arity in model.sig.rels:
        rows = model.rel_tables[rel]
        for combo in itertools.product(clone.functions, repeat=arity):
            algebra._split(_atom_mask(rows, [f.values for f in combo]),
                           lambda: Atom(rel, tuple(f.witness for f in combo)))
    if model.sig.with_equality:
        for f1, f2 in itertools.combinations(clone.functions, 2):
            algebra._split(_equal_mask(f1.values, f2.values),
                           lambda: Equal(f1.witness, f2.witness))

    valuation = _Valuation(space)
    pending = list(algebra._leaves.items())
    while pending:
        node, block = pending.pop()
        body = algebra._witness(block)
        _check_witness(block, body, valuation)
        if len(varset) > 1 and len(algebra._leaves) < space.size:
            for var in varset.names:
                pending += algebra._split(_exists_mask(block, space, var),
                                          lambda: Exists(var, body), node)
    return algebra._seal(clone.saturated)


def preserves_structure(source: Model, target: Model, images: tuple) -> bool:
    """Whether the carrier map to `images` sends every op table and every
    relation table of `source` onto `target`'s, table by table."""
    lookup = dict(zip(source.carrier, images))
    for name, _ in source.sig.ops:
        table = source.op_tables[name]
        target_table = target.op_tables[name]
        for key, value in table.items():
            if target_table[tuple(lookup[e] for e in key)] != lookup[value]:
                return False
    for name, _ in source.sig.rels:
        rows = source.rel_tables[name]
        target_rows = target.rel_tables[name]
        mapped = frozenset(tuple(lookup[e] for e in row) for row in rows)
        if mapped != target_rows:
            return False
    return True


def filtered_isomorphisms(source: Model, target: Model) -> list:
    """The images of `model_isomorphisms`, by filtering every permutation of
    the target's carrier with `preserves_structure`."""
    if len(source.carrier) != len(target.carrier):
        return []
    return [images for images in itertools.permutations(target.carrier)
            if preserves_structure(source, target, images)]


def filtered_automorphisms(sig: Signature) -> list:
    """`enumerate_automorphisms` by filtering every relation permutation:
    the identity, then each other permutation that keeps every arity."""
    out = [FormulaAutomorphism.identity(sig)]
    names = list(sig.rel_names)
    for perm in itertools.permutations(names):
        if list(perm) == names:
            continue
        if any(sig.rel_arity(a) != sig.rel_arity(b) for a, b in zip(names, perm)):
            continue
        out.append(FormulaAutomorphism(sig, tuple(zip(names, perm))))
    return out


def product_bijections(cells) -> list:
    """`bijections(cells)` without `fits`, as `itertools.product` over the
    cells' `itertools.permutations`, each leaf a dict in cell order."""
    out = []
    for choice in itertools.product(*(itertools.permutations(targets) for _, targets in cells)):
        mapping: dict = {}
        for (sources, _), images in zip(cells, choice):
            mapping.update(zip(sources, images))
        out.append(mapping)
    return out


def constraint_classes(lat1: FilterLattice, lat2: FilterLattice,
                       constraints: list[tuple[int, int]]
                       ) -> Optional[list[tuple[list[int], list[int]]]]:
    """Each lattice's blocks grouped by the constraint masks that contain
    them: the pairs of matching classes in key order, or None when the keys
    or the class sizes differ, so that no block bijection keeps the
    constraints."""
    def classes(lat: FilterLattice, side: int) -> dict[tuple, list[int]]:
        out: dict[tuple, list[int]] = {}
        for b in lat.algebra.block_masks():
            out.setdefault(tuple(b & ~pair[side] == 0 for pair in constraints), []).append(b)
        return out

    classes1, classes2 = classes(lat1, 0), classes(lat2, 1)
    keys = sorted(classes1)
    if keys != sorted(classes2) or any(len(classes1[k]) != len(classes2[k]) for k in keys):
        return None
    return [(classes1[k], classes2[k]) for k in keys]


def search_find_functor_iso(kb1: KnowledgeBase, kb2: KnowledgeBase,
                            phi: FormulaAutomorphism) -> Optional[FunctorIso]:
    """`find_functor_iso` as a search over every block bijection that keeps
    the atom constraints, in one `bijections` run: its cells are each
    size's constraint classes, in size order, with each block tagged by its
    size, since blocks of different sizes can be equal masks.  Its cut lets
    every branch through until the last block of a size is placed; it then
    extends that size's atom images to a `UnionMap` and accepts it only when
    every naturality square between assigned sizes commutes.  So the
    candidates come in `itertools.product` order, size by size, and the
    first leaf is the witness."""
    _check_bounds(kb1, kb2)
    if not (kb1.saturated and kb2.saturated):
        return None
    cells: list[tuple[list[tuple[int, int]], list[int]]] = []
    ends: dict[tuple[int, int], int] = {}
    for n in range(1, kb1.n_max + 1):
        lat1, lat2 = kb1.description(n), kb2.description(n)
        if lat1.algebra.size != lat2.algebra.size:
            return None
        constraints = _atom_constraints(kb1, kb2, phi, n)
        if constraints is None:
            return None
        classes = constraint_classes(lat1, lat2, constraints)
        if classes is None:
            return None
        cells += [([(n, b) for b in blocks], images) for blocks, images in classes]
        ends[cells[-1][0][-1]] = n

    alphas: dict[int, UnionMap] = {}

    def fits(mapping: dict[tuple[int, int], int], source: tuple[int, int]) -> bool:
        n = ends.get(source)
        if n is None:
            return True
        alphas[n] = UnionMap({b: image for (m, b), image in mapping.items() if m == n})
        return all(_squares_commute(alphas, phi, kb1, kb2, other, n)
                   and (other == n or _squares_commute(alphas, phi, kb1, kb2, n, other))
                   for other in range(1, n + 1))

    if next(bijections(cells, fits), None) is None:
        return None
    return FunctorIso(phi, alphas, kb1, kb2)


def recursive_find_functor_iso(kb1: KnowledgeBase, kb2: KnowledgeBase,
                               phi: FormulaAutomorphism) -> Optional[FunctorIso]:
    """`search_find_functor_iso` as a recursion over the sizes: each
    candidate of a size that passes its squares opens a new `bijections`
    stream over the next size's constraint classes."""
    _check_bounds(kb1, kb2)
    n_max = kb1.n_max
    if not (kb1.saturated and kb2.saturated):
        return None
    groupings: list[list[tuple[list[int], list[int]]]] = []
    for n in range(1, n_max + 1):
        lat1, lat2 = kb1.description(n), kb2.description(n)
        if lat1.algebra.size != lat2.algebra.size:
            return None
        constraints = _atom_constraints(kb1, kb2, phi, n)
        if constraints is None:
            return None
        classes = constraint_classes(lat1, lat2, constraints)
        if classes is None:
            return None
        groupings.append(classes)

    alphas: dict[int, UnionMap] = {}

    def commute(a: int, b: int) -> bool:
        return _squares_commute(alphas, phi, kb1, kb2, a, b)

    def assign(n: int) -> bool:
        if n > n_max:
            return True
        for candidate in map(UnionMap, bijections(groupings[n - 1])):
            alphas[n] = candidate
            if all(commute(other, n) and (other == n or commute(n, other))
                   for other in range(1, n + 1)) and assign(n + 1):
                return True
            del alphas[n]
        return False

    if not assign(1):
        return None
    return FunctorIso(phi, dict(alphas), kb1, kb2)


# --- the tuple-based parser ---

_TUPLE_TOKEN = re.compile(r"(?P<name>\w+)|(?P<symbol>->|:=|[(),=.&|!{}])|\s+|(?P<bad>.)", re.S)


def tuple_tokenize(text: str) -> list[tuple[str, str, int]]:
    """Split text into (kind, value, offset) tokens; kind is 'name' or the symbol itself."""
    tokens = []
    for m in _TUPLE_TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        value, pos = m.group(), m.start()
        if kind == "symbol":
            tokens.append((value, value, pos))
        elif kind == "name" and (value[0].isalpha() or value[0] == "_"):
            tokens.append(("name", value, pos))
        else:
            raise ParseError(f"unexpected character {value[0]!r}", position=pos)
    return tokens


_TUPLE_END = "end"


def _tuple_too_deep(position: int) -> ParseError:
    return ParseError(f"input nested deeper than {MAX_NESTING} levels", position=position)


class TupleTokenStream:
    """Cursor over the (kind, value, offset) tokens of a text, ended by a
    sentinel token of kind `_TUPLE_END` at the text's length."""

    def __init__(self, text: str):
        self.tokens = tuple_tokenize(text)
        self.tokens.append((_TUPLE_END, "", len(text)))
        self.pos = 0
        self.depth = 0
        self.deepest = 0

    def enter(self, position: int) -> None:
        self.depth += 1
        if self.depth > self.deepest:
            if self.depth > MAX_NESTING:
                raise _tuple_too_deep(position)
            self.deepest = self.depth

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] is _TUPLE_END:
            raise ParseError("unexpected end of input", position=tok[2])
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", position=tok[2])
        return tok

    def match(self, kind: str) -> bool:
        if self.tokens[self.pos][0] == kind:
            self.pos += 1
            return True
        return False

    def items(self, read_item, open_kind: str, close_kind: str) -> list:
        self.expect(open_kind)
        items = [read_item()]
        while self.match(","):
            items.append(read_item())
        self.expect(close_kind)
        return items

    def require_done(self) -> None:
        tok = self.tokens[self.pos]
        if tok[0] is not _TUPLE_END:
            raise ParseError(f"trailing input {tok[1]!r}", position=tok[2])


def _tuple_parse_term_stream(ts: TupleTokenStream, sig: Signature, varset: VarSet) -> Term:
    kind, name, pos = ts.next()
    if kind != "name":
        raise ParseError(f"expected a term, found {name!r}", position=pos)
    if ts.peek()[0] == "(":
        arity = sig.op_arity(name)
        if arity is None:
            raise ParseError(f"unknown operation {name}", position=pos)
        ts.enter(pos)
        args = ts.items(lambda: _tuple_parse_term_stream(ts, sig, varset), "(", ")")
        ts.depth -= 1
        if len(args) != arity:
            raise ParseError(f"operation {name} expects {arity} arguments, got {len(args)}",
                             position=pos)
        return OpApp(name, tuple(args))
    if name in varset:
        return Var(name)
    arity = sig.op_arity(name)
    if arity == 0:
        return OpApp(name, ())
    if arity is not None:
        raise ParseError(f"operation {name} expects {arity} arguments, got 0", position=pos)
    raise ParseError(f"unknown term symbol {name}", position=pos)


def tuple_parse_term(text: str, sig: Signature, varset: VarSet) -> Term:
    ts = TupleTokenStream(text)
    term = _tuple_parse_term_stream(ts, sig, varset)
    ts.require_done()
    return term


def tuple_parse_formula(text: str, ctx: FormulaContext) -> Formula:
    ts = TupleTokenStream(text)
    f, _ = _tuple_parse_binary(ts, ctx, 0, 0)
    ts.require_done()
    return f


_TUPLE_INFIX = {"&": And, "|": Or, "->": Implies}


def _tuple_parse_binary(ts: TupleTokenStream, ctx: FormulaContext, min_prec: int,
                        depth: int) -> tuple[Formula, int]:
    left, height = _tuple_parse_unary(ts, ctx, depth)
    while True:
        tok = ts.peek()
        node = _TUPLE_INFIX.get(tok[0])
        if node is None or _PRECS[node] < min_prec:
            return left, height
        if depth + height >= MAX_NESTING:
            raise _tuple_too_deep(tok[2])
        ts.next()
        prec = _PRECS[node]
        right, right_height = _tuple_parse_binary(
            ts, ctx, prec if node is Implies else prec + 1, depth + 1)
        left = node(left, right)
        height = 1 + (height if height > right_height else right_height)


def _tuple_parse_unary(ts: TupleTokenStream, ctx: FormulaContext,
                       depth: int) -> tuple[Formula, int]:
    kind, value, pos = ts.peek()
    if kind is _TUPLE_END:
        raise ParseError("unexpected end of input", position=pos)
    if depth >= MAX_NESTING and (kind in ("!", "(") or value in ("exists", "forall", "subst")):
        raise _tuple_too_deep(pos)
    if kind == "!":
        ts.next()
        body, height = _tuple_parse_unary(ts, ctx, depth + 1)
        return Not(body), height + 1
    if kind == "(":
        ts.next()
        f, height = _tuple_parse_binary(ts, ctx, 0, depth + 1)
        ts.expect(")")
        return f, height + 1
    if kind == "name" and value in ("exists", "forall"):
        ts.next()
        var_tok = ts.expect("name")
        if var_tok[1] not in ctx.varset:
            raise ParseError(f"quantified variable {var_tok[1]} not in {ctx.varset}",
                             position=var_tok[2])
        ts.expect(".")
        body, height = _tuple_parse_binary(ts, ctx, 0, depth + 1)
        node = Exists if value == "exists" else Forall
        return node(var_tok[1], body), height + 1
    if kind == "name" and value == "subst":
        ts.next()
        ts.depth = ts.deepest = depth + 1

        def binding() -> tuple[str, Term]:
            name = ts.expect("name")[1]
            ts.expect(":=")
            return name, _tuple_parse_term_stream(ts, ctx.sig, ctx.varset)

        names, images = zip(*ts.items(binding, "{", "}"))
        terms_height = ts.deepest - depth
        try:
            source = VarSet(names)
        except SignatureError as exc:
            raise ParseError(f"bad substitution block: {exc}", position=pos) from None
        subst = Substitution(source, ctx.varset, images)
        body, height = _tuple_parse_binary(ts, FormulaContext(ctx.sig, source), 0, depth + 1)
        return SubstNode(subst, body), max(height + 1, terms_height)
    if kind == "name" and value == "true":
        ts.next()
        return TRUE, 0
    if kind == "name" and value == "false":
        ts.next()
        return FALSE, 0
    ts.depth = ts.deepest = depth
    arity = ctx.sig.rel_arity(value)
    if arity is not None:
        ts.next()
        args = ts.items(lambda: _tuple_parse_term_stream(ts, ctx.sig, ctx.varset), "(", ")")
        if len(args) != arity:
            raise ParseError(f"relation {value} expects {arity} arguments, got {len(args)}",
                             position=pos)
        return Atom(value, tuple(args)), ts.deepest - depth
    left = _tuple_parse_term_stream(ts, ctx.sig, ctx.varset)
    eq = ts.peek()
    if eq[0] != "=":
        raise ParseError("expected '=' after a bare term", position=eq[2])
    if not ctx.sig.with_equality:
        raise ParseError("equality is not enabled in this signature", position=eq[2])
    ts.next()
    right = _tuple_parse_term_stream(ts, ctx.sig, ctx.varset)
    return Equal(left, right), ts.deepest - depth
