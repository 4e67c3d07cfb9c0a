"""Seeded finite models, their `.kbm` text, and brute-force oracles.

Everything here is independent of the kbgeo package: models are plain
tuples, the oracles work on point indices in the lexicographic order the
package documents (variable order, then carrier order), and the answers they
give are what the benchmark checks the package's outputs against.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    """A finite model: carrier 0..size-1, operation and relation tables.

    ``ops`` holds (name, arity, table) with the table a tuple of values in
    lexicographic argument order; ``rels`` holds (name, arity, rows) with the
    rows a sorted tuple of element tuples.
    """

    size: int
    ops: tuple = ()
    rels: tuple = ()
    with_equality: bool = True


def random_spec(rng, size: int, ops, rels) -> Spec:
    """A model with random tables for the given (name, arity) symbols; each
    relation holds on each tuple with probability 1/2."""
    op_tables = []
    for name, arity in ops:
        table = tuple(rng.randrange(size) for _ in range(size ** arity))
        op_tables.append((name, arity, table))
    rel_tables = []
    for name, arity in rels:
        rows = tuple(row for row in itertools.product(range(size), repeat=arity)
                     if rng.random() < 0.5)
        rel_tables.append((name, arity, rows))
    return Spec(size, tuple(op_tables), tuple(rel_tables))


def to_kbm(spec: Spec, comment: str = "") -> str:
    """The model in the line-oriented `.kbm` format, byte-stable for a spec."""
    lines = [f"# {comment}"] if comment else []
    lines.append("carrier: " + " ".join(str(e) for e in range(spec.size)))
    lines.append(f"flag with_equality {'on' if spec.with_equality else 'off'}")
    lines += [f"op {name} {arity}" for name, arity, _ in spec.ops]
    lines += [f"rel {name} {arity}" for name, arity, _ in spec.rels]
    for name, arity, table in spec.ops:
        for key, value in zip(itertools.product(range(spec.size), repeat=arity), table):
            lines.append(f"op {name}: {','.join(map(str, key))} -> {value}")
    for name, _, rows in spec.rels:
        lines += [f"rel {name}: {','.join(map(str, row))}" for row in rows]
    return "\n".join(lines) + "\n"


def relabel(spec: Spec, perm) -> Spec:
    """The same model with element e renamed perm[e]."""
    ops = []
    for name, arity, table in spec.ops:
        new = [0] * len(table)
        for key, value in zip(itertools.product(range(spec.size), repeat=arity), table):
            new[_lex_index(tuple(perm[e] for e in key), spec.size)] = perm[value]
        ops.append((name, arity, tuple(new)))
    rels = [(name, arity, tuple(sorted(tuple(perm[e] for e in row) for row in rows)))
            for name, arity, rows in spec.rels]
    return Spec(spec.size, tuple(ops), tuple(rels), spec.with_equality)


def swap_tables(spec: Spec, first: str, second: str) -> Spec:
    """The same model with the tables of two same-arity relations exchanged."""
    tables = {name: rows for name, _, rows in spec.rels}
    swapped = {first: tables[second], second: tables[first]}
    rels = tuple((name, arity, swapped.get(name, rows)) for name, arity, rows in spec.rels)
    return Spec(spec.size, spec.ops, rels, spec.with_equality)


def _lex_index(values, size: int) -> int:
    index = 0
    for v in values:
        index = index * size + v
    return index


def isomorphic(a: Spec, b: Spec) -> bool:
    """Brute-force carrier isomorphism over all permutations."""
    if a.size != b.size:
        return False
    for perm in itertools.permutations(range(a.size)):
        if relabel(a, perm) == b:
            return True
    return False


# --- definable-algebra oracle ---


MAX_TERM_FUNCTIONS = 400


class TooLarge(Exception):
    """A model has more than MAX_TERM_FUNCTIONS term functions."""


def term_columns(spec: Spec, n: int) -> list[tuple]:
    """All term functions over n variables, as value columns over the points,
    found by closing the projections under the operations."""
    points = list(itertools.product(range(spec.size), repeat=n))
    funcs = {tuple(p[i] for p in points) for i in range(n)}
    frontier = set(funcs)
    while frontier:
        found = set()
        current = sorted(funcs)
        for _, arity, table in spec.ops:
            for combo in itertools.product(current, repeat=arity):
                if not any(f in frontier for f in combo):
                    continue
                col = tuple(table[_lex_index(args, spec.size)] for args in zip(*combo))
                if col not in funcs:
                    found.add(col)
        funcs |= found
        if len(funcs) > MAX_TERM_FUNCTIONS:
            raise TooLarge(f"more than {MAX_TERM_FUNCTIONS} term functions")
        frontier = found
    return sorted(funcs)


def seed_masks(spec: Spec, n: int) -> set[int]:
    """Point masks of every relation atom and equality over term functions."""
    cols = term_columns(spec, n)
    npoints = spec.size ** n
    out = {0, (1 << npoints) - 1}
    for _, arity, rows in spec.rels:
        rowset = set(rows)
        for combo in itertools.product(cols, repeat=arity):
            mask = 0
            for p, args in enumerate(zip(*combo)):
                if args in rowset:
                    mask |= 1 << p
            out.add(mask)
    if spec.with_equality:
        for f, g in itertools.combinations(cols, 2):
            mask = 0
            for p in range(npoints):
                if f[p] == g[p]:
                    mask |= 1 << p
            out.add(mask)
    return out


def exists_mask(mask: int, size: int, n: int, axis: int) -> int:
    """Cylindrify a point mask along one variable."""
    weight = size ** (n - 1 - axis)
    roots = set()
    for p in range(size ** n):
        if mask >> p & 1:
            roots.add(p - (p // weight) % size * weight)
    out = 0
    for p in range(size ** n):
        if p - (p // weight) % size * weight in roots:
            out |= 1 << p
    return out


def _split(blocks: list[int], by: int) -> list[int]:
    out = []
    for b in blocks:
        inside, outside = b & by, b & ~by
        out += [m for m in (inside, outside) if m]
    return out


def atoms(spec: Spec, n: int) -> list[int]:
    """Atoms of the definable algebra by partition refinement.

    Start from the full space, split by every seed, then split by the
    projection of every block along every variable until nothing changes.
    The algebra is exactly the unions of the returned blocks.
    """
    blocks = [(1 << spec.size ** n) - 1]
    for seed in sorted(seed_masks(spec, n)):
        blocks = _split(blocks, seed)
    while True:
        before = len(blocks)
        for b in list(blocks):
            for axis in range(n):
                blocks = _split(blocks, exists_mask(b, spec.size, n, axis))
        if len(blocks) == before:
            return sorted(blocks)


def brute_family(spec: Spec, n: int) -> set[int]:
    """Every definable mask, grown by a plain fixpoint over complement, union
    and projection from the seeds.  Exponential: small cases only."""
    full = (1 << spec.size ** n) - 1
    family = set(seed_masks(spec, n))
    while True:
        grown = set(family)
        for m in family:
            grown.add(full & ~m)
            grown.update(exists_mask(m, spec.size, n, axis) for axis in range(n))
        grown.update(a | b for a, b in itertools.combinations(family, 2))
        if grown == family:
            return family
        family = grown


def closure_by_atoms(mask: int, blocks) -> int:
    """The least union of atoms containing the mask: the OR of atoms it meets."""
    out = 0
    for b in blocks:
        if b & mask:
            out |= b
    return out


# --- formulas: a tuple syntax the benchmark generates, prints and evaluates ---
#
# Terms are ("var", name) or ("op", name, args); formulas are ("true",),
# ("false",), ("atom", rel, args), ("eq", left, right), ("not", f),
# ("and" | "or" | "implies", f, g) and ("exists" | "forall", var, f).


def random_term(rng, spec: Spec, names, depth: int = 1):
    if depth == 0 or not spec.ops or rng.random() < 0.6:
        return ("var", rng.choice(names))
    name, arity, _ = rng.choice(spec.ops)
    return ("op", name, tuple(random_term(rng, spec, names, depth - 1) for _ in range(arity)))


def random_formula(rng, spec: Spec, names, depth: int):
    if depth == 0 or rng.random() < 0.25:
        if spec.with_equality and rng.random() < 0.25:
            return ("eq", random_term(rng, spec, names), random_term(rng, spec, names))
        name, arity, _ = rng.choice(spec.rels)
        return ("atom", name, tuple(random_term(rng, spec, names) for _ in range(arity)))
    kind = rng.choice(("not", "and", "or", "implies", "exists", "forall"))
    if kind == "not":
        return ("not", random_formula(rng, spec, names, depth - 1))
    if kind in ("exists", "forall"):
        return (kind, rng.choice(names), random_formula(rng, spec, names, depth - 1))
    return (kind, random_formula(rng, spec, names, depth - 1),
            random_formula(rng, spec, names, depth - 1))


def term_text(t) -> str:
    if t[0] == "var":
        return t[1]
    return f"{t[1]}({','.join(term_text(a) for a in t[2])})"


_INFIX = {"and": "&", "or": "|", "implies": "->"}


def formula_text(f) -> str:
    """Fully parenthesized text in the package's formula syntax."""
    kind = f[0]
    if kind in ("true", "false"):
        return kind
    if kind == "atom":
        return f"{f[1]}({','.join(term_text(a) for a in f[2])})"
    if kind == "eq":
        return f"{term_text(f[1])} = {term_text(f[2])}"
    if kind == "not":
        return f"!({formula_text(f[1])})"
    if kind in _INFIX:
        return f"({formula_text(f[1])} {_INFIX[kind]} {formula_text(f[2])})"
    return f"({kind} {f[1]}. {formula_text(f[2])})"


def term_column(spec: Spec, names, t) -> list:
    """Values of a term at every point over variables `names`."""
    points = itertools.product(range(spec.size), repeat=len(names))
    if t[0] == "var":
        i = list(names).index(t[1])
        return [p[i] for p in points]
    table = next(table for name, _, table in spec.ops if name == t[1])
    cols = [term_column(spec, names, a) for a in t[2]]
    return [table[_lex_index(args, spec.size)] for args in zip(*cols)]


def image_mask(spec: Spec, images, target_names, mask: int) -> int:
    """The pointwise image of a target-space mask under a substitution with
    the given image terms: each point maps to the tuple of image values."""
    cols = [term_column(spec, target_names, t) for t in images]
    out = 0
    for p, values in enumerate(zip(*cols)):
        if mask >> p & 1:
            out |= 1 << _lex_index(values, spec.size)
    return out


def formula_mask(spec: Spec, names, f) -> int:
    """The points over variables `names` at which the formula holds."""
    n = len(names)
    full = (1 << spec.size ** n) - 1
    axis = {name: i for i, name in enumerate(names)}
    rows = {name: set(r) for name, _, r in spec.rels}
    column = functools.partial(term_column, spec, names)

    def mask_of(bits) -> int:
        out = 0
        for p, bit in enumerate(bits):
            if bit:
                out |= 1 << p
        return out

    def ev(f) -> int:
        kind = f[0]
        if kind == "true":
            return full
        if kind == "false":
            return 0
        if kind == "atom":
            table = rows[f[1]]
            return mask_of(args in table for args in zip(*(column(a) for a in f[2])))
        if kind == "eq":
            return mask_of(a == b for a, b in zip(column(f[1]), column(f[2])))
        if kind == "not":
            return full & ~ev(f[1])
        if kind == "and":
            return ev(f[1]) & ev(f[2])
        if kind == "or":
            return ev(f[1]) | ev(f[2])
        if kind == "implies":
            return (full & ~ev(f[1])) | ev(f[2])
        if kind == "exists":
            return exists_mask(ev(f[2]), spec.size, n, axis[f[1]])
        if kind == "forall":
            return full & ~exists_mask(full & ~ev(f[2]), spec.size, n, axis[f[1]])
        raise ValueError(f"unknown formula node {kind!r}")

    return ev(f)


def from_package(f):
    """Convert a parsed kbgeo formula or term into the tuple syntax, by node
    class name and public fields."""
    kind = type(f).__name__
    if kind == "Var":
        return ("var", f.name)
    if kind == "OpApp":
        return ("op", f.op, tuple(from_package(a) for a in f.args))
    if kind in ("TrueF", "FalseF"):
        return (kind[:-1].lower(),)
    if kind == "Atom":
        return ("atom", f.rel, tuple(from_package(a) for a in f.args))
    if kind == "Equal":
        return ("eq", from_package(f.left), from_package(f.right))
    if kind == "Not":
        return ("not", from_package(f.body))
    if kind in ("And", "Or", "Implies"):
        return (kind.lower(), from_package(f.left), from_package(f.right))
    if kind in ("Exists", "Forall"):
        return (kind.lower(), f.var, from_package(f.body))
    raise ValueError(f"unsupported formula node {kind}")
