"""The four workloads: seeded case lists, the calls each case times, and the
checks that decide whether a case's outputs are right.

A workload's setup draws its models from the seed, loads them through
`kb.cli.load_model_text` and returns a list of `Case`s.  A case's `run` makes
only kbgeo calls and is what the benchmark times; its `check` runs afterwards,
untimed, and compares the outputs with answers from `gen`, which never calls
the package to compute them.

The slot tables fix how many cases of each shape a run has; the seed only
chooses the tables of each model.  That keeps the work of a run nearly the
same from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import gen

U = (("P", 1),)
UQ = (("P", 1), ("Q", 1))
P_R = (("P", 1), ("R", 2))
R2 = (("R", 2),)
F = (("f", 1),)
G = (("g", 2),)

WITNESSED = "EQUIVALENT_WITNESSED"
INEQUIVALENT = "INEQUIVALENT"
UNKNOWN = "UNKNOWN"


@dataclass
class Case:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, bool, str]]  # -> (correct, decided, detail)


DRAWS = 5000


def draw(rng, size: int, ops, rels, want: dict[int, int],
         accept=lambda spec: True) -> gen.Spec:
    """A random model whose definable algebras have `want[n]` atoms at each n,
    and that `accept` takes."""
    for _ in range(DRAWS):
        spec = gen.random_spec(rng, size, ops, rels)
        if accept(spec) and atom_counts(spec, want) == want:
            return spec
    raise RuntimeError(f"no {size}-element model with atom counts {want} in {DRAWS} draws")


def atom_counts(spec: gen.Spec, sizes) -> dict[int, int]:
    try:
        return {n: len(gen.atoms(spec, n)) for n in sizes}
    except gen.TooLarge:
        return {}


class Loader:
    """Loads models through the package and keeps every `.kbm` text it gave."""

    def __init__(self, kb):
        self.kb = kb
        self.texts: list[str] = []

    def __call__(self, spec: gen.Spec, label: str):
        text = gen.to_kbm(spec, label)
        self.texts.append(text)
        return self.kb.cli.load_model_text(text, origin=label)


def _expand(slots):
    for count, *shape in slots:
        for _ in range(count):
            yield shape


# --- lattice_ladder ---

# (cases, carrier size, ops, rels, n, atoms): each lattice has 2^atoms members.
# The median and the 90th percentile fall inside the 40-case and the 36-case
# blocks, whose models are alike: every 4-element model with 6 atoms at n = 2
# has |P| = 2.
LADDER = (
    (4, 2, (), U, 1, 2), (4, 2, (), P_R, 1, 2), (4, 3, (), UQ, 1, 3),
    (4, 3, G, U, 1, 3), (4, 2, G, P_R, 1, 2),
    (3, 2, (), U, 2, 4), (3, 2, F, U, 2, 4), (3, 2, G, U, 2, 4), (3, 2, (), U, 3, 4),
    (2, 10, (), P_R, 1, 4), (2, 3, (), U, 2, 5), (2, 5, F, UQ, 1, 5), (2, 4, (), U, 2, 5),
    (40, 4, (), U, 2, 6),
    (36, 7, F, U, 1, 7),
    (1, 2, (), P_R, 3, 8), (1, 2, F, U, 3, 8), (1, 3, (), R2, 2, 9), (1, 9, F, U, 1, 9),
)
BRUTE_MAX_ATOMS = 6


def ladder_setup(kb, rng, load: Loader) -> list[Case]:
    cases = []
    for i, (size, ops, rels, n, k) in enumerate(_expand(LADDER)):
        spec = draw(rng, size, ops, rels, {n: k})
        label = f"lattice_ladder[{i}] size={size} n={n} atoms={k}"
        model = load(spec, label)
        atoms = gen.atoms(spec, n)
        family = gen.brute_family(spec, n) if k <= BRUTE_MAX_ATOMS else None
        varset = kb.core.canonical_varset(n)

        def run(model=model, varset=varset):
            lat = kb.lattice.build_filter_lattice(model, varset)
            return lat, kb.lattice.lattice_profile(lat)

        def check(out, atoms=atoms, family=family):
            lat, profile = out
            blocks = lat.algebra.block_masks()
            k = len(blocks)
            if profile != (2 ** k, k, (k,) * 2 ** k):
                return False, lat.saturated, f"profile {profile[:2]} is not Boolean on {k} atoms"
            if sorted(blocks) != atoms:
                return False, lat.saturated, f"{k} blocks, the oracle has {len(atoms)} atoms"
            if family is not None and set(lat.algebra.masks) != family:
                return False, lat.saturated, "family differs from the brute-force closure"
            return True, lat.saturated, ""

        cases.append(Case(label, run, check))
    return cases


# --- query_mix ---

# (carrier size, ops, rels, top n, atoms at top n): 256, 512 and 512 members,
# two models of each shape, since a batch's cost depends on its model.
QUERY_ALGEBRAS = ((2, (), P_R, 3, 8),) * 2 + ((3, F, U, 2, 9),) * 2 + ((9, F, U, 1, 9),) * 2
QUERY_CASES = 120
CLOSURES, PREIMAGES, FORMULAS, WITNESS_SAMPLES = 48, 24, 16, 6


def _package_term(kb, t):
    if t[0] == "var":
        return kb.core.Var(t[1])
    return kb.core.OpApp(t[1], tuple(_package_term(kb, a) for a in t[2]))


def _names(n: int) -> list[str]:
    return [f"x{i}" for i in range(1, n + 1)]


def query_setup(kb, rng, load: Loader) -> list[Case]:
    """Prebuild the algebras at every n up to the top one, then draw batches."""
    algebras = []
    for j, (size, ops, rels, top, k) in enumerate(QUERY_ALGEBRAS):
        spec = draw(rng, size, ops, rels, {top: k})
        model = load(spec, f"query_mix algebra[{j}] size={size} n={top} atoms={k}")
        levels = {}
        for n in range(1, top + 1):
            lat = kb.lattice.build_filter_lattice(model, kb.core.canonical_varset(n))
            levels[n] = (lat, gen.atoms(spec, n))
        algebras.append((spec, model, top, levels))
    return [_query_case(kb, rng, i, *algebras[i % len(algebras)]) for i in range(QUERY_CASES)]


def _query_case(kb, rng, i, spec, model, top, levels) -> Case:
    lat, atoms = levels[top]
    space = lat.algebra.space
    sets = [rng.getrandbits(space.size) & rng.getrandbits(space.size)
            for _ in range(CLOSURES)]
    point_sets = [kb.semantics.PointSet(space, m) for m in sets]

    pulls = []
    for _ in range(PREIMAGES):
        a, b = rng.randint(1, top), rng.randint(1, top)
        images = tuple(gen.random_term(rng, spec, _names(b)) for _ in range(a))
        subst = kb.core.Substitution(kb.core.canonical_varset(a), kb.core.canonical_varset(b),
                                     tuple(_package_term(kb, t) for t in images))
        target = levels[b][0]
        filt = target.filter_for_mask(sorted(target.algebra.masks)[
            rng.randrange(len(target))])
        image = gen.image_mask(spec, images, _names(b), filt.mask)
        pulls.append((subst, filt, levels[a][0],
                       gen.closure_by_atoms(image, levels[a][1])))

    names = _names(top)
    ctx = kb.formulas.FormulaContext(model.sig, kb.core.canonical_varset(top))
    formulas = [gen.random_formula(rng, spec, names, 3) for _ in range(FORMULAS)]
    texts = [gen.formula_text(f) for f in formulas]
    samples = sorted(rng.sample(range(len(lat)), WITNESS_SAMPLES))
    varset = ctx.varset

    def run():
        closures = [kb.lattice.closure(ps, lat.algebra) for ps in point_sets]
        preimages = [kb.lattice.filter_preimage(s, f, src) for s, f, src, _ in pulls]
        sats = [kb.semantics.satisfying_points(kb.formulas.parse_formula(t, ctx), model, varset)
                for t in texts]
        return closures, preimages, sats, lat.algebra.dump_lines()

    def check(out):
        closures, preimages, sats, lines = out
        for m, got in zip(sets, closures):
            if got.mask != gen.closure_by_atoms(m, atoms):
                return False, lat.saturated, f"closure of {m:#x} gave {got.mask:#x}"
        for (s, _, _, want), got in zip(pulls, preimages):
            if got.mask != want:
                return False, lat.saturated, f"filter_preimage along {s} gave {got.mask:#x}"
        for f, got in zip(formulas, sats):
            if got.mask != gen.formula_mask(spec, names, f):
                return False, lat.saturated, f"satisfying_points of {gen.formula_text(f)}"
        if len(lines) != 2 ** len(atoms):
            return False, lat.saturated, f"{len(lines)} dump lines for {len(atoms)} atoms"
        for j in samples:
            mask_text, card, witness = lines[j].split(" ", 2)
            mask = int(mask_text, 16)
            parsed = gen.from_package(kb.formulas.parse_formula(witness, ctx))
            if gen.closure_by_atoms(mask, atoms) != mask or int(card) != mask.bit_count() \
                    or gen.formula_mask(spec, names, parsed) != mask:
                return False, lat.saturated, f"witness line {lines[j]!r} does not re-evaluate"
        return True, lat.saturated, ""

    return Case(f"query_mix[{i}] size={spec.size} n={top}", run, check)


# --- verify_sweeps ---

N_MAX = 2
# (cases, carrier size, ops, rels, substitution depth, atoms at n = 1 and 2)
SWEEPS = (
    (70, 2, (), U, 2, (1, 2)), (13, 2, (), P_R, 2, (2, 4)), (13, 2, (), UQ, 2, (2, 4)),
    (2, 2, F, U, 1, (1, 2)), (1, 2, F, U, 2, (1, 2)), (1, 2, G, U, 1, (1, 2)),
)


def term_count(spec: gen.Spec, n: int, depth: int) -> int:
    """Terms over n variables of depth at most `depth`, counted syntactically."""
    count = n
    for _ in range(depth):
        count = n + sum(count ** arity for _, arity, _ in spec.ops)
    return count


def expected_triples(spec: gen.Spec, depth: int, sizes: dict[int, int]) -> int:
    """Composable substitution pairs times source filters, over sizes 1..N_MAX."""
    subs = {(a, b): term_count(spec, b, depth) ** a
            for a in sizes for b in sizes}
    return sum(subs[a, b] * subs[b, c] * 2 ** sizes[a]
               for a in sizes for b in sizes for c in sizes)


def sweeps_setup(kb, rng, load: Loader) -> list[Case]:
    cases = []
    for i, (size, ops, rels, depth, ks) in enumerate(_expand(SWEEPS)):
        want = dict(zip(range(1, N_MAX + 1), ks))
        spec = draw(rng, size, ops, rels, want)
        label = f"verify_sweeps[{i}] size={size} depth={depth} atoms={ks}"
        model = load(spec, label)
        sizes = " ".join(str(2 ** k) for k in ks)
        triples = str(expected_triples(spec, depth, want))

        def run(model=model, depth=depth):
            return (kb.categories.check_duality(model, N_MAX, depth),
                    kb.categories.verify_push_functoriality(model, depth, N_MAX))

        def check(out, sizes=sizes, triples=triples):
            duality, push = out
            passed = duality.passed and push.passed
            if not passed:
                return False, False, (duality.failures + push.failures)[0]
            if dict(duality.entries)["sizes"] != sizes:
                return False, passed, f"duality sizes {dict(duality.entries)['sizes']}, oracle {sizes}"
            if dict(push.entries)["triples"] != triples:
                return False, passed, f"push triples {dict(push.entries)['triples']}, oracle {triples}"
            return True, passed, ""

        cases.append(Case(label, run, check))
    return cases


# --- equiv_pairs ---

DEPTH = 2
KINDS = ("relabel", "swap", "distinguish")
# (cases, carrier size, ops, rels, atoms at n = 1 and 2, pair kinds in rotation).
# With the operation fixed, fresh relation tables rarely give a small enough
# algebra that differs, so the unary-op tail has equivalent pairs only.
PAIRS = (
    (45, 2, (), UQ, (1, 2), KINDS), (15, 2, (), UQ, (2, 4), KINDS),
    (54, 3, (), UQ, (2, 5), KINDS), (2, 3, F, UQ, (2, 5), KINDS[:2]),
)


def _distinguishing(rng, spec: gen.Spec, ks: dict[int, int]) -> gen.Spec:
    """Fresh relation tables on the same operations, with other atom counts
    and no larger algebra at n = N_MAX than `spec` or 2^4."""
    cap = max(ks[N_MAX], 4)
    for _ in range(DRAWS):
        fresh = gen.random_spec(rng, spec.size, (), [(n, a) for n, a, _ in spec.rels])
        other = gen.Spec(spec.size, spec.ops, fresh.rels, spec.with_equality)
        counts = atom_counts(other, ks)
        if counts and counts != ks and counts[N_MAX] <= cap:
            return other
    raise RuntimeError("no distinguishing relation tables found")


def pairs_setup(kb, rng, load: Loader) -> list[Case]:
    cases = []
    for i, (size, ops, rels, ks, kinds) in enumerate(_expand(PAIRS)):
        want = dict(zip(range(1, N_MAX + 1), ks))
        kind = kinds[i % len(kinds)]
        # A swap pair must not also be a relabelling, so that only a relation
        # permutation can witness it.
        spec = draw(rng, size, ops, rels, want, accept=lambda s: kind != "swap"
                    or not gen.isomorphic(s, gen.swap_tables(s, "P", "Q")))
        if kind == "relabel":
            perm = list(range(size))
            while perm == sorted(perm):
                rng.shuffle(perm)
            other = gen.relabel(spec, perm)
            expected = (WITNESSED, WITNESSED, WITNESSED)
        elif kind == "swap":
            other = gen.swap_tables(spec, "P", "Q")
            expected = (WITNESSED, WITNESSED, INEQUIVALENT)
        else:
            other = _distinguishing(rng, spec, want)
            expected = (INEQUIVALENT, INEQUIVALENT, INEQUIVALENT)
        label = f"equiv_pairs[{i}] {kind} size={size} atoms={ks}"
        m1, m2 = load(spec, label + " left"), load(other, label + " right")

        def run(m1=m1, m2=m2):
            eq = kb.equivalence
            return (eq.check_informational_equivalence(m1, m2, N_MAX, DEPTH).verdict,
                    eq.check_automorphic_equivalence(m1, m2, None, N_MAX, DEPTH).verdict,
                    eq.check_isomorphic(m1, m2).verdict)

        def check(verdicts, expected=expected):
            decided = UNKNOWN not in verdicts
            for name, got, want in zip(("informational", "automorphic", "isomorphic"),
                                       verdicts, expected):
                if got not in (want, UNKNOWN):
                    return False, decided, f"{name} verdict {got}, expected {want}"
            return True, decided, ""

        cases.append(Case(label, run, check))
    return cases


SETUPS = {
    "lattice_ladder": ladder_setup,
    "query_mix": query_setup,
    "verify_sweeps": sweeps_setup,
    "equiv_pairs": pairs_setup,
}

# Seconds one pass takes, checks included, on a busy 2-vCPU x86-64 host.  A
# run makes `--seconds` // this many passes: a fixed count, because a case's
# reported time is a minimum over passes, and a minimum over fewer passes
# reads higher.
PASS_SECONDS = {
    "lattice_ladder": 6.0,
    "query_mix": 6.0,
    "verify_sweeps": 8.0,
    "equiv_pairs": 8.0,
}
