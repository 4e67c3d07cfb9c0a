"""Bounded deciders for equivalence of finite models as knowledge bases.

Three strengths are covered: carrier isomorphism, automorphism-witnessed
isomorphism of the filter-lattice families, and the informational pipeline
combining invariant refutation with witness search.  Verdicts are tri-state:
a witness is verified before it is reported, a refutation names the invariant
that separates the models, and anything else is UNKNOWN together with the
bounds that were tried.

Supported automorphisms are generated by relation permutations and by
variable renamings; in a free term setting the invertible substitutions are
exactly the renamings, so this covers every automorphism built from symbol
shuffles.  Every report says so.  The default search tries the identity,
then the relation permutations, and no renaming: renamings are inner, so a
phi with a renaming has a witness exactly when its relation part has one
(`enumerate_automorphisms` gives the proof).  A pinned phi is searched as
it is.

A decision (`decide_equivalence`) runs over one `KnowledgeBase` per
model, which holds its bounds, n_max and the substitution depth among
them, so each lattice is built once; it passes the pair to
`find_functor_iso` (once per candidate automorphism) or
`transport_model_iso`, which read their bounds from it.  The two
knowledge bases must have equal signatures, n_max and depth.  Each alpha
is the lattice layer's `UnionMap` of its atom images, which reads a
member's image on lookup: phi's map sends each atom where phi sends its
witness formula, and a carrier map relabels the points of each atom.  So
a decision lists no member.  `find_functor_iso` checks the naturality
squares on atoms; the carrier witness's squares hold by the isomorphism,
and its transport checks only that the first model's pullbacks are
members (`transport_model_iso` gives the proof).  The carrier search is
one run of the backtracker `core.bijections`, and each phi has one
candidate ("One candidate"), so a decision stops at its first witness
and holds no list of carrier maps or candidates.  The model-level
deciders take their pair from `categories.knowledge_bases`: one knowledge
base for equal models, and the pair the last call on the same model
objects and bounds resolved, so `check_informational_equivalence` then
`check_automorphic_equivalence` on one pair builds each lattice once.
The atom constraints pair the two knowledge bases' atom tables
(`_atom_constraints`), so the search builds and values no atomic formula.

Generators.  Neither search visits every bounded substitution when it need
not.  Squares compose: pre_(s;t) = pre_t . pre_s in each model, and every
supported phi sends s;t to phi(s);phi(t), so a family whose squares
commute at s and at t, with pre1_s of each member a member, commutes at
s;t; likewise pre1 along s;t keeps members when pre1 along s and along t
do.  When every op has arity at most 1, every bounded s: X_a -> X_b is a
composite of `substitution_generators` among sizes up to max(a, b), and
each generator is bounded.  So when the first model's pullback of every
atom along every generator is a member (`KnowledgeBase.generators`,
checked once per knowledge base for every phi and the transport), no
bounded pullback is undefinable: `find_functor_iso` checks the generator
squares alone, which `KnowledgeBase.naturality` picks, and accepts
exactly what the full loops accept, and `transport_model_iso`
walks no pullback, since nothing is left to fail.  The sweeps
`check_duality` and `verify_push_functoriality` still visit every
bounded substitution.

Depth.  When every op has arity at most 1 and n_max is at least every
relation's arity, equality's 2 included, a decision at depth d >= 1 gives
the verdict and the witness lines of depth 1.  `substitution_generators`
is the same set at every d >= 1.  When its pullbacks are members, the
squares at the generators imply the squares at every composite, which
covers every bounded substitution of every depth between sizes up to
n_max.  A deeper atomic formula R(t1, ..., tk) over X_n is the pullback of
R(x1, ..., xk) over X_k along x_i := t_i, a bounded substitution since
k <= n_max, and phi maps it to the pullback of phi's image of R along
phi's image of that substitution; so its atom constraint follows from a
depth-0 constraint and that square.  Deeper constraints thus remove no
witness: the same phi is the first to have one, and the witness lines
name only phi and the lattice sizes, which the depth does not change.
When a generator pullback is undefinable, both depths give UNKNOWN, but
the note may name another pullback: at depth d the first undefinable one
in `enumerate_substitutions` order may be deeper, or a deeper constraint
may clash first.  The census checks the agreement on one order of every
pair of its representatives (`test_census_verdicts_agree_at_depths_1_and_2`).

The squares are the functor.  A witness from either search is reported as
it is: every check of `build_description_iso` then holds, by the proof
below, which needs two facts that hold by construction.  Its alphas are
Boolean isomorphisms (`_is_boolean`): phi's map is taken only when it
sends the atoms onto the atoms, and a carrier map does, since it
relabels every formula's extension.  And phi permutes each bounded
substitution set: a relation permutation leaves each substitution as it
is, and conjugating by renamings keeps term depth.  `build_description_iso` stays public as a
test oracle.

Proof.  Write pre_s for a model's pullback along s, x;y for "x, then y",
and k for an atom over X_a.  Every witness meets the square
alpha_b(pre1_s(k)) = pre2_phi(s)(alpha_a(k)) for every a, b <= n_max and
every s: X_a -> X_b within the depth, and both searches raise when
pre1_s(k) is not a member: `find_functor_iso` checks each square, or the
generator squares, which imply the rest, and a carrier witness meets them
all.  Pullbacks and Boolean alphas preserve
unions, so both sides of a square do, and the squares hold on every
member.  A pair (K, T) along t is admissible when the image of T along t
lies inside K, so (K, pre_t(K)) always is (`DefinableAlgebra.pullback`).
- Forward images: F of the least morphism along s pairs alpha_a(k) with
  alpha_b(pre1_s(k)) along phi(s), which the square at s makes
  pre2_phi(s)(alpha_a(k)): a member, and an admissible pair.
- Identities: F of the identity over size n pairs each alpha_n(k) with
  itself, and alpha_n permutes the target's atoms.
- Composites: the first model's composite of least morphisms along s1 and
  s2 sends k to pre1_s2(pre1_s1(k)) = pre1_(s1;s2)(k), because
  pre_(x;y) = pre_y . pre_x in each model (the `functor` sweep checks it).
  Its transport sends alpha_a(k) to alpha_c(pre1_s2(pre1_s1(k))), which
  the squares at s1 and at s2, the second on a member, make
  pre2_phi(s2)(pre2_phi(s1)(alpha_a(k))) = pre2_phi(s1;s2)(alpha_a(k)),
  as phi(s1);phi(s2) = phi(s1;s2).
- Backward images: phi^-1 also permutes each bounded set.  The second
  model's least morphism along s pairs each atom alpha_a(k) with
  pre2_s(alpha_a(k)), which the square at s' = phi^-1(s) makes
  alpha_b(pre1_s'(k)), a member; its backward image pairs k with
  pre1_s'(k) along s', an admissible pair.

Queries.  A witness answers corresponding queries alike: for n <= n_max
and every formula u over X_n built from the atomic formulas within the
depth by !, &, |, ->, exists and forall, alpha_n(val1(u)) = val2(phi(u)),
where phi acts on atoms and renames the variables, bound ones included, by
its renaming over size n.  By induction on u:
- Atoms hold by the atom constraints, which every witness meets.
- Boolean steps hold because the alphas are Boolean isomorphisms; forall
  is !exists!.
- exists x_i for n >= 2: let s: X_n -> X_n be x_i := x_k for some k != i,
  a bounded substitution of depth 0.  The image of A along s is
  (exists x_i A) & {x_i = x_k}, so exists x_i A = pre_s(cl(img_s(A))),
  where cl is the closure in the algebra.  The alphas commute with pre_s
  by the square at s, and so with cl . img_s, its left adjoint on members.
  With u phi's renaming over size n, phi(s) is x_u(i) := x_u(k), a
  substitution of the same kind, and phi maps exists x_i to exists x_u(i).
- exists x1 for n = 1: exists x1 A is empty when A is and full otherwise,
  and a Boolean isomorphism keeps the empty set, the full one and the
  nonempty ones.

Carriers.  Assume the signature has equality, the depth is at least 1
when there are ops, and n_max >= max(|M1|, |M2|).  Then a witness whose
phi has relation part pi exists only if M1 is isomorphic to pi(M2), the
second model with each relation R read as pi(R).  List M1 as a_1..a_m and
let delta, over X_m, be the conjunction of its diagram:
- x_i != x_j for i != j;
- f(x_i1, ..., x_ik) = x_j for every op f and argument tuple, with a_j
  the value of f at a_i1, ..., a_ik: atoms of depth 1;
- R(x_i1, ..., x_ik) where R holds at a_i1, ..., a_ik, and its negation
  where it does not, for every relation R.
val1(delta) holds the point (a_1, ..., a_m), so it is not empty.  By
"Queries", atoms and Boolean steps alone, m <= n_max gives
alpha_m(val1(delta)) = val2(phi(delta)), and a Boolean isomorphism keeps
the nonempty sets, so some point of M2 satisfies phi(delta): delta with
each R read as pi(R) and the variables permuted by phi's renaming over
size m.  Read in that order, its coordinates give a map from M1 into M2
that is injective, keeps every op fact, and keeps and reflects each R
in M1 as pi(R) in M2.  So |M1| <= |M2|.  The same step on M2's diagram
delta2 over X_|M2|, with alpha(val1(phi^-1(delta2))) = val2(delta2) not
empty, maps M2 injectively into M1, so the first map is a bijection,
and a bijection with those properties is an isomorphism from M1 to
pi(M2).  Without equality the inequalities are gone, and with ops at
depth 0 the op facts, so the claim needs both assumptions.  The converse
is not proved: on the census at n_max = |M| every pair isomorphic up to a
relation permutation is witnessed, except the 10 self-pairs whose search
meets an undefinable pullback, which stay UNKNOWN.  Below that bound the
search witnesses pairs that no carrier map relates, such as the 6-cycle
against two triangles over one and two variables.

One candidate.  Let I send each atom a over X_n to val2(phi(w_a)), with
w_a its witness formula, built from the seed cuts, atomic formulas over
X_n, by !, & and exists.  By "Queries", with each seed counted as an atom
constraint, every witness is I at any depth D at least every seed's term
depth.  Inside the scope of "Depth" this holds already at d, since a
witness meets the squares along every composite of the generators, so
every deeper constraint; and without ops every seed has depth 0.  So
`find_functor_iso` tries I alone.  The search it replaced, over every
block bijection that keeps the constraints, witnesses phi at d whenever I
passes the depth-d checks: I is one of its candidates, and no candidate
raises on a square that I passes.  So a verdict moves only where that
search finds no witness for phi at such a D, as on two 6-cycles of f with
R = {(a, f^2(a))} on one against R = {(b, f^3(b))} on the other at n_max
1 and depth 1: it ignored R(x1, f(f(x1))), and at depth 2 finds none.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Optional

from .core import (
    MismatchError,
    Model,
    ModelMap,
    Signature,
    SignatureError,
    Substitution,
    Var,
    bijections,
    canonical_varset,
    compose_subst,
    model_isomorphisms,
)
from .formulas import Atom, Equal, Formula
from .lattice import UndefinablePullbackError, UnionMap
from .categories import (AdmissibilityError, KnowledgeBase, Report, _Memo, _check_pairs,
                         knowledge_bases)
from .semantics import _Valuation, _gather

VERDICT_WITNESSED = "EQUIVALENT_WITNESSED"
VERDICT_INEQUIVALENT = "INEQUIVALENT"
VERDICT_UNKNOWN = "UNKNOWN"

SUPPORTED_CLASS = "relation permutations and variable renamings"


@dataclass(frozen=True)
class FormulaAutomorphism:
    """A symmetry of the formula system over a fixed signature.

    It permutes relation symbols (preserving arity) and renames the canonical
    variables sizewise; both parts act on formulas atom by atom.  Variable
    renamings are stored per size and default to the identity.
    """

    sig: Signature
    rel_images: tuple[tuple[str, str], ...]
    var_images: tuple[tuple[int, tuple[str, ...]], ...] = ()

    def __post_init__(self):
        rel_map = dict(self.rel_images)
        names = [n for n, _ in self.sig.rels]
        if sorted(rel_map) != sorted(names) or sorted(rel_map.values()) != sorted(names):
            raise SignatureError("relation images must permute the declared relations")
        for name, image in rel_map.items():
            if self.sig.rel_arity(name) != self.sig.rel_arity(image):
                raise SignatureError(f"relation map {name} -> {image} changes arity")
        object.__setattr__(self, "rel_images", tuple(sorted(rel_map.items())))
        var_map = {}
        conjugators = {}  # size: (inverse renaming, renaming)
        for n, images in self.var_images:
            varset = canonical_varset(n)
            if sorted(images) != sorted(varset.names):
                raise SignatureError(f"size {n} images must permute {varset.names}")
            if images != varset.names:
                var_map[n] = tuple(images)
                u = Substitution(varset, varset, tuple(Var(v) for v in images))
                conjugators[n] = (u.inverted(), u)
        object.__setattr__(self, "var_images", tuple(sorted(var_map.items())))
        object.__setattr__(self, "_conjugators", conjugators)

    @classmethod
    def identity(cls, sig: Signature) -> "FormulaAutomorphism":
        return cls(sig, tuple((n, n) for n in sig.rel_names))

    @classmethod
    def relation_permutation(cls, sig: Signature, mapping) -> "FormulaAutomorphism":
        mapping = dict(mapping)
        images = tuple((n, mapping.get(n, n)) for n in sig.rel_names)
        return cls(sig, images)

    @classmethod
    def variable_renaming(cls, sig: Signature, renamings) -> "FormulaAutomorphism":
        images = tuple((n, n) for n in sig.rel_names)
        var_images = tuple((n, tuple(perm)) for n, perm in dict(renamings).items())
        return cls(sig, images, var_images)

    def rel_image(self, name: str) -> str:
        for source, image in self.rel_images:
            if source == name:
                return image
        raise SignatureError(f"unknown relation {name}")

    def renaming_for(self, n: int) -> Substitution:
        pair = self._conjugators.get(n)
        return pair[1] if pair else Substitution.identity(canonical_varset(n))

    @property
    def is_identity(self) -> bool:
        return all(a == b for a, b in self.rel_images) and not self.var_images

    def inverse(self) -> "FormulaAutomorphism":
        rel = tuple((b, a) for a, b in self.rel_images)
        var = []
        for n, images in self.var_images:
            names = canonical_varset(n).names
            inverse = dict(zip(images, names))
            var.append((n, tuple(inverse[v] for v in names)))
        return FormulaAutomorphism(self.sig, rel, tuple(var))

    def map_subst(self, subst: Substitution) -> Substitution:
        """Conjugate a substitution between canonical variable sets by the
        sizewise renamings.  A size without a renaming adds no factor, so
        without renamings the substitution is returned as it is."""
        source = self._conjugators.get(len(subst.source))
        target = self._conjugators.get(len(subst.target))
        if source is not None:
            subst = compose_subst(source[0], subst)
        if target is not None:
            subst = compose_subst(subst, target[1])
        return subst

    def map_formula(self, f: Formula, n: int) -> Formula:
        """Act on an atomic formula over the canonical variable set of size n.
        A size without a renaming leaves the terms as they are."""
        u = self._conjugators.get(n, (None, None))[1]
        if isinstance(f, Atom):
            args = f.args if u is None else tuple(map(u.apply_to_term, f.args))
            return Atom(self.rel_image(f.rel), args)
        if isinstance(f, Equal):
            return f if u is None else Equal(u.apply_to_term(f.left), u.apply_to_term(f.right))
        raise MismatchError("only atomic formulas are mapped directly")

    def describe(self) -> str:
        if self.is_identity:
            return "identity"
        parts = []
        moved = [(a, b) for a, b in self.rel_images if a != b]
        if moved:
            if all((b, a) in moved for a, b in moved):
                seen = set()
                for a, b in moved:
                    if a not in seen:
                        parts.append(f"swap {min(a, b)} {max(a, b)}")
                        seen.update((a, b))
            else:
                parts.append("relperm " + ",".join(f"{a}->{b}" for a, b in moved))
        for n, images in self.var_images:
            names = canonical_varset(n).names
            inner = ",".join(f"{a}:{b}" for a, b in zip(names, images) if a != b)
            parts.append(f"renamevars[{n}] {inner}")
        return "; ".join(parts)


def enumerate_automorphisms(sig: Signature) -> list[FormulaAutomorphism]:
    """The default search order: the relation permutations that keep
    arities, lexicographically, so the identity first.  One `bijections`
    search over the relation names cuts a branch at its first image of
    another arity, which skips only permutations that change one.

    Variable renamings are supported but not searched, because they are
    inner: within the bounds, a phi that only renames variables has a witness
    exactly when the identity has one.  This is the bounded form of the
    theorem that automorphisms of the category of free algebras are inner
    (Mashevitzky, Plotkin & Plotkin, ERA-AMS 2002).  Write u_n for phi's
    renaming over size n, and pre2_s for `kb2.geometry.table(s).preimage`, so
    that pre2_{x;y} = pre2_y . pre2_x and each pre2_{u_n} permutes the
    members and the atoms of the second model's algebra.  phi sends w over
    X_n to its relation part's image of w renamed by u_n, valued as
    pre2_{u_n} of that image, so phi's map is beta_n = pre2_{u_n} . alpha_n,
    with alpha its relation part's map:
    - Atoms and constraints: mask2(A[u_n]) = pre2_{u_n}(mask2(A)), so beta
      sends the atoms onto the atoms and meets phi's constraints exactly
      when alpha does with its relation part's.
    - Squares: phi(s) = u_a^-1; s; u_b, so pre2_{phi(s)} is
      pre2_{u_b} . pre2_s . pre2_{u_a^-1}.  Applying pre2_{u_b^-1} to both
      sides of beta's square at (s, m) gives alpha's square at (s, m), so
      each square in the same (substitution, atom) order has the same
      outcome.
    - An undefinable pullback, pre1_s(m) not a member, depends on the first
      model alone.
    So both give a witness, both None, or both the same
    `UndefinablePullbackError`.  The identity is searched first, so no
    renaming family can change a report, and with a relation part the same
    map pairs phi with that part alone.  A pinned renaming is tried as is.
    """
    return list(_automorphisms(sig))


def _automorphisms(sig: Signature) -> Iterator[FormulaAutomorphism]:
    """`enumerate_automorphisms` as a stream, so a search that stops at its
    first witness builds no later phi."""
    names, arity = sig.rel_names, sig.rel_arity
    found = bijections([(names, names)], lambda mapping, name: arity(name) == arity(mapping[name]))
    return (FormulaAutomorphism(sig, tuple(mapping.items())) for mapping in found)


@dataclass
class FunctorIso:
    """A verified family of lattice bijections implementing an automorphism.

    ``alphas[n]`` maps dual masks of the first knowledge base's lattice over
    x1..xn to dual masks of the second's, a `UnionMap` when found or
    transported.  The first knowledge base's bounds record how far the
    conditions were checked.
    """

    phi: FormulaAutomorphism
    alphas: dict[int, Mapping[int, int]]
    kb1: KnowledgeBase
    kb2: KnowledgeBase

    @property
    def n_max(self) -> int:
        return self.kb1.n_max

    @property
    def depth(self) -> int:
        return self.kb1.depth

    def inverse_alphas(self) -> dict[int, Mapping[int, int]]:
        """Each alpha's inverse.  An alpha must be injective on members: a
        dict's values distinct, a `UnionMap`'s atom images nonzero and
        pairwise disjoint (their sum is then their union)."""
        inverses: dict[int, Mapping[int, int]] = {}
        for n, table in self.alphas.items():
            if isinstance(table, UnionMap):
                images = table.atoms.values()
                if all(images) and sum(images) == functools.reduce(operator.or_, images, 0):
                    inverses[n] = table.inverse()
            elif len(set(table.values())) == len(table):
                inverses[n] = {v: k for k, v in table.items()}
            if n not in inverses:
                raise MismatchError(f"alpha over |X|={n} is not injective")
        return inverses

    def sizes(self) -> str:
        """The size of each alpha's lattice, as a witness line."""
        return "; ".join(f"|X|={n}: {self.kb1.description(n).algebra.size} filters"
                         for n in sorted(self.alphas))

    def __deepcopy__(self, memo) -> "FunctorIso":
        """A copy holding each alpha as a mutable dict; the automorphism and
        the knowledge bases are shared."""
        return replace(self, alphas={n: dict(alpha.items()) for n, alpha in self.alphas.items()})


def _check_bounds(kb1: KnowledgeBase, kb2: KnowledgeBase) -> None:
    """Raise unless the two knowledge bases have one signature, n_max and
    depth."""
    if kb1.model.sig != kb2.model.sig:
        raise MismatchError("models have different signatures")
    if kb1.n_max != kb2.n_max:
        raise MismatchError("knowledge bases have different n_max")
    if kb1.depth != kb2.depth:
        raise MismatchError("knowledge bases have different depths")


def _atom_constraints(kb1: KnowledgeBase, kb2: KnowledgeBase, phi: FormulaAutomorphism,
                      n: int) -> Optional[list[tuple[int, int]]]:
    """Pairs (mask over kb1's model, required image mask over kb2's) forced by
    the automorphism's action on atomic formulas within the depth, sorted,
    or None when they clash.

    They pair the two knowledge bases' atom tables over size n
    (`KnowledgeBase.atom_table`), entry by entry in `atomic_formulas` order:
    kb1's masks of each relation R with kb2's of phi's image of R, and the
    two equality tables.  phi sends an atomic formula A to A[u_n], with u_n
    its renaming over size n, and mask2(A[u_n]) = pre2_{u_n}(mask2(A)), so
    where phi renames at size n each of kb2's masks is moved by
    pre2_{u_n}, `kb2.geometry.table(u_n).preimage`; no atomic formula is
    built or valued.  The pairs clash when two of them share a mask on one
    side and differ on the other, that is when they are not a partial
    bijection.  Both that and the sorted pairs depend only on the set of
    pairs, not on the order in which they are visited, so the result is
    the one a loop over the formulas that stops at its first clash gives.
    """
    relations1, equalities1 = kb1.atom_table(n)
    relations2, equalities2 = kb2.atom_table(n)
    if n in dict(phi.var_images):
        move = kb2.geometry.table(phi.renaming_for(n)).preimage
        relations2 = {rel: list(map(move, masks)) for rel, masks in relations2.items()}
        equalities2 = list(map(move, equalities2))
    pairs = set(zip(equalities1, equalities2))
    for rel, masks in relations1.items():
        pairs.update(zip(masks, relations2[phi.rel_image(rel)]))
    forward = dict(pairs)
    if len(forward) < len(pairs) or len(set(forward.values())) < len(pairs):
        return None
    return sorted(forward.items())


def _squares_commute(alphas: dict[int, Mapping[int, int]], phi: FormulaAutomorphism,
                     kb1: KnowledgeBase, kb2: KnowledgeBase,
                     source_n: int, target_n: int) -> bool:
    """Check the naturality squares along `kb1.naturality` between two
    assigned sizes: pushing then transporting equals transporting then
    pushing along the mapped substitution.

    The squares are checked on the atoms of the source lattice, ascending.
    The one caller, `find_functor_iso`, passes `UnionMap`s, which preserve
    unions, and so do pullbacks, so both sides of a square preserve
    unions: a member's pullback is definable and its square commutes when
    that holds for each of its atoms.  A carrier witness needs no square
    check (`transport_model_iso`).  The member loop in ascending order
    stops at the first member where a pullback is not definable (raise) or
    a square fails (False).  That member has an atom where one of the two
    happens, and the atom, a submask, is no larger; so the first such member
    is an atom, the first such atom, and the atom loop stops there in the
    same way, with the same error text.  Along generators the pullbacks
    are members, so nothing raises.
    """
    alpha_a = alphas[source_n]
    alpha_b = alphas[target_n]
    atoms = kb1.description(source_n).algebra.block_masks()
    target = kb1.description(target_n).algebra
    for subst in kb1.naturality(source_n, target_n):
        table1, table2 = kb1.geometry.table(subst), kb2.geometry.table(phi.map_subst(subst))
        for mask in atoms:
            if alpha_b[target.pullback(table1, mask)] != table2.preimage(alpha_a[mask]):
                return False
    return True


def find_functor_iso(kb1: KnowledgeBase, kb2: KnowledgeBase,
                     phi: FormulaAutomorphism) -> Optional[FunctorIso]:
    """The lattice bijections that phi induces, when they realize it, or
    None: each atom a over X_n goes to val2(phi(w_a)), w_a its witness
    formula, as under every witness (module docstring, "One candidate").
    The first model's algebra replays its splits over the second's space
    (`DefinableAlgebra.replay`) with each `Atom` cut renamed by phi, and the
    images move along phi's renaming as in `_atom_constraints`.  At every
    size the map must send the atoms onto the second model's and meet the
    atom constraints; then the squares along `KnowledgeBase.naturality`
    between each size and those up to it are checked, the generator squares
    deciding as every bounded one (module docstring, "Generators").
    Partial lattices never certify.
    """
    _check_bounds(kb1, kb2)
    if not (kb1.saturated and kb2.saturated):
        return None
    alphas: dict[int, UnionMap] = {}
    for n in range(1, kb1.n_max + 1):
        algebra2 = kb2.description(n).algebra
        valuation, renamed = _Valuation(algebra2.space), []  # `renamed` keeps its nodes alive

        def seed_mask(cut: Formula) -> int:
            if isinstance(cut, Atom):
                renamed.append(cut := Atom(phi.rel_image(cut.rel), cut.args))
            return valuation.mask(cut)

        images = kb1.description(n).algebra.replay(algebra2.space, seed_mask)
        if n in dict(phi.var_images):
            move = kb2.geometry.table(phi.renaming_for(n)).preimage
            images = {atom: move(image) for atom, image in images.items()}
        alpha = alphas[n] = UnionMap(images)
        constraints = _atom_constraints(kb1, kb2, phi, n)
        if (sorted(images.values()) != list(algebra2.block_masks()) or constraints is None
                or any(alpha.get(mask1) != mask2 for mask1, mask2 in constraints)):
            return None
    if not all(_squares_commute(alphas, phi, kb1, kb2, other, n)
               and (other == n or _squares_commute(alphas, phi, kb1, kb2, n, other))
               for n in alphas for other in range(1, n + 1)):
        return None
    return FunctorIso(phi, alphas, kb1, kb2)


def transport_model_iso(mmap: ModelMap, kb1: KnowledgeBase, kb2: KnowledgeBase) -> FunctorIso:
    """Turn a carrier isomorphism between the two knowledge bases' models into
    the induced lattice-family bijection, with the identity automorphism.

    Each point is relabelled once, and each atom of the first model goes to
    the union of its points' images; the alpha, a `UnionMap`, sends each
    member to the union of its atoms' images.  The one check left is the
    first model's pullbacks.  When `kb1.generators` is not None, it has
    already found every generator pullback of every atom a member, and then
    every bounded one is (module docstring), so nothing is walked.
    Otherwise, for every a, b <= n_max, every s: X_a -> X_b of
    `kb1.substitutions(a, b)` and every atom k over X_a, in that order,
    pre1_s(k) must be a member, and the first one that is not raises
    `UndefinablePullbackError`, as the squares of `find_functor_iso` do.
    The two knowledge bases must have equal bounds and equal term depth
    caps.  Of the second, only its point spaces are read.

    Proof that the rest holds.  Write h for the carrier map and H_n for the
    relabelling of points over X_n, so H_n(mu) = h . mu.  Since h is an
    isomorphism, t^M2(h . mu) = h(t^M1(mu)) for every term t, and every
    atomic formula A has mask2(A) = H_n(mask1(A)): the atom constraints hold.
    With equal caps, the second model's term closure, atom seeds and
    refinement are the first's relabelled by H_n, so its atoms are the
    images of the first's: each alpha is a Boolean isomorphism, and every
    relabelled member is a member.  A point mu lies in pre2_s(H_a(K))
    exactly when (h . mu) composed with s, which is h . (mu composed with s),
    lies in H_a(K), that is when mu composed with s lies in K.  So
    pre2_s(H_a(K)) = H_b(pre1_s(K)), which is the naturality square at s
    for the identity phi.  The isomorphism leaves open only whether
    pre1_s(K) is a member of the first lattice, the one check; on atoms it
    suffices, since pullbacks preserve unions."""
    if mmap.source != kb1.model or mmap.target != kb2.model:
        raise MismatchError("the carrier map does not run between the knowledge bases' models")
    _check_bounds(kb1, kb2)
    if kb1.max_term_depth != kb2.max_term_depth:
        raise MismatchError("knowledge bases have different term depth caps")
    sizes = range(1, kb1.n_max + 1)
    alphas: dict[int, UnionMap] = {}
    for n in sizes:
        algebra = kb1.description(n).algebra
        index_of = kb2.geometry.space(canonical_varset(n)).index_of
        bits = [1 << index_of(mmap.apply_values(row)) for row in algebra.space.value_rows]
        alphas[n] = UnionMap({atom: _gather(atom, bits) for atom in algebra.block_masks()})
    if kb1.generators is None:
        for a, b in itertools.product(sizes, repeat=2):
            atoms, target = kb1.description(a).algebra.block_masks(), kb1.description(b).algebra
            for subst in kb1.substitutions(a, b):
                table = kb1.geometry.table(subst)
                for atom in atoms:
                    target.pullback(table, atom)
    return FunctorIso(FormulaAutomorphism.identity(kb1.model.sig), alphas, kb1, kb2)


def _is_boolean(iso: FunctorIso) -> bool:
    """Whether every alpha is a Boolean isomorphism: its atom images are a
    permutation of the target's atoms, and it sends each member to the union
    of its atoms' images."""
    for n in range(1, iso.n_max + 1):
        alpha = iso.alphas.get(n)
        atoms1 = iso.kb1.description(n).algebra.block_masks()
        atoms2 = iso.kb2.description(n).algebra.block_masks()
        if alpha is None or not all(atom in alpha for atom in atoms1):
            return False
        images = {atom: alpha[atom] for atom in atoms1}
        if sorted(images.values()) != list(atoms2) or alpha != UnionMap(images):
            return False
    return True


def build_description_iso(iso: FunctorIso) -> Report:
    """Materialize the induced functor between the description categories and
    check the functor laws.  The deciders do not run it: the module
    docstring proves that it passes on every witness they report, and it
    stays as a test oracle.

    The forward functor F maps a least morphism along s to the transported
    assignment along the mapped substitution; the backward functor uses the
    inverse automorphism and inverse bijections.  Checked, as a morphism's
    constructor checks its pairs: F of every least morphism and of every
    identity of the first model; along each pair of least morphisms with
    admissible images, their composite in the first model and its transport;
    and the backward image of every least morphism of the second model.
    `checked` counts these checks.  The laws they leave out hold by
    construction, as below.

    It builds no morphism.  Each least morphism is its pullbacks of a
    generating set of its source lattice, admissible by construction
    (`DefinableAlgebra.pullback`), and transport moves those images: a
    totality test, then the pairs checked on the conjugate's table as a
    morphism's constructor checks them.  When every
    alpha is a Boolean isomorphism, which the witnesses of `find_functor_iso`
    and `transport_model_iso` are, the generators are the atoms, and a least
    morphism's member table is the `UnionMap` of its atom images; otherwise
    they are all the members, and every check is made member by member.  The
    atoms suffice: least morphisms, alphas and pullbacks preserve unions, so
    every map compared here does, and two such maps are equal when they
    agree on the atoms.  A pair (k, t) is admissible when the image of t
    lies inside k, and both sides preserve unions in k, so a member passes
    when each of its atoms does.  Pairs are checked in ascending order of the
    members of the lattice a morphism was first made on, which transport
    keeps.  The first member that fails has an atom that fails and is no
    larger, so it is that atom: the atom loop reports the same first failure,
    with the same text, and likewise for an undefinable pullback of a least
    morphism.  The report, `checked` included, is the member-wise one.

    A composable pair's composite is an image dict, checked, then
    transported, along the composite's table in the first model's rows
    (`KnowledgeBase._composite_rows`), read at the factors' indices in
    `substitutions`: the table the sweeps read.  Its totality test repeats
    its first factor's, which it passed.  Each conjugate is made once.

    The rest holds for alphas injective on members, which `inverse_alphas`
    requires first.  Write u_n for phi's renaming over size n.
    - Identities: F sends the identity over size n to the pairs
      (alpha(k), alpha(k)) along phi(id) = id, and its totality test requires
      the alpha(k) to be all of the target's generators.  So it holds the
      target identity's pairs, checked on the same table.
    - Composition: for m1 along s1 and m2 along s2, F(m2) after F(m1) sends
      alpha_a(k) to F(m2)(alpha_b(m1(k))) = alpha_c(m2(m1(k))): the pairs of
      the composite's transport, in the same order.  Its substitution, phi(s1)
      then phi(s2), is phi(s1 then s2) term for term, since u_b followed by
      u_b^-1 sends every variable to itself.  So its check would repeat the
      transport's on the same table, and a forward image is kept only as
      whether it is admissible.
    - Inversion: F of the backward image of m2 pairs alpha(alpha^-1(k)) = k
      with m2(k) along phi(phi^-1(s)) = s, so it is m2, and its checks are
      m2's.  The backward image of F(m1) is m1 in the same way.
    """
    sizes = range(1, iso.n_max + 1)
    boolean = _is_boolean(iso)
    algebras1 = {n: iso.kb1.description(n).algebra for n in sizes}
    algebras2 = {n: iso.kb2.description(n).algebra for n in sizes}
    inverse = iso.inverse_alphas()
    table1, table2 = iso.kb1.geometry.table, iso.kb2.geometry.table
    phi_inv = iso.phi.inverse()
    # Each direction's alphas, target algebras and conjugates' tables, keyed
    # by substitution, in the other model's geometry.
    forward = (iso.alphas, algebras2, _Memo(lambda s: table2(iso.phi.map_subst(s))))
    backward = (inverse, algebras1, _Memo(lambda s: table1(phi_inv.map_subst(s))))
    checked = 0
    failures: list[str] = []

    def generators(algebra):
        return algebra.index.atoms.keys() if boolean else algebra.index.keys()

    def transport(subst: Substitution, images: Mapping[int, int], direction) -> None:
        """Check the image of a morphism's pairs moved by the alphas, along
        the conjugate of its substitution."""
        alphas, algebras, conjugates = direction
        a, b = len(subst.source), len(subst.target)
        moved = {alphas[a][k]: alphas[b][v] for k, v in images.items()}
        if moved.keys() != generators(algebras[a]):
            raise MismatchError("assignment is not total on its source")
        _check_pairs(moved, conjugates[subst], algebras[b].index, True)

    # The first model's least morphisms with admissible images, each with its
    # index in `kb1.substitutions` and its member table; every one of the
    # second's.
    admissible: dict[tuple[int, int], list[tuple[int, dict, Mapping]]] = {}
    family2: list[tuple[Substitution, dict]] = []
    for a, b in itertools.product(sizes, repeat=2):
        lst = admissible[(a, b)] = []
        for i, subst in enumerate(iso.kb1.substitutions(a, b)):
            t1, t2 = table1(subst), table2(subst)
            images = {k: algebras1[b].pullback(t1, k) for k in generators(algebras1[a])}
            checked += 1
            try:
                transport(subst, images, forward)
                lst.append((i, images, UnionMap(images) if boolean else images))
            except AdmissibilityError as exc:
                failures.append(f"image of {subst} is not admissible: {exc}")
            family2.append((subst, {k: algebras2[b].pullback(t2, k)
                                    for k in generators(algebras2[a])}))

    for n in sizes:
        checked += 1
        ident = Substitution.identity(algebras1[n].varset)
        images = {mask: mask for mask in generators(algebras1[n])}
        _check_pairs(images, table1(ident), algebras1[n].index, True)
        transport(ident, images, forward)

    for a, b, c in itertools.product(sizes, repeat=3):
        members = algebras1[c].index
        rows = iso.kb1._composite_rows(a, b, c)
        for i, images1, _ in admissible[(a, b)]:
            for j, _, assignment2 in admissible[(b, c)]:
                checked += 1
                table = rows[i][j]
                composite = {k: assignment2[v] for k, v in images1.items()}
                _check_pairs(composite, table, members, True)
                transport(table.key, composite, forward)

    for subst, images in family2:
        checked += 1
        try:
            transport(subst, images, backward)
        except AdmissibilityError as exc:
            failures.append(f"backward image of {subst} is not admissible: {exc}")

    entries = (
        ("object", f"canonical variable sets of sizes 1..{iso.n_max}"),
        ("substitution depth", str(iso.depth)),
        ("phi", iso.phi.describe()),
    )
    return Report("description functor", entries, checked, tuple(failures))


@dataclass(frozen=True)
class EquivReport:
    """Outcome of an equivalence decision with its evidence."""

    verdict: str
    mode: str
    bounds: tuple[tuple[str, str], ...]
    witness: Optional[tuple[tuple[str, str], ...]]
    refutation: Optional[tuple[tuple[str, str], ...]]
    notes: tuple[str, ...]

    @property
    def exit_code(self) -> int:
        if self.verdict == VERDICT_WITNESSED:
            return 0
        if self.verdict == VERDICT_INEQUIVALENT:
            return 1
        return 2


def check_isomorphic(model1: Model, model2: Model) -> EquivReport:
    """Exact decision of carrier isomorphism: the bijection search stops at
    the first isomorphism."""
    mmap = next(model_isomorphisms(model1, model2), None)
    if mmap is not None:
        witness = (
            ("kind", "model isomorphism"),
            ("map", mmap.describe()),
        )
        return EquivReport(VERDICT_WITNESSED, "isomorphism", (), witness, None, ())
    refutation = (
        ("invariant", "model isomorphism"),
        ("detail", "no carrier bijection preserves every table"),
    )
    return EquivReport(VERDICT_INEQUIVALENT, "isomorphism", (), None, refutation, ())


def _invariant_refutation(kb1: KnowledgeBase,
                          kb2: KnowledgeBase) -> Optional[tuple[tuple[str, str], ...]]:
    for n in range(1, kb1.n_max + 1):
        left, right = kb1.description(n).algebra.size, kb2.description(n).algebra.size
        if left != right:
            return (
                ("invariant", "lattice size"),
                ("var_count", str(n)),
                ("left", str(left)),
                ("right", str(right)),
                ("values", f"{left} vs {right} at |X|={n}"),
                ("summary", f"lattice size {left} vs {right} at X={canonical_varset(n)}"),
            )
    return None


def decide_equivalence(kb1: KnowledgeBase, kb2: KnowledgeBase,
                       phis: Optional[list[FormulaAutomorphism]] = None, *,
                       mode: str = "informational") -> EquivReport:
    """The bounded pipeline over two knowledge bases, under their bounds:
    refute by lattice invariants, then search for a verified witness,
    otherwise report UNKNOWN with the bounds.  `mode` labels the report.

    A witness is either a carrier isomorphism transported to the lattice
    families, tried only in the informational mode without pinned `phis`,
    or a found functor isomorphism for one of the candidate automorphisms,
    `phis` or else every supported one.  The search checks a candidate's naturality
    squares, a carrier witness meets them by the isomorphism, and a witness
    is reported as it is: for the Boolean witnesses the searches return, the
    squares imply the functor laws (module docstring).  A substitution whose
    pullback of some dual is not definable over its target stops the
    search: the verdict is UNKNOWN, with a note naming that pullback.
    """
    _check_bounds(kb1, kb2)
    # A size past the point bound refuses the pair before any object is built.
    kb1._check_points()
    kb2._check_points()
    model1, model2 = kb1.model, kb2.model
    # Both families are built in full, the first model's first, before any verdict.
    saturated = all([kb1.saturated, kb2.saturated])
    notes = [f"supported automorphism class: {SUPPORTED_CLASS}"]
    bounds = (("n_max", str(kb1.n_max)), ("depth", str(kb1.depth)))

    if saturated:
        refutation = _invariant_refutation(kb1, kb2)
        if refutation is not None:
            return EquivReport(VERDICT_INEQUIVALENT, mode, bounds, None,
                               refutation, tuple(notes))
    else:
        notes.append("lattice generation hit the term depth bound; no refutation or"
                     " automorphism witness is drawn from partial lattices")

    iso = None
    try:
        carrier = mode == "informational" and phis is None
        mmap = next(model_isomorphisms(model1, model2), None) if carrier else None
        if mmap is not None:
            iso = transport_model_iso(mmap, kb1, kb2)
            witness = (("kind", "model isomorphism"), ("map", mmap.describe()))
        elif saturated:
            for phi in _automorphisms(model1.sig) if phis is None else phis:
                iso = find_functor_iso(kb1, kb2, phi)
                if iso is not None:
                    break
            witness = (("kind", "functor isomorphism"),)
        if iso is not None:
            witness += (("phi", iso.phi.describe()), ("alphas", iso.sizes()))
            return EquivReport(VERDICT_WITNESSED, mode, bounds, witness, None, tuple(notes))
    except UndefinablePullbackError as exc:
        notes.append(f"witness search stopped: {exc}")

    return EquivReport(VERDICT_UNKNOWN, mode, bounds, None, None, tuple(notes))


def check_informational_equivalence(model1: Model, model2: Model,
                                    n_max: int = 2, depth: int = 2,
                                    max_term_depth: Optional[int] = None,
                                    phis: Optional[list[FormulaAutomorphism]] = None
                                    ) -> EquivReport:
    """`decide_equivalence` over the models' knowledge bases from
    `knowledge_bases`: one for both when the models are equal, and reused by
    the next decider called on the same model objects and bounds."""
    kb1, kb2 = knowledge_bases(model1, model2, n_max, depth, max_term_depth)
    return decide_equivalence(kb1, kb2, phis)


def check_automorphic_equivalence(model1: Model, model2: Model,
                                  phis: Optional[list[FormulaAutomorphism]] = None,
                                  n_max: int = 2, depth: int = 2,
                                  max_term_depth: Optional[int] = None) -> EquivReport:
    """Witness search over automorphisms only, without the carrier fast path,
    over the knowledge bases that `check_informational_equivalence` resolves."""
    kb1, kb2 = knowledge_bases(model1, model2, n_max, depth, max_term_depth)
    return decide_equivalence(kb1, kb2, phis, mode="automorphic")
