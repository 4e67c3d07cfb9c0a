"""Definable point sets over one model and the dual lattice of closed filters.

The definable algebra over (model, varset) is the closure of the valuations of
all atomic formulas (relation atoms over term-definable argument tuples, plus
equalities between them when the signature has equality) under complement,
intersection, union, and one-variable projection.  It is a finite Boolean
algebra, so its atoms fix it, and a build, by partition refinement, stores
nothing else.  Its splits form a tree whose leaves are the atoms, held by
the algebra alone: nodes by index, numbered as made from the root 0, so a
leaf's index is its creation order, and distinct nodes have distinct masks.
A cut descends only into the nodes it cuts, so it visits only the blocks it
splits, and a cut that splits none builds no formula and moves no block.
Its seeds grow the term clone only as far as they read it, and stop once
every point is its own atom.
A map that preserves unions is fixed by its atom images:
`UnionMap` reads it lazily.  It is each algebra's member index, every lattice
bijection of the equivalence layer, and the member table of each least
morphism and dual that the sweeps and the description functor hold by their
atom images.  Listing more than `MAX_MEMBERS` members is a `BoundError`.

Every member carries a witness formula that evaluates exactly to its point
set.  The witnesses come from the split tree that made the atoms, so they
share subformulas: a cut's negation is one node, and so is its conjunction,
or its negation's, with a witness.  An algebra keeps that tree, its witness
memo, one valuation of its space, keyed on node identity, and the lines of
its first complete dump; the tree and the memo keep every keyed node alive
as long as the algebra, so no identity is reused.  A build checks each cut
once through the valuation, before the cut moves any block, and builds a
block's witness only for a projection cut that splits something or for a
member read; a member is built and checked through the valuation when
first asked for, then cached.  A dump builds no member: it checks each
witness through the valuation and renders it through texts kept for that
one pass, so each shared node is checked and valued once per algebra and
rendered once per dump, and a later dump returns the kept lines.
A closed filter is represented by its dual definable set.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .core import BoundError, MismatchError, Model, Substitution, TermClone, VarSet
from .formulas import (
    And,
    Atom,
    Equal,
    Exists,
    FALSE,
    Formula,
    Not,
    Or,
    TRUE,
    _render,
    formula_to_text,
)
from .semantics import (
    Geometry,
    PointSet,
    PointSpace,
    _Table,
    _Valuation,
    _atom_mask,
    _equal_mask,
    _exists_mask,
    _model_geometry,
    holds_on_all,
)

MAX_MEMBERS = 1 << 20  # the most members, filters or degrees one listing holds


def _listable(count: int) -> None:
    if count > MAX_MEMBERS:
        raise BoundError(f"{count} members exceed the bound {MAX_MEMBERS}")


class DefinabilityError(RuntimeError):
    """A point set expected to be definable is missing from the algebra."""


class UndefinablePullbackError(DefinabilityError):
    """The pullback of a definable set along a substitution is not definable
    over the substitution's target, whose variables cannot express it."""

    def __init__(self, subst: Substitution, mask: int, pullback: int):
        super().__init__(f"pullback {pullback:#x} of {mask:#x} along {subst}"
                         f" is not definable over {subst.target}")
        self.subst = subst


def _check_witness(mask: int, witness: Formula, valuation: _Valuation) -> None:
    """Raise `DefinabilityError` unless the witness, checked and valued over
    the valuation's space, has exactly the points of `mask`."""
    actual = valuation.mask(witness)
    if actual != mask:
        space = valuation.space
        raise DefinabilityError(f"witness {formula_to_text(witness)} evaluates to"
                                f" {PointSet(space, actual)}, not {PointSet(space, mask)}")


class DefinableSet:
    """A definable point set together with a defining witness formula.

    Construction checks and values the witness over the set's space and
    refuses a mismatch, so a DefinableSet is definable by checked evidence,
    not by promise.  A set built on its own is checked through a fresh
    valuation; the members of one algebra through that algebra's, which
    answers the subformulas they share from their first check.
    Equality and hashing ignore the witness: two members with the same points
    are the same set.
    """

    __slots__ = ("points", "witness")

    def __init__(self, points: PointSet, witness: Formula,
                 _valuation: Optional[_Valuation] = None):
        _check_witness(points.mask, witness, _valuation or _Valuation(points.space))
        self.points = points
        self.witness = witness

    @property
    def mask(self) -> int:
        return self.points.mask

    def __eq__(self, other) -> bool:
        if not isinstance(other, DefinableSet):
            return NotImplemented
        return self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __str__(self) -> str:
        return f"{self.points} by {formula_to_text(self.witness)}"

    def __repr__(self) -> str:
        return f"DefinableSet(mask={self.mask:#x}, witness={formula_to_text(self.witness)!r})"


class UnionMap(Mapping[int, int]):
    """The read-only map that sends each union of `atoms` (disjoint, nonzero
    masks) to the union of their images, computed on first lookup.  Keys
    iterate ascending: each atom exceeds every union of smaller ones, so
    doubling the list atom by atom keeps it sorted."""

    __slots__ = ("atoms", "_memo", "_keys")

    def __init__(self, atoms: dict[int, int]):
        self.atoms = atoms
        self._memo: dict[int, Optional[int]] = {}
        self._keys: Optional[list[int]] = None

    def __getitem__(self, mask: int) -> int:
        value = self._memo.get(mask)
        if value is None and mask not in self:
            raise KeyError(mask)
        return self._memo[mask] if value is None else value

    def __contains__(self, mask) -> bool:
        try:
            return self._memo[mask] is not None
        except KeyError:
            pass
        value, rest = 0, mask
        for atom, image in self.atoms.items():
            if rest & atom:  # an atom only partly in `mask` leaves its rest set
                value |= image
                rest ^= atom
        self._memo[mask] = None if rest else value
        return not rest

    def __len__(self) -> int:
        return 1 << len(self.atoms)

    def __iter__(self) -> Iterator[int]:
        if self._keys is None:
            _listable(1 << len(self.atoms))
            self._keys = [0]
            for atom in sorted(self.atoms):
                self._keys += [union | atom for union in self._keys]
        return iter(self._keys)

    def __eq__(self, other) -> bool:
        if isinstance(other, UnionMap):
            return self.atoms == other.atoms
        return super().__eq__(other)

    def inverse(self) -> "UnionMap":
        """The inverse map; the images must be disjoint and nonzero."""
        return UnionMap({image: atom for atom, image in self.atoms.items()})


class DefinableAlgebra:
    """The definable algebra over one space, whose model and variable set it
    reads, held by its atoms; `index` maps every member to itself, and a
    member is built when first asked for.  The first complete dump's lines
    are kept, and a dump builds no member.
    `size` is the member count, 2^k for k atoms, which `len` cannot return
    past 62 atoms: Python's `len` is bounded by the index size, so it raises
    `OverflowError` there.  Listings bound the count by the atoms instead,
    so past that bound they raise `BoundError`.

    A builder makes the algebra whole, refines it by `_split` and ends by
    `_seal`.  The split tree is its own: nodes by index, the root 0, each
    (mask, first kid, cut, !cut), where a leaf has kid 0 and no cut, and
    the second kid is the index after the first.  Nodes are numbered as
    made, so a leaf's index is its creation order, and distinct nodes have
    distinct masks.  `_splits` lists the splits as made, each (node, cut,
    projected block's node or None); `_leaves` maps each leaf to its mask,
    ascending by index: the blocks, whose count and first queue the
    builders read."""

    def __init__(self, space: PointSpace):
        self.model = space.model
        self.varset = space.varset
        self.space = space
        self._nodes: list[tuple] = [(space.full_mask, 0, None, None)]
        self._splits: list[tuple[int, Formula, Optional[int]]] = []
        self._leaves = {0: space.full_mask}
        self._memo: dict[tuple[int, int], Formula] = {}  # (node, part) -> witness
        self._ands: dict[tuple[int, int], Formula] = {}  # conjunct identities -> And
        # The tree and the memos keep every node the valuation keys alive.
        self._valuation = _Valuation(space)
        self._members: dict[int, DefinableSet] = {}
        self._lines: Optional[tuple[str, ...]] = None

    def _split(self, by: int, make_cut: Callable[[], Formula],
               block: Optional[int] = None) -> list[tuple[int, int]]:
        """Split every leaf that the set `by` cuts, by the node `make_cut()`,
        built only if `by` cuts one and checked to value to `by` before any
        leaf moves, projected from the node `block` if given.  A cut descends
        only into the nodes it cuts; the leaves it splits are split in index
        order, each into its part inside `by` and the rest.  Returns the
        parts, (node, mask) each."""
        nodes = self._nodes
        if not by or by == nodes[0][0]:
            return []
        leaves, walk = [], [0]
        for node in walk:  # the nodes `by` cuts, grown as it is walked
            kid = nodes[node][1]
            if not kid:
                leaves.append(node)
                continue
            for kid in (kid, kid + 1):
                mask = nodes[kid][0]
                inside = mask & by
                if inside and inside != mask:
                    walk.append(kid)
        if not leaves:
            return []
        leaves.sort()
        cut = make_cut()
        _check_witness(by, cut, self._valuation)
        uncut = Not(cut)  # one negation node for every leaf the cut splits
        parts, splits = [], self._splits
        for leaf in leaves:
            mask, kid = nodes[leaf][0], len(nodes)
            inside = mask & by
            nodes[leaf] = (mask, kid, cut, uncut)
            nodes += ((inside, 0, None, None), (mask ^ inside, 0, None, None))
            splits.append((leaf, cut, block))
            parts += ((kid, inside), (kid + 1, mask ^ inside))
            del self._leaves[leaf]
        self._leaves.update(parts)
        return parts

    def _witness(self, part: int, node: int = 0) -> Formula:
        """A formula whose set meets the node exactly in `part`, a union of
        leaves under it; witnesses share subformulas through the memos.

        It is exact because `_split` checks each cut c to value to the set
        it cuts by, so c meets a split node in its first kid and !c in its
        second.  By induction on the node's height: FALSE is no part and
        TRUE all of it; otherwise, with w and o the kids' witnesses of the
        part's two halves, `_select` gives c or c | o (w is TRUE), !c or
        !c & o (w is FALSE), c & w (o is FALSE), !c | w (o is TRUE), or
        (c & w) | (!c & o), each meeting the node in the part.  The cut
        check is stronger than valuing each block's witness, which reads a
        cut only inside the nodes it splits, so no witness is built for a
        check; `member` and `dump_lines` check each again when read."""
        if part == 0:
            return FALSE
        mask, kid, cut, uncut = self._nodes[node]
        if part == mask:
            return TRUE
        formula = self._memo.get((node, part))
        if formula is None:
            inside = part & self._nodes[kid][0]
            formula = self._memo[node, part] = _select(
                cut, uncut, self._witness(inside, kid), self._witness(part ^ inside, kid + 1),
                self._ands)
        return formula

    def _seal(self, saturated: bool) -> "DefinableAlgebra":
        """End the build: fix the atoms, the index and the size."""
        self.saturated = saturated
        self._blocks = tuple(sorted(self._leaves.values()))
        self.size = 1 << len(self._blocks)
        self.index = UnionMap({block: block for block in self._blocks})
        return self

    @property
    def masks(self) -> tuple[int, ...]:
        return tuple(self.index)

    @property
    def members(self) -> tuple[DefinableSet, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[DefinableSet]:
        return map(self.member, self.index)

    def member(self, mask: int) -> DefinableSet:
        dset = self._members.get(mask)
        if dset is None:
            if self.close(mask) != mask:
                raise DefinabilityError(f"mask {mask:#x} is not definable here")
            dset = self._members[mask] = DefinableSet(PointSet(self.space, mask),
                                                      self._witness(mask), self._valuation)
        return dset

    def own(self, dset: DefinableSet) -> None:
        """Raise `MismatchError` unless `dset` is a member of this algebra."""
        if dset.mask not in self.index or dset.points.space != self.space:
            raise MismatchError("set does not belong to this algebra")

    def block_masks(self) -> tuple[int, ...]:
        """Masks of the atoms, ascending; every member is a union of these."""
        return self._blocks

    def replay(self, space: PointSpace, seed_mask: Callable[[Formula], int]) -> dict[int, int]:
        """Each atom's witness value over `space`, of the same variables, by
        atom, with no witness built or valued.  A node's witness is its
        path's cuts or their negations, so, splits walked as made, a node's
        value is its parent's cut by its cut's: `seed_mask(cut)` for a seed
        cut (`Atom` or `Equal`), the projection of its block's for one made
        by projection."""
        nodes, leaves = self._nodes, self._leaves
        values, last, mask = [space.full_mask] * len(nodes), None, 0
        for node, cut, block in self._splits:
            if cut is not last:  # a cut's splits are made one after another
                last = cut
                mask = seed_mask(cut) if block is None else _exists_mask(values[block], space,
                                                                         cut.var)
            kid = nodes[node][1]
            values[kid], values[kid + 1] = values[node] & mask, values[node] & ~mask
        return {mask: values[node] for mask, node in sorted(zip(leaves.values(), leaves))}

    def pullback(self, table: _Table, mask: int) -> int:
        """The pullback of `mask` along the substitution of `table`, which
        targets this algebra: the dual of the least push of the filter with
        dual `mask`.  One that is not a member raises
        `UndefinablePullbackError`, naming the table's key.

        Every least push is a `pullback`, and every least dual a `close` of
        an image; neither needs an admissibility check.  A push pairs K with
        pre_t(K), a member once this returns, and image_t(pre_t(K)) lies in
        K for any table t.  A dual pairs T with close(image_t(T)), a sum of
        atoms, so a member, that contains image_t(T)."""
        pullback = table.preimage(mask)
        if pullback not in self.index:
            raise UndefinablePullbackError(table.key, mask, pullback)
        return pullback

    def close(self, mask: int) -> int:
        """The least member containing `mask`: the sum of the atoms it meets."""
        return sum(b for b in self._blocks if b & mask)

    def dump_lines(self) -> list[str]:
        """One line per member, sorted by mask: hex mask, cardinality, witness.
        The first dump checks each member's witness through the algebra's
        valuation and renders it, each shared subformula once, with no
        member object built; the algebra keeps the lines once all are done,
        and every dump returns a new list of them.  A witness that fails its
        check raises `DefinabilityError`, and no line is kept."""
        if self._lines is None:
            witness, valuation, texts = self._witness, self._valuation, {}
            lines = []
            for mask in self.index:
                formula = witness(mask)
                _check_witness(mask, formula, valuation)
                lines.append(f"{hex(mask)} {mask.bit_count()} {_render(formula, 0, texts)}")
            self._lines = tuple(lines)
        return list(self._lines)

    def __repr__(self) -> str:
        return (f"DefinableAlgebra({self.varset}, {self.size} sets,"
                f" saturated={self.saturated})")


def _and(left: Formula, right: Formula, ands: dict[tuple[int, int], Formula]) -> Formula:
    """One node for each pair of conjuncts, a cut or its negation and a
    witness, kept in `ands` by their identities."""
    key = (id(left), id(right))
    formula = ands.get(key)
    if formula is None:
        formula = ands[key] = And(left, right)
    return formula


def _select(cut: Formula, uncut: Formula, when: Formula, otherwise: Formula,
            ands: dict[tuple[int, int], Formula]) -> Formula:
    """A formula agreeing with `when` inside `cut` and with `otherwise` outside
    it, without constant parts; `uncut` is the negation of `cut`, the
    conjunctions come from `ands` (`_and`), and `when` and `otherwise` are
    not the same constant."""
    if when is TRUE:
        return cut if otherwise is FALSE else Or(cut, otherwise)
    if when is FALSE:
        return uncut if otherwise is TRUE else _and(uncut, otherwise, ands)
    if otherwise is FALSE:
        return _and(cut, when, ands)
    if otherwise is TRUE:
        return Or(uncut, when)
    return Or(_and(cut, when, ands), _and(uncut, otherwise, ands))


def _tuples(clone: TermClone, arity: int) -> Iterable[tuple]:
    """`itertools.product(functions, repeat=arity)` over the drained clone,
    growing it only as far as the tuples read; a complete one goes to `itertools`."""
    if clone.complete:
        return itertools.product(clone.functions, repeat=arity)
    if arity < 2:
        return zip(clone.walk()) if arity else [()]
    return ((first, *rest) for first in clone.walk() for rest in _tuples(clone, arity - 1))


def _pairs(clone: TermClone) -> Iterable[tuple]:
    """`itertools.combinations(functions, 2)` over the drained clone, as `_tuples`."""
    if clone.complete:
        return itertools.combinations(clone.functions, 2)
    return ((f1, f2) for i, f1 in enumerate(clone.walk()) for f2 in clone.walk(i + 1))


def _seeds(model: Model, clone: TermClone) -> Iterator[tuple[int, Callable[[], Formula]]]:
    """Each seed's set and a maker of its cut, to be called before the next
    seed is read: every relation atom over tuples of the clone's functions,
    then, with equality, every pair of distinct functions, since (f, f)
    holds everywhere and (f2, f1) cuts what (f1, f2) already did."""
    for rel, arity in model.sig.rels:
        rows = model.rel_tables[rel]
        for combo in _tuples(clone, arity):
            yield (_atom_mask(rows, [f.values for f in combo]),
                   lambda: Atom(rel, tuple(f.witness for f in combo)))
    if model.sig.with_equality:
        for f1, f2 in _pairs(clone):
            yield _equal_mask(f1.values, f2.values), lambda: Equal(f1.witness, f2.witness)


def generate_definable_algebra(model: Model, varset: VarSet,
                               max_term_depth: Optional[int] = None, *,
                               geometry: Optional[Geometry] = None) -> DefinableAlgebra:
    """Generate the definable algebra from its atoms, found by partition
    refinement.

    The seeds are read in `itertools` order over the whole clone, which
    grows a round only when a seed needs a function not found yet.  A
    seed's set is read across the functions' value columns, by the helpers
    that value `Atom` and `Equal` nodes, while its cut's check evaluates
    the cut's terms over the space, so a wrong clone column still fails
    the build.  Then the projection of each block along each variable
    splits the blocks until nothing splits.  Projection distributes over
    union, so the blocks are the atoms of the closure of the seeds under
    complement, intersection, union, and projection.

    Once every point is its own block, no seed is read and no projection
    made: none could split, and a cut that splits nothing is never built,
    so the blocks and witnesses are those of reading every seed.  A capped
    clone is still grown to its cap for the saturation flag.  Nor is a
    projection made along the only variable: it sends a nonempty block to
    the whole space.  So such builds build no block witness.

    The space comes from `geometry`, the model's geometry, which holds the
    point bound; without one, from the model's kept geometry under the
    default bound (`semantics._model_geometry`).
    """
    space = _model_geometry(model, geometry).space(varset)
    clone = TermClone(space, max_term_depth)
    algebra, npoints = DefinableAlgebra(space), space.size
    leaves = algebra._leaves
    for by, make_cut in _seeds(model, clone):
        if algebra._split(by, make_cut) and len(leaves) == npoints:
            break
    # Each block is queued once: its projections stay unions of blocks as the
    # partition refines, and a block split later has its parts queued.
    pending = list(leaves.items()) if len(varset) > 1 else []
    while pending and len(leaves) < npoints:
        node, block = pending.pop()
        for var in varset.names:
            pending += algebra._split(_exists_mask(block, space, var),
                                      lambda: Exists(var, algebra._witness(block)), node)
    return algebra._seal(clone.saturated)


def closure(pset: PointSet, algebra: DefinableAlgebra) -> DefinableSet:
    """The least definable superset: the union of the atoms the set meets."""
    if pset.space != algebra.space:
        raise MismatchError("point set does not live over the algebra's space")
    return algebra.member(algebra.close(pset.mask))


class ClosedFilter:
    """A closed set of formulas, represented by its dual definable point set.

    Membership of a formula means the formula holds on every dual point.  The
    filter order runs opposite to point inclusion: a larger filter pins down
    fewer points.
    """

    __slots__ = ("dual",)

    def __init__(self, dual: DefinableSet):
        self.dual = dual

    @property
    def points(self) -> PointSet:
        return self.dual.points

    @property
    def mask(self) -> int:
        return self.dual.mask

    def member_formula(self, f: Formula) -> bool:
        return holds_on_all(self.points, f)

    def is_leq(self, other: "ClosedFilter") -> bool:
        if self.points.space != other.points.space:
            raise MismatchError("filters live over different spaces")
        return other.mask & ~self.mask == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClosedFilter):
            return NotImplemented
        return self.dual == other.dual

    def __hash__(self) -> int:
        return hash(self.dual)

    def __str__(self) -> str:
        return f"filter of {self.points}"

    def __repr__(self) -> str:
        return f"ClosedFilter(dual_mask={self.mask:#x})"


class FilterLattice:
    """All closed filters over one space, dual to the definable algebra."""

    def __init__(self, algebra: DefinableAlgebra):
        self.algebra = algebra

    @property
    def model(self) -> Model:
        return self.algebra.model

    @property
    def varset(self) -> VarSet:
        return self.algebra.varset

    @property
    def saturated(self) -> bool:
        return self.algebra.saturated

    @property
    def filters(self) -> tuple[ClosedFilter, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.algebra)

    def __iter__(self) -> Iterator[ClosedFilter]:
        return map(ClosedFilter, self.algebra)

    def filter_for_mask(self, mask: int) -> ClosedFilter:
        return ClosedFilter(self.algebra.member(mask))

    @property
    def bottom(self) -> ClosedFilter:
        """The filter of formulas true everywhere: dual is the full space."""
        return self.filter_for_mask(self.algebra.space.full_mask)

    @property
    def top(self) -> ClosedFilter:
        """The improper filter: dual is empty."""
        return self.filter_for_mask(0)

    def meet(self, a: ClosedFilter, b: ClosedFilter) -> ClosedFilter:
        self.algebra.own(a.dual)
        self.algebra.own(b.dual)
        return self.filter_for_mask(a.mask | b.mask)

    def join(self, a: ClosedFilter, b: ClosedFilter) -> ClosedFilter:
        """Closed union of filters: dual is the intersection of duals."""
        self.algebra.own(a.dual)
        self.algebra.own(b.dual)
        return self.filter_for_mask(a.mask & b.mask)

    def __repr__(self) -> str:
        return f"FilterLattice({self.varset}, {self.algebra.size} filters)"


def build_filter_lattice(model: Model, varset: VarSet,
                         max_term_depth: Optional[int] = None, *,
                         geometry: Optional[Geometry] = None) -> FilterLattice:
    return FilterLattice(generate_definable_algebra(model, varset, max_term_depth,
                                                    geometry=geometry))


def filter_preimage(subst: Substitution, filt: ClosedFilter,
                    source_lattice: FilterLattice) -> ClosedFilter:
    """Pull a filter over the substitution's target back to its source.

    A formula belongs to the result exactly when its substituted form belongs
    to the original filter; on duals this closes the pointwise image.
    """
    if filt.points.space.varset != subst.target:
        raise MismatchError("filter is not over the substitution's target")
    if source_lattice.varset != subst.source or source_lattice.model != filt.points.space.model:
        raise MismatchError("lattice does not match the substitution's source")
    image = filt.points.space.geometry.table(subst).image(filt.mask)
    return source_lattice.filter_for_mask(source_lattice.algebra.close(image))


def lattice_profile(lat: FilterLattice) -> tuple[int, int, tuple[int, ...]]:
    """(size, height, sorted degree multiset) of the lattice's cover diagram.

    Height is the longest cover chain; the degree of a node counts its
    covers and cocovers together.  The lattice is Boolean: with k atoms it
    has 2^k nodes, height k, and j + (k - j) = k covers and cocovers at a
    node whose dual holds j atoms, so the degrees are 2^k copies of k.
    """
    size, k = lat.algebra.size, len(lat.algebra.block_masks())
    _listable(size)
    return size, k, (k,) * size
