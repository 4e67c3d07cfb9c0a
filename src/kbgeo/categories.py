"""Filter-side and set-side categories over one model, and their duality.

An object is a variable set's filter lattice, which holds the set's definable
algebra: description morphisms read its members as filters, content morphisms
as the filters' dual sets.  A description morphism along a substitution
s: X -> Y sends each filter over X to a filter over Y admissibly: the dual of
the image must sit inside the pointwise preimage of the dual of the argument.
Content morphisms run the other way, from sets over Y to sets over X, with the
pointwise image required to land inside the assigned set.

The duality swaps the two sides object by object (a filter and its dual set)
and morphism by morphism, reversing direction.

Every pointwise preimage and image along a substitution is read from the
substitution's pullback table in the `Geometry` of the spaces involved,
which builds each table once; a loop that moves several masks along one
substitution fetches its table once and holds it.  A `KnowledgeBase` is one
model's context: it holds the bounds n_max and depth, which fix its objects
and its morphisms' substitutions, and one geometry, whose point bound is
the only bound on its transport; each object is built once.  It refuses a
size outside 1..n_max for every object, set and table it reads, and its
sweeps, like the equivalence decision, raise the point bound's error for
the first size past it before they build any object.  Its two sweeps,
`check_duality` and `verify_push_functoriality`, share spaces,
substitutions and tables across every substitution they visit, and an
equivalence decision runs its whole witness search over one knowledge base
per model.

The substitutions and their composites are model-free: they depend on the
signature's operations and the depth alone.  So they live in a `Syntax`
keyed by those two, which knows no model and no n_max.  Each bounded
substitution set is enumerated once per syntax (`Syntax.substitutions`),
and every table is keyed by those objects.
Every composable pair of these loops, and of the description functor
(`equivalence.build_description_iso`), finds its composite's table in
`KnowledgeBase._composite_rows`, one row per first factor, made once per
frame and syntax and indexed by the factors' places in
`KnowledgeBase.substitutions`.  The composites are the syntax's
(`Syntax.composites`), made once per syntax: each is found by its sizes and
interned images, each image term composed once per second substitution,
and each first factor's image ids are looked up once.  A knowledge base
maps them to tables through its geometry, which builds each table from the
composite substitution's own terms, never from its factors' tables, so a
composite check compares two independent computations.

The pullback tables are carrier-side, not relation-side: a table depends
on the carrier, the operation tables and its substitution, and never on a
relation.  So the tables, their classes and memos, and the knowledge
base's table lists and composite rows live in its geometry's frame
(`semantics.Frame`), keyed by the carrier, in order, the operation tables
and the point bound.  A knowledge base constructed directly owns its
syntax and frame; `knowledge_bases` shares them between the knowledge
bases it resolves in a row, by the rule and with the lifetimes stated in
`semantics._Kept`.
What a knowledge base keeps for itself reads the relations: its lattices,
atom tables and generator check.

Over a finite model these categories see a substitution only through its
pullback table, so substitutions whose tables share a class
(`semantics._Table.cls`) are one arrow.  Both sweeps walk their composable
pairs through `KnowledgeBase._unsettled_pairs`, which skips the pairs of a
triple of classes that has passed; its docstring gives the rule.

The module-level sweeps and deciders, and the CLI, take their knowledge
bases from `knowledge_bases` (`knowledge_base` asks it for a model paired
with itself), which keeps in each thread the pair of its last call: the
sweeps, then the deciders, called on the same model object (`is`) and
bounds share one, and equal models in one call share one.

A morphism holds every member of its source.  The sweeps and the witness
check build none: every map they compare preserves unions (pullbacks,
closures of images and their composites), so it is fixed by its atom
images, and its member table is the lattice layer's `UnionMap` of them.
Least images are admissible by construction (`DefinableAlgebra.pullback`).
A check passes on a member when it passes on the member's atoms, and the
first member to fail is an atom, so atom loops report what member loops
would.  A composable pair's composites are image
dicts, checked by `_check_pairs` in the same order.
A passing sweep lists no member; only the rerun of a push block or
an identity whose atoms fail does, within the lattice layer's bound.
Objects need no check: a filter and its dual set are one member of the
object's algebra, and a filter's order is its dual's reverse inclusion.  Nor
does dualization's injectivity: a least morphism and its dual are both
functions of their substitution, which each holds, so two duals are equal
exactly when their morphisms are.  A report's `checked` counts the checks a
sweep makes.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from . import semantics
from .core import (
    DEFAULT_MAX_POINTS,
    MismatchError,
    Model,
    Signature,
    Substitution,
    Term,
    canonical_varset,
    check_term,
    compose_subst,
    enumerate_substitutions,
    enumerate_terms,
    substitution_generators,
)
from .lattice import (
    ClosedFilter,
    DefinabilityError,
    DefinableAlgebra,
    DefinableSet,
    FilterLattice,
    UndefinablePullbackError,
    UnionMap,
    build_filter_lattice,
)
from .semantics import (
    Geometry,
    _Table,
    _atom_mask,
    _check_point_count,
    _equal_mask,
    _term_columns,
    subst_image_points,
    subst_preimage_points,
)


class AdmissibilityError(ValueError):
    """An assignment pairs filters or sets that violate admissibility."""


@dataclass(frozen=True)
class Report:
    """Outcome of a structural verification sweep; `cli.write_report`
    renders it."""

    title: str
    entries: tuple[tuple[str, str], ...]
    checked: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def is_admissible_desc(subst: Substitution, source_filter: ClosedFilter,
                       target_filter: ClosedFilter) -> bool:
    """Whether the substitution may send source_filter to target_filter.

    On duals: the target filter's points must all pull back into the source
    filter's points.
    """
    if source_filter.points.space.model != target_filter.points.space.model:
        raise MismatchError("filters live over different models")
    preimage = subst_preimage_points(subst, source_filter.points)
    return target_filter.points.is_subset_of(preimage)


def is_admissible_cont(subst: Substitution, source_set: DefinableSet,
                       target_set: DefinableSet) -> bool:
    """Whether the substitution may send source_set (over the substitution's
    target varset) to target_set (over its source varset): the pointwise image
    must be contained in the assigned set."""
    if source_set.points.space.model != target_set.points.space.model:
        raise MismatchError("sets live over different models")
    image = subst_image_points(subst, source_set.points)
    return image.is_subset_of(target_set.points)


def _check_ends(subst: Substitution, source, target) -> None:
    if subst.source != source.varset or subst.target != target.varset:
        raise MismatchError("substitution endpoints do not match the objects")
    if source.model != target.model:
        raise MismatchError("objects live over different models")


class _Morphism:
    """An admissible, total assignment of dual masks along one substitution,
    held on every member of its source.

    Construction checks the ends and that the assignment is total, then the
    pairs in the assignment's order (`_check_pairs`).  Two morphisms are
    equal when their substitutions, which fix both variable sets, and their
    member tables are.
    """

    __slots__ = ("source", "target", "subst", "assignment")
    _along: bool  # whether the source lies over the substitution's source

    def __init__(self, source, target, subst: Substitution, assignment: Mapping[int, int]):
        along = self._along
        _check_ends(subst, *((source, target) if along else (target, source)))
        assignment = dict(assignment)
        if assignment.keys() != source.algebra.index.keys():
            raise MismatchError("assignment is not total on its source")
        _check_pairs(assignment, (target if along else source).algebra.space.geometry.table(subst),
                     target.algebra.index, along)
        self.source = source
        self.target = target
        self.subst = subst
        self.assignment = assignment

    def image(self, mask: int) -> int:
        """The image of a member of the source."""
        return self.assignment[mask]

    def after(self, first, subst: Substitution):
        """`first`, then this morphism, along their composite `subst`, checked
        as this morphism's kind is."""
        assignment = self.assignment
        return type(self)(first.source, self.target, subst,
                          {k: assignment[v] for k, v in first.assignment.items()})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.subst == other.subst and self.assignment == other.assignment

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.subst}, {self.source.varset} -> {self.target.varset})"


def _check_pairs(images: Mapping[int, int], table: _Table, members: UnionMap,
                 along: bool) -> None:
    """A morphism's checks of its pairs, in order, along the pullback table
    of its substitution: each dual mask must be a member, and the
    image of a pair's mask over the substitution's target must lie inside
    its other mask.  A failure names the table's key, which equals the
    substitution."""
    image = table.image
    for src_mask, dst_mask in images.items():
        if dst_mask not in members:
            raise DefinabilityError(f"mask {dst_mask:#x} is not definable over the target")
        mask, bound = (dst_mask, src_mask) if along else (src_mask, dst_mask)
        if image(mask) & ~bound:
            raise AdmissibilityError(
                f"assignment {src_mask:#x} -> {dst_mask:#x} is not admissible for {table.key}")


class _Memo(dict):
    """A dict that fills each missing key with `make(key)`."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class DescMorphism(_Morphism):
    """An admissible, total assignment of filters along a substitution: from
    the dual masks of the source lattice to those of the target lattice."""

    __slots__ = ()
    _along = True

    def map_filter(self, filt: ClosedFilter) -> ClosedFilter:
        self.source.algebra.own(filt.dual)
        return self.target.filter_for_mask(self.image(filt.mask))


class ContMorphism(_Morphism):
    """An admissible, total assignment of definable sets against a
    substitution s: X -> Y, from sets over Y to sets over X."""

    __slots__ = ()
    _along = False

    def map_set(self, dset: DefinableSet) -> DefinableSet:
        self.source.algebra.own(dset)
        return self.target.algebra.member(self.image(dset.mask))


def compose_desc(second: DescMorphism, first: DescMorphism) -> DescMorphism:
    """Apply first, then second."""
    if first.target.varset != second.source.varset:
        raise MismatchError("morphisms do not compose")
    return second.after(first, compose_subst(first.subst, second.subst))


def compose_cont(second: ContMorphism, first: ContMorphism) -> ContMorphism:
    """Apply first, then second.  Against substitutions this composes the
    underlying substitutions the other way around."""
    if first.target.varset != second.source.varset:
        raise MismatchError("morphisms do not compose")
    return second.after(first, compose_subst(second.subst, first.subst))


def identity_desc(obj: FilterLattice) -> DescMorphism:
    return DescMorphism(obj, obj, Substitution.identity(obj.varset),
                        {m: m for m in obj.algebra.masks})


def least_desc_morphism(source: FilterLattice, target: FilterLattice,
                        subst: Substitution) -> DescMorphism:
    """The pointwise least admissible assignment along a substitution: each
    filter goes to the filter whose dual is the full pullback of its dual,
    in order; the first pullback that is not a dual of the target raises."""
    _check_ends(subst, source, target)
    table, pullback = target.algebra.space.geometry.table(subst), target.algebra.pullback
    return DescMorphism(source, target, subst,
                        {mask: pullback(table, mask) for mask in source.algebra.masks})


def least_cont_morphism(source: FilterLattice, target: FilterLattice,
                        subst: Substitution) -> ContMorphism:
    """Each definable set goes to the closure of its pointwise image: the
    union of the target atoms it meets."""
    _check_ends(subst, target, source)
    image, close = source.algebra.space.geometry.table(subst).image, target.algebra.close
    return ContMorphism(source, target, subst,
                        {mask: close(image(mask)) for mask in source.algebra.masks})


def content_morphism(morphism: DescMorphism) -> ContMorphism:
    """The dual of a description morphism: the least content assignment against
    the same substitution.  Both sides check a pair as the same image
    inclusion, so each pair of the input is admissible read the other way."""
    return least_cont_morphism(morphism.target, morphism.source, morphism.subst)


def _composite_memos() -> tuple[_Memo, _Memo, _Memo]:
    """`Syntax.composites`' memos: each substitution's images as ids of
    interned terms, per second substitution the id of each term after it,
    and each composite by its sizes, then its image ids.  They do not refer
    back to the syntax, which stays acyclic."""
    terms: list[Term] = []
    term_ids: dict[Term, int] = {}

    def intern(term: Term) -> int:
        i = term_ids.get(term)
        if i is None:
            i = term_ids[term] = len(terms)
            terms.append(term)
        return i

    return (_Memo(lambda s: tuple(map(intern, s.images))),
            _Memo(lambda s: _Memo(lambda i: intern(s.apply_to_term(terms[i])))),
            _Memo(lambda ends: {}))


class Syntax:
    """The model-free part of a knowledge base: the substitutions between
    canonical variable sets over one operation set whose images have depth
    up to one depth, and the composites of their composable pairs.  Both
    are read from the operations and the depth alone, the only inputs of
    `enumerate_terms` and `enumerate_substitutions`, so knowledge bases over
    them may share one syntax (`semantics._Kept`).  It knows no model and
    no n_max, and refuses no size; each knowledge base refuses sizes past
    its own n_max.

    Each bounded set and each size triple's composites are made on first
    use, and stored only once made whole, so knowledge bases in several
    threads may share a syntax: a bounded set is stored by
    `dict.setdefault`, and every thread reads the first stored; composites
    are made under a lock, which also guards the interning memos that
    every triple's build shares.
    """

    def __init__(self, ops: tuple[tuple[str, int], ...], depth: int):
        self.ops = ops
        self.depth = depth
        self._sig = Signature(ops)
        self._substitutions: dict[tuple[int, int], tuple[Substitution, ...]] = {}
        self._composites: dict[tuple[int, int, int],
                               tuple[tuple[Substitution, ...], tuple[tuple[int, ...], ...]]] = {}
        self._memos = _composite_memos()
        self._lock = threading.Lock()

    def substitutions(self, a: int, b: int) -> tuple[Substitution, ...]:
        """The substitutions from the canonical variable set of size a to that
        of size b with images of depth up to the depth, in
        `enumerate_substitutions` order, enumerated once."""
        subs = self._substitutions.get((a, b))
        if subs is None:
            subs = self._substitutions.setdefault((a, b), tuple(enumerate_substitutions(
                self._sig, canonical_varset(a), canonical_varset(b), self.depth)))
        return subs

    def composites(self, a: int, b: int, c: int
                   ) -> tuple[tuple[Substitution, ...], tuple[tuple[int, ...], ...]]:
        """The composites of the composable pairs of `substitutions(a, b)` and
        `substitutions(b, c)`, made once: the distinct ones, in order of
        first appearance, and per first factor, in order, its row: per
        second factor, in order, the place of their composite among them.

        A composite is found by its sizes and the ids of its interned
        images, each the image of one interned term after its second
        factor, computed once per term and second factor; so a pair whose
        images have met its second factor builds no term and hashes no
        substitution, and equal composites of any two triples with the same
        ends are one object.  Each second factor's term memo is looked up
        once, and each first factor's image ids once per row.  The memos
        hold every term and substitution they are keyed by, and live as
        long as the syntax."""
        entry = self._composites.get((a, b, c))
        if entry is None:
            firsts, seconds = self.substitutions(a, b), self.substitutions(b, c)
            with self._lock:
                entry = self._composites.get((a, b, c))
                if entry is None:
                    entry = self._composites[(a, b, c)] = self._compose(firsts, seconds, (a, c))
        return entry

    def _compose(self, firsts: tuple[Substitution, ...], seconds: tuple[Substitution, ...],
                 ends: tuple[int, int]
                 ) -> tuple[tuple[Substitution, ...], tuple[tuple[int, ...], ...]]:
        """`composites` for these factors, made under the lock."""
        image_ids, after, found = self._memos
        found = found[ends]
        afters = [after[second].__getitem__ for second in seconds]
        distinct: list[Substitution] = []
        places: dict[tuple[int, ...], int] = {}
        rows = []
        for first in firsts:
            ids = image_ids[first]
            row = []
            for second, term_after in zip(seconds, afters):
                key = tuple(map(term_after, ids))
                composite = found.get(key)
                if composite is None:
                    composite = found[key] = Substitution._composite(first, second)
                place = places.get(key)
                if place is None:
                    place = places[key] = len(distinct)
                    distinct.append(composite)
                row.append(place)
            rows.append(tuple(row))
        return tuple(distinct), tuple(rows)


class KnowledgeBase:
    """A model with its objects, the filter lattices of sizes 1..n_max.

    It holds the model's bounds: n_max, the substitution depth, the
    term-depth cap, and its geometry, which holds the point bound; it
    refuses a size outside 1..n_max for every object, set and table it
    reads.  Its morphisms run along the substitutions between sizes
    1..n_max whose images have depth up to the depth (`substitutions`), and
    every sweep and witness check over it reads that set, or its generators
    (`naturality`), from it.  Those substitutions and their composites are
    its `syntax`'s: model-free, keyed by the signature's operations and the
    depth.  The pullback tables it maps them to, each built from the
    substitution's own terms, and its lists and rows of them (`_tables`,
    `_composite_rows`) are its geometry's frame's: keyed by the carrier, the
    operation tables and the point bound.  A knowledge base constructed
    directly owns both; one that `knowledge_bases` resolves may share them
    (`semantics._Kept`).  What reads the relations is its own: its
    geometry's spaces, its objects, its atom tables and its generator
    check.  The rows (`_composite_rows`) are the only source of a
    composite's table.
    Objects are built over the canonical variable sets of the geometry and
    cached, and so is one atom table per size (`atom_table`): the masks of
    the atomic formulas within the depth, which the witness search pairs
    without building a formula.  Description and content morphisms both
    run between these lattices, whose filters and definable sets are the
    same masks of their algebras.
    """

    def __init__(self, model: Model, n_max: int, depth: int,
                 max_term_depth: Optional[int] = None,
                 max_points: int = DEFAULT_MAX_POINTS):
        if n_max < 1:
            raise MismatchError("n_max must be at least 1")
        if depth < 0:
            raise MismatchError("depth must be nonnegative")
        if max_term_depth is not None and max_term_depth < 0:
            raise MismatchError("max_term_depth must be nonnegative")
        self.model = model
        self.n_max = n_max
        self.depth = depth
        self.max_term_depth = max_term_depth
        self.geometry = Geometry(model, max_points)
        self._descriptions: dict[int, FilterLattice] = {}
        self._atom_tables: dict[int, tuple[dict[str, list[int]], list[int]]] = {}

    @functools.cached_property
    def syntax(self) -> Syntax:
        """The syntax of the knowledge base's operations and depth: a fresh
        one."""
        return Syntax(self.model.sig.ops, self.depth)

    def _check_sizes(self, *sizes: int) -> None:
        """Refuse the first of the sizes outside 1..n_max."""
        for n in sizes:
            if not 1 <= n <= self.n_max:
                raise MismatchError(f"object size {n} outside 1..{self.n_max}")

    def _check_points(self) -> None:
        """Raise the `BoundError` of the first size in 1..n_max whose space
        passes the geometry's point bound, before any object is built."""
        for n in range(1, self.n_max + 1):
            _check_point_count(self.model, n, self.geometry.max_points)

    def description(self, n: int) -> FilterLattice:
        """The object of size n: the filter lattice over x1..xn, built once."""
        lattice = self._descriptions.get(n)
        if lattice is None:
            self._check_sizes(n)
            lattice = self._descriptions[n] = build_filter_lattice(
                self.model, canonical_varset(n), self.max_term_depth, geometry=self.geometry)
        return lattice

    def atom_table(self, n: int) -> tuple[dict[str, list[int]], list[int]]:
        """The masks of the atomic formulas over the canonical variable set of
        size n whose terms have depth up to the depth, in `atomic_formulas`
        order, made once: per relation, its masks over the term tuples of
        `itertools.product(terms, repeat=arity)`, and with equality the
        masks over the ordered term pairs, with terms from `enumerate_terms`.
        Each term is checked and evaluated to a value column once, and each
        mask is read from the columns as the lattice build's seeds are."""
        table = self._atom_tables.get(n)
        if table is None:
            self._check_sizes(n)
            sig, varset = self.model.sig, canonical_varset(n)
            space = self.geometry.space(varset)
            columns = []
            for term in enumerate_terms(sig, varset, self.depth):
                check_term(term, sig, varset)
                columns.append(_term_columns(term, space))
            relations = {rel: [_atom_mask(self.model.rel_tables[rel], list(combo))
                               for combo in itertools.product(columns, repeat=arity)]
                         for rel, arity in sig.rels}
            equalities = ([_equal_mask(left, right) for left in columns for right in columns]
                          if sig.with_equality else [])
            table = self._atom_tables[n] = relations, equalities
        return table

    def substitutions(self, a: int, b: int) -> tuple[Substitution, ...]:
        """The substitutions from the canonical variable set of size a to that
        of size b with images of depth up to the depth, in
        `enumerate_substitutions` order: the syntax's set, for sizes in
        1..n_max.  The sweeps and searches look up pullback tables with
        these objects, so the tables are keyed by them."""
        self._check_sizes(a, b)
        return self.syntax.substitutions(a, b)

    def _tables(self, a: int, b: int) -> list[_Table]:
        """The pullback tables of `substitutions(a, b)`, in order, made once
        per frame and syntax (`Frame.table_lists`)."""
        self._check_sizes(a, b)
        lists, key = self.geometry.frame.table_lists, (self.syntax, a, b)
        tables = lists.get(key)
        if tables is None:
            tables = lists[key] = list(map(self.geometry.table, self.syntax.substitutions(a, b)))
        return tables

    @functools.cached_property
    def generators(self) -> Optional[tuple[Substitution, ...]]:
        """`substitution_generators` over sizes 1..n_max within the depth,
        when the pullback of every atom along every generator is a member;
        otherwise, or when an op has arity 2 or more, None.  Checked on
        first use."""
        if any(arity > 1 for _, arity in self.model.sig.ops):
            return None
        gens = tuple(substitution_generators(self.model.sig, self.n_max, self.depth))
        algebras = {n: self.description(n).algebra for n in range(1, self.n_max + 1)}
        table = self.geometry.table
        if all(table(g).preimage(atom) in algebras[len(g.target)].index
               for g in gens for atom in algebras[len(g.source)].block_masks()):
            return gens
        return None

    def naturality(self, a: int, b: int) -> tuple[Substitution, ...]:
        """The substitutions from size a to size b that a candidate's squares
        are checked on: the generators between the two sizes,
        in `generators` order, when there are generators, and otherwise
        every bounded substitution, in `substitutions` order.

        Given the generators, every bounded pullback of a member is a
        member, since pre_(s;t) = pre_t . pre_s and pullbacks preserve
        unions, and the squares at the generators imply every bounded square
        (`equivalence`'s module docstring, "Generators").  Otherwise, with an
        op of arity 2 or more, whose images need one more variable to
        factor, or with an undefinable generator pullback, the checks walk
        the bounded set in order, so the first undefinable pullback they meet
        is the first in that order."""
        self._check_sizes(a, b)
        gens = self.generators
        if gens is None:
            return self.substitutions(a, b)
        return tuple(g for g in gens if len(g.source) == a and len(g.target) == b)

    def _composite_rows(self, a: int, b: int, c: int) -> list[list[_Table]]:
        """Per substitution of `substitutions(a, b)`, in order, its row: the
        pullback tables of it then each of `substitutions(b, c)`, in order,
        for sizes in 1..n_max.  Made once per frame and syntax
        (`Frame.composite_rows`), so both sweeps and the description functor
        read every composite's table here.

        Each table is the geometry's table of the composite in the syntax's
        row (`Syntax.composites`), so the geometry builds it from the
        composite substitution itself, never from its factors' tables.  The
        composites are the syntax's; the tables and rows are the frame's."""
        self._check_sizes(a, b, c)
        frame_rows, key = self.geometry.frame.composite_rows, (self.syntax, a, b, c)
        rows = frame_rows.get(key)
        if rows is None:
            composites, places = self.syntax.composites(a, b, c)
            tables = list(map(self.geometry.table, composites))
            rows = frame_rows[key] = [list(map(tables.__getitem__, row)) for row in places]
        return rows

    def _unsettled_pairs(self, a: int, b: int, c: int, settled: set[tuple[int, int, int]]
                         ) -> Iterator[tuple[int, int, _Table, tuple[int, int, int]]]:
        """The composable pairs of sizes a -> b -> c whose triples are not in
        `settled`, in row order: per pair, its places i and j in
        `substitutions(a, b)` and `substitutions(b, c)`, its composite's
        table, from `_composite_rows`, and its triple, the classes
        (`_Table.cls`) of its two factors' tables and of its composite's.

        Over a finite model these categories see a substitution only through
        its pullback table, so substitutions whose tables share a class, such
        as x1 := neg(neg(x1)) and x1 := x1, are one arrow.  A pair's checks
        read its two factors' tables and its composite's, and nothing else
        that depends on the pair, so their outcome is a function of its
        triple and the algebras.  A sweep adds a triple to `settled` once a
        pair of it passes, and the later pairs of that triple are skipped,
        though they still count in `checked`.  A triple that fails is never
        settled, so each of its pairs runs and reports its own lines, which
        name its own substitutions.  A table changed after it was built
        keeps the class it was built with, so only a fault present when a
        table is built is sure to be checked on every triple it makes."""
        seconds = self._tables(b, c)
        for i, (t1, row) in enumerate(zip(self._tables(a, b), self._composite_rows(a, b, c))):
            for j, (t2, composite) in enumerate(zip(seconds, row)):
                triple = (t1.cls, t2.cls, composite.cls)
                if triple not in settled:
                    yield i, j, composite, triple

    @property
    def saturated(self) -> bool:
        """Whether every lattice is complete; builds every object."""
        return all([self.description(n).saturated for n in range(1, self.n_max + 1)])

    def check_duality(self) -> Report:
        """The sweep of the module-level `check_duality` over these objects.

        It checks no object, since a filter and its dual set are one member
        of the object's algebra, and it does not compare the duals of two
        least morphisms: the least morphism along s and its dual, the least content
        morphism along s, are functions of s, so m_i == m_j and d_i == d_j
        both say s_i == s_j.  `checked` counts one check per substitution
        (its least morphism and dual are made and checked), per identity
        and per composable pair of two substitutions with least morphisms.

        It builds no morphism.  Each least morphism and its dual are the
        `UnionMap`s of their atom images, pullbacks and closed images, which
        are admissible by construction (`DefinableAlgebra.pullback`), so two
        of them are equal when they agree on the atoms, and by the argument
        in `build_description_iso` the first member to have an undefinable
        pullback is an atom.  A composable pair's composites are image dicts,
        checked as a morphism's constructor checks its pairs.
        A least dual depends on its substitution alone, as the least content
        morphism along it, so one memo keyed by pullback table makes each
        once: a substitution's, an identity's and a composite's alike.

        A composable pair's checks read the pushes and duals of its factors,
        made from their tables, and its composite's table, so the pairs come
        from `_unsettled_pairs`, which checks each triple of classes once
        while it passes.
        """
        self._check_points()
        n_max = self.n_max
        checked = 0
        failures: list[str] = []
        sizes = range(1, n_max + 1)
        algebras = {n: self.description(n).algebra for n in sizes}
        atoms = {n: algebras[n].block_masks() for n in sizes}
        table = self.geometry.table
        # The only maker of least duals, keyed by pullback table: an identity
        # or a composite whose table is a substitution's reuses its dual.
        least_duals = _Memo(lambda t: {atom: algebras[len(t.key.source)].close(t.image(atom))
                                       for atom in atoms[len(t.key.target)]})
        # Each substitution with the member tables of its least morphism and
        # its dual, or None when it has no least morphism.
        least: dict[tuple[int, int], list[Optional[tuple[Substitution, UnionMap, UnionMap]]]] = {}
        for a, b in itertools.product(sizes, repeat=2):
            pairs = least[(a, b)] = []
            for subst, t in zip(self.substitutions(a, b), self._tables(a, b)):
                checked += 1
                try:
                    push = {atom: algebras[b].pullback(t, atom) for atom in atoms[a]}
                except UndefinablePullbackError as exc:
                    failures.append(f"no least morphism between sizes {a}->{b}: {exc}")
                    pairs.append(None)
                    continue
                pairs.append((subst, UnionMap(push), UnionMap(least_duals[t])))
        made = {ends: sum(pair is not None for pair in pairs) for ends, pairs in least.items()}

        for n in sizes:
            ident = table(Substitution.identity(algebras[n].varset))
            _check_pairs({atom: atom for atom in atoms[n]}, ident, algebras[n].index, True)
            checked += 1
            if any(image != atom for atom, image in least_duals[ident].items()):
                failures.append(f"identity over |X|={n} does not dualize to the identity")

        # Both sides of a pair's check are keyed by its composite's table.
        for a, b, c in itertools.product(sizes, repeat=3):
            members_a, members_c = algebras[a].index, algebras[c].index
            firsts, seconds = least[(a, b)], least[(b, c)]
            checked += made[(a, b)] * made[(b, c)]
            settled: set[tuple[int, int, int]] = set()
            for i, j, composite, triple in self._unsettled_pairs(a, b, c, settled):
                if firsts[i] is None or seconds[j] is None:
                    continue
                (s1, push1, dual1), (s2, push2, dual2) = firsts[i], seconds[j]
                _check_pairs({k: push2[v] for k, v in push1.atoms.items()},
                             composite, members_c, True)
                left = least_duals[composite]
                right = {k: dual1[v] for k, v in dual2.atoms.items()}
                _check_pairs(right, composite, members_a, False)
                if left != right:
                    failures.append(f"dual of a composite differs: sizes {a}->{b}->{c}, "
                                    f"subs {s1} then {s2}")
                else:
                    settled.add(triple)

        entries = (
            ("object", f"canonical variable sets of sizes 1..{n_max}"),
            ("sizes", " ".join(str(algebras[n].size) for n in sizes)),
            ("morphism family", f"least assignments for substitutions of depth <= {self.depth}"),
        )
        return Report("duality", entries, checked, tuple(failures))

    def verify_push_functoriality(self) -> Report:
        """The sweep of the module-level `verify_push_functoriality` over these
        objects.

        A composable pair (s1, s2) is one block, which holds three pullback
        tables: s1's, s2's and the composite's, from `_composite_rows`.  When
        every atom of the source lattice pushes definably along the
        composite, along s1 and along s2 after s1, and its direct and staged
        pushes agree, every member does.  A block whose atom run records a
        failure runs again over every member, through the same loop, so its
        failure lines, their order and the de-duplication of undefinable
        substitutions are those of the member sweep.  Every member counts as
        a triple either way, so each triple of sizes adds pairs times
        members to `triples` and `checked` at once.  The identity pushes run
        on the atoms too, and over every member when one moves.

        The blocks come from `_unsettled_pairs`, so the blocks of one triple
        of classes run on the atoms once while they pass.
        """
        self._check_points()
        n_max = self.n_max
        checked = 0
        failures: list[str] = []
        table = self.geometry.table
        for n in range(1, n_max + 1):
            algebra = self.description(n).algebra
            ident = table(Substitution.identity(algebra.varset))
            if any(algebra.pullback(ident, atom) != atom for atom in algebra.block_masks()):
                failures += [f"identity push moved a filter over |X|={n}"
                             for mask in algebra.masks if algebra.pullback(ident, mask) != mask]
            checked += algebra.size

        triples = 0
        undefinable: set[Substitution] = set()
        for a, b, c in itertools.product(range(1, n_max + 1), repeat=3):
            algebra_a, algebra_b, algebra_c = (self.description(n).algebra for n in (a, b, c))
            tables1, tables2 = self._tables(a, b), self._tables(b, c)
            count = len(tables1) * len(tables2) * algebra_a.size
            triples += count
            checked += count
            settled: set[tuple[int, int, int]] = set()
            for i, j, composite, triple in self._unsettled_pairs(a, b, c, settled):
                block = (tables1[i], tables2[j], composite, algebra_b, algebra_c)
                probe: list[str] = []
                _push_block(algebra_a.block_masks(), *block, probe, set())
                if probe:
                    _push_block(algebra_a.masks, *block, failures, undefinable)
                else:
                    settled.add(triple)

        entries = (
            ("object", f"canonical variable sets of sizes 1..{n_max}"),
            ("substitution depth", str(self.depth)),
            ("triples", str(triples)),
        )
        return Report("push functoriality", entries, checked, tuple(failures))


def _push_block(masks, table1: _Table, table2: _Table, composite: _Table,
                algebra_b: DefinableAlgebra, algebra_c: DefinableAlgebra,
                failures: list[str], undefinable: set[Substitution]) -> None:
    """Push each dual mask along the composite's table, then along s1's and
    s2's after it, and record a failure for the first undefinable push of
    each substitution not in `undefinable`, and for each mask whose direct
    and staged pushes differ."""
    s1, s2 = table1.key, table2.key
    for mask in masks:
        try:
            direct = algebra_c.pullback(composite, mask)
            staged = algebra_c.pullback(table2, algebra_b.pullback(table1, mask))
        except UndefinablePullbackError as exc:
            if exc.subst not in undefinable:
                undefinable.add(exc.subst)
                failures.append(f"push along {s1} then {s2}: {exc}")
            continue
        if direct != staged:
            failures.append(
                f"push along {s1} then {s2} disagrees with the composite on dual {mask:#x}")


def push_filter(subst: Substitution, filt: ClosedFilter,
                target_lattice: FilterLattice) -> ClosedFilter:
    """Push a filter forward along a substitution to the least admissible
    target: the filter whose dual is the pullback of the dual."""
    if filt.points.space.varset != subst.source:
        raise MismatchError("filter is not over the substitution's source")
    if target_lattice.varset != subst.target or target_lattice.model != filt.points.space.model:
        raise MismatchError("lattice does not match the substitution's target")
    table = filt.points.space.geometry.table(subst)
    return target_lattice.filter_for_mask(target_lattice.algebra.pullback(table, filt.mask))


def knowledge_bases(model1: Model, model2: Model, n_max: int, depth: int,
                    max_term_depth: Optional[int] = None,
                    max_points: int = DEFAULT_MAX_POINTS
                    ) -> tuple[KnowledgeBase, KnowledgeBase]:
    """The pair's knowledge bases under these bounds, one for both when the
    models are equal, so a self-pair builds each lattice once.  Each is one
    of the pair this thread's last call returned, when its model is this
    very object (`is`, not `Model.__eq__`) and its bounds are these, and
    otherwise a new one; the thread then keeps the returned pair
    (`semantics._Kept`).

    A new knowledge base takes its syntax and frame from the pair returned
    here, then from the kept pair, by the rule in `semantics._Kept`, and
    builds neither when it takes one.  A knowledge base, a syntax and a
    frame hold only memos of pure functions of their keys, and a model's
    tables are read-only, so a reused or shared one gives the reports a new
    one would.  Keying the pair on identity keeps its reuse within a
    caller's own model objects and compares no tables."""
    bounds = (n_max, depth, max_term_depth, max_points)
    kept = semantics._kept.kbs

    def resolve(model: Model, earlier: tuple[KnowledgeBase, ...]) -> KnowledgeBase:
        for kb in kept:
            if kb.model is model and (kb.n_max, kb.depth, kb.max_term_depth,
                                      kb.geometry.max_points) == bounds:
                return kb
        kb = KnowledgeBase(model, *bounds)
        for other in earlier:
            if other.depth == depth and other.model.sig.ops == model.sig.ops:
                kb.syntax = other.syntax
                break
        for other in earlier:
            if other.geometry.frame.fits(model, max_points):
                kb.geometry.frame = other.geometry.frame
                break
        return kb

    kb1 = resolve(model1, kept)
    kb2 = kb1 if model2 is model1 or model2 == model1 else resolve(model2, (kb1, *kept))
    semantics._kept.kbs = kb1, kb2
    return kb1, kb2


def knowledge_base(model: Model, n_max: int, depth: int,
                   max_term_depth: Optional[int] = None,
                   max_points: int = DEFAULT_MAX_POINTS) -> KnowledgeBase:
    """The knowledge base of `model` under these bounds, resolved by
    `knowledge_bases` as the pair of the model with itself."""
    return knowledge_bases(model, model, n_max, depth, max_term_depth, max_points)[0]


def check_duality(model: Model, n_max: int, depth: int = 1,
                  max_term_depth: Optional[int] = None) -> Report:
    """Verify the object and morphism duality up to the given bounds.

    Objects are dual by construction: each is one filter lattice, whose
    filters are the members of its algebra read as duals, and a filter's
    order is its dual's reverse inclusion.  Morphisms: for every substitution
    between canonical variable sets of sizes up to n_max with image depth up
    to depth, the least description morphism dualizes admissibly, duals
    compose contravariantly, and identities map to identities.  Dualization is injective on the
    sampled family by construction, since a least morphism and its dual are
    both functions of their substitution, so it is not compared; `checked`
    counts the checks made.  A substitution whose pullback of some dual is
    not definable has no least morphism; it is reported as a failure with
    that dual.  The knowledge base comes from `knowledge_base`, so
    `verify_push_functoriality` on the same model object and bounds reuses
    it.
    """
    return knowledge_base(model, n_max, depth, max_term_depth).check_duality()


def verify_push_functoriality(model: Model, depth: int, n_max: int,
                              max_term_depth: Optional[int] = None) -> Report:
    """Check that pushing filters forward respects identity and composition.

    Sweeps all composable substitution pairs between canonical variable sets
    of sizes up to n_max with image depth up to depth, applied to every filter
    of the source lattice.  A substitution along which some push has no
    definable pullback is reported once, as a failure naming the first such
    dual.  The knowledge base comes from `knowledge_base`, as in
    `check_duality`.
    """
    return knowledge_base(model, n_max, depth, max_term_depth).verify_push_functoriality()
