"""Assignment spaces over a finite model and formula valuation as bitmask sets.

A point is a variable assignment into the carrier.  The space of all points
over (model, varset) is enumerated lexicographically: variable order comes
from the varset, element order from the carrier.  Point sets are immutable
bitmasks over that enumeration, so all boolean structure is integer work.

Valuation runs a column at a time, with no Python loop over points.  A
term's value column is its operation table mapped over its arguments'
columns zipped (a constant, with no arguments, reads the empty tuple at
every point), and an atom's or an equality's mask is its relation or `==`
read across those columns in one pass, turned into an integer as one
binary numeral.  Projection along an axis works on whole masks through the
space's digit masks, one per carrier element, in O(|M|) big-integer
operations.  A space values each term once (`PointSpace.column`), keyed by
term equality, and builds each axis's digit masks once: it holds |M|^n
column entries per distinct term valued over it and |M| masks of |M|^n
bits per axis projected along, so, as a table's memos, it grows with what
is asked.

A `Geometry` holds one model's spaces under one point bound, one space per
varset, and reads one pullback table per substitution, computed on first
use, from its `Frame`.  A table is the one transport primitive: its
`preimage` and `image` are the only loops that move masks along a
substitution, and every caller reads them from the substitution's table,
`Geometry.table(subst)`, whether it moves one mask or many.  Every space
knows its geometry, so a point set reaches the other end of a substitution
through `pset.space.geometry`.  Each table also memoizes transport per
mask, so a mask moves along a substitution once per direction and later
calls are dict lookups.  The memo grows with the distinct masks moved;
inside the package those are lattice members and the masks of substitution
nodes' bodies.

A table depends on the carrier, the operation tables and the substitution,
never on a relation, so the tables, their classes and memos live in the
frame, keyed by the carrier, in order, the operation tables and the point
bound; the relations are read only through each space's model.

A space is also the one context for valuing formulas and comparing sets: a
valuation of a space checks each formula before it values it, and every
entry values through one, so none values an unchecked formula.  Two point
sets share a space exactly when their `PointSpace`s are equal.

A call given no geometry values over its model's kept geometry under the
default bound (`_model_geometry`), so queries on one model reuse its
spaces, columns and tables, while each call still checks and values its
formula through a valuation of its own.  What a thread keeps, what is
shared and for how long is stated once, in `_Kept`.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from itertools import chain, count, product, repeat
from operator import eq
from typing import Iterable, Iterator, Optional

from .core import (
    BoundError,
    DEFAULT_MAX_POINTS,
    MismatchError,
    Model,
    Substitution,
    Term,
    Var,
    VarSet,
    _column_rows,
    check_term,
)
from .formulas import (
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
    check_formula,
)


@dataclass(frozen=True)
class Point:
    """A variable assignment, stored as values aligned with the varset order."""

    varset: VarSet
    values: tuple

    def __getitem__(self, name: str):
        return self.values[self.varset.index(name)]

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.values) + ")"


def _check_point_count(model: Model, n: int, bound: int) -> None:
    """Refuse the space of `n` variables over the model when its points,
    |M|^n, pass the point bound."""
    count = len(model.carrier) ** n
    if count > bound:
        raise BoundError(f"{count} points exceed the bound {bound}")


class PointSpace:
    """All assignments varset -> carrier for one model, in enumeration order.

    The space belongs to `geometry`, whose `Geometry.space` makes and
    stores it.  It refuses a model other than the geometry's, and refuses
    to enumerate past the geometry's bound.

    `column(term)` is a term's value column and `digit_masks(axis)` an
    axis's digit masks, each made on first use and then held: one column of
    `size` entries per distinct term valued over the space, and |M| masks
    of `size` bits per axis projected along, bounded, as a table's memos
    are, by what is asked.
    """

    def __init__(self, model: Model, varset: VarSet, geometry: "Geometry"):
        if model is not geometry.model and model != geometry.model:
            raise MismatchError("geometry belongs to another model")
        self.geometry = geometry
        _check_point_count(model, len(varset), geometry.max_points)
        self.model = model
        self.varset = varset
        self.value_rows: tuple[tuple, ...] = tuple(
            product(model.carrier, repeat=len(varset)))
        self._row_index = {row: i for i, row in enumerate(self.value_rows)}
        self.size = len(self.value_rows)
        self.full_mask = (1 << self.size) - 1
        self._columns: dict[Term, tuple] = {}
        self._digits: list[Optional[tuple[int, ...]]] = [None] * len(varset)

    def column(self, term: Term) -> tuple:
        """The term's value at every point, in enumeration order, made once
        and held under the term, so equal terms read one tuple: a variable's
        is each element repeated once per point of the later axes, that run
        repeated once per point of the earlier ones, and an application's
        its operation table read across its arguments' columns."""
        column = self._columns.get(term)
        if column is None:
            if isinstance(term, Var):
                carrier, axis = self.model.carrier, self.varset.index(term.name)
                run = tuple(chain.from_iterable(
                    map(repeat, carrier, repeat(len(carrier) ** (len(self.varset) - 1 - axis)))))
                column = run * len(carrier) ** axis
            else:
                column = tuple(map(self.model.op_tables[term.op].__getitem__,
                                   _column_rows(list(map(self.column, term.args)), self.size)))
            column = self._columns.setdefault(term, column)
        return column

    def digit_masks(self, axis: int) -> tuple[int, ...]:
        """Per carrier position d, the mask of the points whose value on the
        axis is the d-th element: with w the axis weight, a run of w bits at
        offset d*w of every period of |M|*w bits."""
        masks = self._digits[axis]
        if masks is None:
            base = len(self.model.carrier)
            weight = base ** (len(self.varset) - 1 - axis)
            periods = self.full_mask // ((1 << base * weight) - 1)  # bit 0 of each period
            run = (1 << weight) - 1
            masks = self._digits[axis] = tuple((run << d * weight) * periods
                                               for d in range(base))
        return masks

    def point(self, index: int) -> Point:
        return Point(self.varset, self.value_rows[index])

    def index_of(self, values: tuple) -> int:
        try:
            return self._row_index[tuple(values)]
        except KeyError:
            raise MismatchError(f"{values!r} is not a point of this space") from None

    def env(self, index: int) -> dict:
        return dict(zip(self.varset.names, self.value_rows[index]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSpace):
            return NotImplemented
        return self.varset == other.varset and self.model == other.model

    __hash__ = None

    def __repr__(self) -> str:
        return f"PointSpace({self.varset}, {self.size} points)"


def _gather(mask: int, bits: list[int]) -> int:
    """The union of `bits[p]` over the points p of a mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= bits[low.bit_length() - 1]
        mask ^= low
    return out


class _Table:
    """One substitution's pullback table: the substitution it is keyed by,
    its class, per target point the bit of its composite's source index, per
    source point the mask of target points composing onto it, and the masks
    already moved each way.  Its `preimage` and `image` are the package's
    only loops that move a mask along a substitution.

    The class is the number its frame drew for the first table built with
    the same ends and the same pull list, so two tables of one class move
    every mask alike as built: their substitutions are one arrow of the
    categories over the model.  Each table still holds its own key, lists
    and memos, none shared with its class.  The table belongs to its frame
    (`Frame`), so a table changed after it is built changes every geometry
    over its frame, and keeps the class it was built with."""

    __slots__ = ("key", "cls", "bits", "fibers", "preimages", "images")

    def __init__(self, key: Substitution, pull: list[int], source_size: int, cls: int):
        self.key = key
        self.cls = cls
        self.bits = list(map((1).__lshift__, pull))
        self.fibers = [0] * source_size
        for p, q in enumerate(pull):
            self.fibers[q] |= 1 << p
        self.preimages: dict[int, int] = {}
        self.images: dict[int, int] = {}

    def preimage(self, mask: int) -> int:
        """Target-space mask of the points whose composite with the
        substitution lands in the source-space mask."""
        out = self.preimages.get(mask)
        if out is None:
            out = self.preimages[mask] = _gather(mask, self.fibers)
        return out

    def image(self, mask: int) -> int:
        """Source-space mask of the composites of the target-space mask's
        points with the substitution."""
        out = self.images.get(mask)
        if out is None:
            out = self.images[mask] = _gather(mask, self.bits)
        return out


class Frame:
    """The relation-free half of a geometry: what depends on the carrier,
    in order, the operation tables and the point bound, and on no relation.

    A point space's enumeration and a substitution's action on it are read
    from the carrier and the operations alone, so a pullback table is too.
    The frame holds the pullback tables, each keyed by the first equal
    substitution looked up, with their memos; the dict of classes, one
    pull list per class (`_Table.cls`), each a number drawn once from
    `ordinals`; and two dicts that
    `categories.KnowledgeBase` fills, keyed by a syntax and sizes: the
    table lists of its bounded substitutions (`table_lists`) and its rows
    of composite tables (`composite_rows`).  It refers to no geometry,
    space, model or knowledge base, so it is acyclic, as a
    `categories.Syntax` is.

    A geometry makes a fresh frame on first use unless given one; what
    shares a frame, for how long and across threads, is stated in `_Kept`.

    A shared frame keeps the per-mask memos of every model that used it, on
    purpose: small spaces repeat masks across models, so the next model
    finds some of its masks moved already.  Clearing every table's
    `preimages` and `images` when another model takes the frame made the
    `verify_sweeps` benchmark's median case 4.5% slower (10 interleaved
    runs a side, seed 4401, 2-vCPU Xeon, Python 3.11).  The memos are
    bounded by the masks over each space.
    """

    def __init__(self, model: Model, max_points: int):
        self.carrier = model.carrier
        self.op_tables = model.op_tables
        self.max_points = max_points
        self.tables: dict[Substitution, _Table] = {}
        self.classes: dict[tuple, int] = {}
        self.ordinals = count()
        self.table_lists: dict[tuple, list[_Table]] = {}
        self.composite_rows: dict[tuple, list[list[_Table]]] = {}

    def fits(self, model: Model, max_points: int) -> bool:
        """Whether the frame is keyed by the model's carrier, in order, its
        operation tables and this point bound."""
        return (self.max_points == max_points and self.carrier == model.carrier
                and self.op_tables == model.op_tables)


class Geometry:
    """One model's point spaces under one point bound, and the frame
    (`Frame`) it reads and builds pullback tables through.

    Spaces are built on first use and live as long as the geometry; tables
    are built on first use by the geometry whose lookup misses first, over
    its own spaces, and live as long as the frame.  Masks move along a
    substitution only through its table: `table(subst).preimage(mask)` and
    `table(subst).image(mask)`.  Equal substitutions share one table, keyed
    by the first of them looked up; a lookup with that object finds it by
    identity, without comparing terms.  Substitutions that differ but pull
    back alike, such as x1 := neg(neg(x1)) and x1 := x1, get tables of one
    class (`_Table.cls`), found as each table is built through the frame's
    dict keyed by ends and pull list; a sweep that checks each class once
    reads it.  Masks over equal spaces of different geometries are
    interchangeable, since the enumeration order is fixed by carrier and
    varset.

    Its frame is made on first use unless `categories.knowledge_bases`
    gave it a shared one before (`_Kept`).  The point bound must be at
    least 1.
    """

    def __init__(self, model: Model, max_points: int = DEFAULT_MAX_POINTS):
        if max_points < 1:
            raise MismatchError("max_points must be at least 1")
        self.model = model
        self.max_points = max_points
        self._spaces: dict[tuple[str, ...], PointSpace] = {}

    @functools.cached_property
    def frame(self) -> Frame:
        """The frame the geometry reads its tables from: a fresh one."""
        return Frame(self.model, self.max_points)

    def space(self, varset: VarSet) -> PointSpace:
        """The space over varset, refusing to enumerate past the bound, made
        on first use and stored; threads that make one space at once all
        get the one stored first."""
        space = self._spaces.get(varset.names)
        if space is None:
            space = self._spaces.setdefault(varset.names, PointSpace(self.model, varset, self))
        return space

    def table(self, subst: Substitution) -> _Table:
        """The substitution's pullback table from the frame, built there on
        first use, over this geometry's spaces, with its class
        (`_Table.cls`)."""
        frame = self.frame
        table = frame.tables.get(subst)
        if table is None:
            source = self.space(subst.source)
            pull = pullback_indices(subst, source, self.space(subst.target))
            cls = frame.classes.setdefault((subst.source.names, subst.target.names, tuple(pull)),
                                           next(frame.ordinals))
            table = frame.tables.setdefault(subst, _Table(subst, pull, source.size, cls))
        return table


def enumerate_points(model: Model, varset: VarSet) -> PointSpace:
    """Build the assignment space in a fresh geometry under the default
    bound, which no later call shares; a caller with a bound of its own asks
    its `Geometry.space`."""
    return Geometry(model).space(varset)


class _Kept(threading.local):
    """What a thread keeps between calls, in one record of its own, so no two
    threads share anything through it.

    `geometry` is the geometry under the default bound of the last model
    object that a call given no geometry resolved (`_model_geometry`), and
    `kbs` the pair of knowledge bases that `categories.knowledge_bases`
    returned last.  Each is reused for the very same model objects (`is`,
    not `Model.__eq__`), and the pair under the same bounds only.

    Sharing.  A `Geometry` constructed directly makes its own `Frame` on
    first use, and a `categories.KnowledgeBase` constructed directly its own
    frame and `categories.Syntax`; neither shares them.  Only
    `knowledge_bases` shares syntaxes and frames: a knowledge base it makes
    takes the syntax of the first of the pair being returned, then of the
    kept pair, over its operations and depth, and the frame of the first
    over its carrier, in order, operation tables and point bound
    (`Frame.fits`).  So both sides of a decision, and models resolved in a
    row over one operation set and depth, enumerate and compose each
    substitution set once, and over one carrier, operation tables and point
    bound build each table once.

    Threads.  A resolved knowledge base may be swept in another thread,
    beside others over its syntax and frame.  So a syntax, a frame and a
    space follow one rule: an entry is stored only once built whole, and
    two threads that build one entry at once build equal ones, or, for a
    table and its class, store the first by `dict.setdefault`.  A class is
    drawn from a counter: read from the number of classes, which may change
    before the store, it could name two pull lists.  Composites and the
    interning memos their builds share are made under the syntax's lock.

    Lifetimes.  A kept geometry keeps its model, spaces and frame alive,
    its tables' memos included, and the kept pair its knowledge bases with
    their objects, syntaxes and frames, until the thread's next call on
    other models or bounds replaces them.  Then a set, lattice or knowledge
    base built over one keeps it alive as long as that lives, and otherwise
    the cyclic collector frees it (a geometry and its spaces refer to each
    other).  A syntax or frame lives while a knowledge base or geometry
    holds it.  A caller who wants its state freed with its results passes a
    `Geometry` or constructs a `KnowledgeBase` of its own.
    """

    geometry: Optional[Geometry] = None
    kbs: tuple = ()


_kept = _Kept()


def _model_geometry(model: Model, geometry: Optional[Geometry]) -> Geometry:
    """`geometry`, which must be the model's.  Without one, the geometry
    under the default bound this thread keeps for this very model object
    (`is`, not `Model.__eq__`), and otherwise a new one, which replaces the
    kept one."""
    if geometry is None:
        geometry = _kept.geometry
        if geometry is None or geometry.model is not model:
            geometry = _kept.geometry = Geometry(model)
        return geometry
    if geometry.model != model:
        raise MismatchError("geometry belongs to another model")
    return geometry


class PointSet:
    """An immutable subset of a point space, held as an integer bitmask."""

    __slots__ = ("space", "mask")

    def __init__(self, space: PointSpace, mask: int):
        if mask < 0 or mask > space.full_mask:
            raise MismatchError(f"mask {mask:#x} outside space of {space.size} points")
        self.space = space
        self.mask = mask

    @classmethod
    def empty(cls, space: PointSpace) -> "PointSet":
        return cls(space, 0)

    @classmethod
    def full(cls, space: PointSpace) -> "PointSet":
        return cls(space, space.full_mask)

    @classmethod
    def of_rows(cls, space: PointSpace, rows) -> "PointSet":
        mask = 0
        for row in rows:
            mask |= 1 << space.index_of(tuple(row))
        return cls(space, mask)

    def _check_same_space(self, other: "PointSet") -> None:
        if self.space != other.space:
            raise MismatchError("point sets live over different spaces")

    def union(self, other: "PointSet") -> "PointSet":
        self._check_same_space(other)
        return PointSet(self.space, self.mask | other.mask)

    def intersect(self, other: "PointSet") -> "PointSet":
        self._check_same_space(other)
        return PointSet(self.space, self.mask & other.mask)

    def complement(self) -> "PointSet":
        return PointSet(self.space, self.space.full_mask & ~self.mask)

    def is_subset_of(self, other: "PointSet") -> bool:
        self._check_same_space(other)
        return self.mask & ~other.mask == 0

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def contains_values(self, values: tuple) -> bool:
        return bool(self.mask >> self.space.index_of(tuple(values)) & 1)

    def indices(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def points(self) -> tuple[Point, ...]:
        return tuple(self.space.point(i) for i in self.indices())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.mask == other.mask and self.space == other.space

    def __hash__(self) -> int:
        return hash((self.space.varset.names, self.mask))

    def __str__(self) -> str:
        return "{" + ", ".join(str(self.space.point(i)) for i in self.indices()) + "}"

    def __repr__(self) -> str:
        return f"PointSet({self.space.varset}, mask={self.mask:#x})"


_BINARY = bytes.maketrans(b"\x00\x01", b"01")


def _truth_mask(truths: Iterable[bool]) -> int:
    """The mask of the points whose entry of a truth column is true, read
    as one binary numeral, the last point first."""
    return int(bytes(truths)[::-1].translate(_BINARY), 2)


def _atom_mask(rows: frozenset, columns: list) -> int:
    """The points whose argument tuple, read across the columns, is a row of
    the relation."""
    return _truth_mask(map(rows.__contains__, zip(*columns)))


def _equal_mask(left: tuple, right: tuple) -> int:
    """The points where two value columns agree."""
    return _truth_mask(map(eq, left, right))


def pullback_indices(subst: Substitution, source_space: PointSpace,
                     target_space: PointSpace) -> list[int]:
    """For each target point mu, the source index of the composite mu after subst.

    The substitution maps source variables to terms over the target varset, so
    composing an assignment over the target with it yields an assignment over
    the source.
    """
    if source_space.varset != subst.source or target_space.varset != subst.target:
        raise MismatchError("substitution endpoints do not match the given spaces")
    if source_space.model != target_space.model:
        raise MismatchError("spaces live over different models")
    try:
        return list(map(source_space._row_index.__getitem__,
                        zip(*map(target_space.column, subst.images))))
    except KeyError as missing:
        point = missing.args[0]
    # an operation the model lacks, or one given the wrong number of
    # arguments, misses its table before any row is looked up
    for image in subst.images:
        check_term(image, target_space.model.sig, subst.target)
    raise MismatchError(f"{point!r} is not a point of this space")


def _exists_mask(mask: int, space: PointSpace, var: str) -> int:
    """Cylindrify along one axis: keep every point whose fiber meets the mask.

    A fiber's root is its point of axis digit 0.  With w the axis weight,
    each digit d's part of the mask shifts down by d*w onto the roots, and
    the roots hit shift back up onto every digit: O(|M|) big-integer
    operations, whatever the space's size."""
    axis = space.varset.index(var)
    weight = len(space.model.carrier) ** (len(space.varset) - 1 - axis)
    digits = space.digit_masks(axis)
    roots = 0
    for d, digit in enumerate(digits):
        roots |= (mask & digit) >> d * weight
    out = 0
    for d in range(len(digits)):
        out |= roots << d * weight
    return out


class _Valuation:
    """Formula valuation over one space: the space, its formula context, and
    the nodes checked and valued over it, keyed on node identity.  One call
    or one algebra owns it, so that formulas sharing subformulas have each
    shared node checked and valued once.  The owner keeps every keyed node
    alive while it uses the valuation, so no identity is reused."""

    __slots__ = ("space", "context", "checked", "masks")

    def __init__(self, space: PointSpace):
        self.space = space
        self.context = FormulaContext(space.model.sig, space.varset)
        self.checked: set[int] = set()
        self.masks: dict[int, int] = {}

    def mask(self, f: Formula) -> int:
        """Check the formula over the space, then its mask there."""
        check_formula(f, self.context, self.checked)
        return _formula_mask(f, self.space, self.masks)


def _formula_mask(f: Formula, space: PointSpace, memo: dict) -> int:
    """Recursive valuation over one space; substitution nodes are evaluated
    over the space's geometry and pulled back into the space.  `memo` is a
    `_Valuation.masks` of this space: a node valued before is answered from
    it."""
    out = memo.get(id(f))
    if out is None:
        out = memo[id(f)] = _node_mask(f, space, memo)
    return out


def _node_mask(f: Formula, space: PointSpace, memo: dict) -> int:
    """One node's mask, its children's from `memo`.  Dispatch is on the
    exact node class, as in `formulas._render`."""
    kind = type(f)
    if kind is And:
        return _formula_mask(f.left, space, memo) & _formula_mask(f.right, space, memo)
    if kind is Or:
        return _formula_mask(f.left, space, memo) | _formula_mask(f.right, space, memo)
    if kind is Not:
        return space.full_mask & ~_formula_mask(f.body, space, memo)
    if kind is Atom:
        return _atom_mask(space.model.rel_tables[f.rel], list(map(space.column, f.args)))
    if kind is Exists:
        return _exists_mask(_formula_mask(f.body, space, memo), space, f.var)
    if kind is Equal:
        return _equal_mask(space.column(f.left), space.column(f.right))
    if kind is TrueF:
        return space.full_mask
    if kind is FalseF:
        return 0
    if kind is Implies:
        return ((space.full_mask & ~_formula_mask(f.left, space, memo))
                | _formula_mask(f.right, space, memo))
    if kind is Forall:
        inner = space.full_mask & ~_formula_mask(f.body, space, memo)
        return space.full_mask & ~_exists_mask(inner, space, f.var)
    if kind is SubstNode:
        geometry = space.geometry
        inner = _formula_mask(f.body, geometry.space(f.subst.source), {})
        return geometry.table(f.subst).preimage(inner)
    raise MismatchError(f"not a formula: {f!r}")


def satisfying_points(f: Formula, model: Model, varset: VarSet, *,
                      geometry: Optional[Geometry] = None) -> PointSet:
    """The set of assignments over varset at which the formula holds,
    checked and valued from scratch over the space.

    The space comes from `geometry`, the model's geometry, which holds the
    point bound; without one, from the model's kept geometry under the
    default bound (`_model_geometry`).
    """
    space = _model_geometry(model, geometry).space(varset)
    return PointSet(space, _Valuation(space).mask(f))


def holds_at(point: Point, f: Formula, model: Model, *,
             geometry: Optional[Geometry] = None) -> bool:
    """Truth of the formula at one assignment, valued as `satisfying_points`
    values it."""
    sat = satisfying_points(f, model, point.varset, geometry=geometry)
    return sat.contains_values(point.values)


def points_satisfying_all(formulas, model: Model, varset: VarSet, *,
                          geometry: Optional[Geometry] = None) -> PointSet:
    """Common solutions of a formula collection, checked and valued through
    one valuation of the space, so a subformula the formulas share is valued
    once; the empty collection gives the full space.  The space comes from
    `geometry` or the model's kept geometry, as in `satisfying_points`."""
    valuation = _Valuation(_model_geometry(model, geometry).space(varset))
    mask = valuation.space.full_mask
    for f in tuple(formulas):  # held, so no valued node's identity is reused
        mask &= valuation.mask(f)
    return PointSet(valuation.space, mask)


def holds_on_all(pset: PointSet, f: Formula) -> bool:
    """True when the formula is satisfied by every point of the set.  This is
    membership of the formula in the filter cut out by the set.  The formula
    is checked and valued over the set's space."""
    return pset.mask & ~_Valuation(pset.space).mask(f) == 0


def subst_preimage_points(subst: Substitution, pset: PointSet) -> PointSet:
    """Points over the target whose composite with the substitution lands in
    the given source-space set, in the set's geometry."""
    if pset.space.varset != subst.source:
        raise MismatchError(
            f"point set is over {pset.space.varset}, substitution starts at {subst.source}")
    geometry = pset.space.geometry
    return PointSet(geometry.space(subst.target), geometry.table(subst).preimage(pset.mask))


def subst_image_points(subst: Substitution, pset: PointSet) -> PointSet:
    """Composites mu after subst for mu in the given target-space set, in the
    set's geometry."""
    if pset.space.varset != subst.target:
        raise MismatchError(
            f"point set is over {pset.space.varset}, substitution targets {subst.target}")
    geometry = pset.space.geometry
    return PointSet(geometry.space(subst.source), geometry.table(subst).image(pset.mask))


__all__ = [
    "Point",
    "PointSpace",
    "PointSet",
    "Geometry",
    "enumerate_points",
    "satisfying_points",
    "holds_at",
    "points_satisfying_all",
    "holds_on_all",
    "subst_preimage_points",
    "subst_image_points",
    "pullback_indices",
]
