"""Finite signatures, free terms, substitutions, and finite models with tables."""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional

DEFAULT_MAX_POINTS = 10 ** 6
RESERVED_WORDS = frozenset({"true", "false", "exists", "forall", "subst"})


class ParseError(ValueError):
    """Syntax error in term, formula, or model text."""

    def __init__(self, message: str, position: Optional[int] = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class SignatureError(ValueError):
    """A name or arity is used inconsistently with the declared signature."""


class ModelError(ValueError):
    """Carrier or interpretation tables are malformed."""


class MismatchError(ValueError):
    """Two values that must share a variable set, signature, or model do not."""


class BoundError(ValueError):
    """A configured enumeration bound would be exceeded."""


def _check_name(name: str, what: str) -> None:
    """Refuse a name that is not an identifier the scanner reads as one name
    token, such as "Pé" spelt with a combining accent, or a reserved word."""
    if not isinstance(name, str) or not name.isidentifier():
        raise SignatureError(f"{what} name {name!r} is not an identifier")
    if _SCANNER.findall(name) != [name] or not _starts_name(name):
        raise SignatureError(f"{what} name {name!r} does not scan as one name token")
    if name in RESERVED_WORDS:
        raise SignatureError(f"{what} name {name!r} is a reserved word")


@dataclass(frozen=True)
class Signature:
    """Operation and relation symbols with arities, plus the equality flag.

    Operation arities may be zero (constants, whose names `constants`
    holds); relation arities must be positive.  Equality is built in,
    written ``=``, and needs no symbol.
    """

    ops: tuple[tuple[str, int], ...] = ()
    rels: tuple[tuple[str, int], ...] = ()
    with_equality: bool = True

    def __post_init__(self):
        ops = tuple((str(n), int(a)) for n, a in self.ops)
        rels = tuple((str(n), int(a)) for n, a in self.rels)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "rels", rels)
        seen: set[str] = set()
        for name, arity in ops:
            _check_name(name, "operation")
            if arity < 0:
                raise SignatureError(f"operation {name} has negative arity")
            if name in seen:
                raise SignatureError(f"duplicate symbol {name}")
            seen.add(name)
        for name, arity in rels:
            _check_name(name, "relation")
            if arity < 1:
                raise SignatureError(f"relation {name} must have arity >= 1")
            if name in seen:
                raise SignatureError(f"duplicate symbol {name}")
            seen.add(name)
        object.__setattr__(self, "_op_arity", dict(ops))
        object.__setattr__(self, "_rel_arity", dict(rels))
        object.__setattr__(self, "constants", frozenset(n for n, a in ops if a == 0))

    def op_arity(self, name: str) -> Optional[int]:
        return self._op_arity.get(name)

    def rel_arity(self, name: str) -> Optional[int]:
        return self._rel_arity.get(name)

    @property
    def rel_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.rels)


@dataclass(frozen=True)
class VarSet:
    """A nonempty, ordered set of distinct variable names."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not names:
            raise SignatureError("variable set must be nonempty")
        if len(set(names)) != len(names):
            raise SignatureError(f"duplicate variable in {names}")
        for name in names:
            _check_name(name, "variable")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    @classmethod
    def of(cls, *names: str) -> "VarSet":
        return cls(tuple(names))

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise MismatchError(f"variable {name} not in {{{', '.join(self.names)}}}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __str__(self) -> str:
        return "{" + ", ".join(self.names) + "}"


@functools.lru_cache(maxsize=None)
def canonical_varset(n: int) -> VarSet:
    """The standard variable set x1..xn used for size-indexed sweeps; built
    once per n, since a VarSet is frozen."""
    if n < 1:
        raise SignatureError("canonical variable set needs n >= 1")
    return VarSet(tuple(f"x{i}" for i in range(1, n + 1)))


class Term:
    """Base class for elements of the free term algebra."""

    __slots__ = ()

    def __str__(self) -> str:
        return term_to_text(self)


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class OpApp(Term):
    op: str
    args: tuple[Term, ...] = ()


def term_to_text(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    if not term.args:
        return term.op
    return term.op + "(" + ",".join(term_to_text(a) for a in term.args) + ")"


def term_depth(term: Term) -> int:
    """Nesting depth: variables are 0, an application adds 1."""
    if isinstance(term, Var):
        return 0
    return 1 + max((term_depth(a) for a in term.args), default=0)


def term_vars(term: Term) -> frozenset[str]:
    if isinstance(term, Var):
        return frozenset((term.name,))
    out: frozenset[str] = frozenset()
    for a in term.args:
        out |= term_vars(a)
    return out


def check_term(term: Term, sig: Signature, varset: VarSet) -> None:
    """Validate symbols, arities, and variable membership; raise on failure."""
    if isinstance(term, Var):
        if term.name not in varset:
            raise MismatchError(f"variable {term.name} not in {varset}")
        return
    if not isinstance(term, OpApp):
        raise SignatureError(f"not a term: {term!r}")
    arity = sig.op_arity(term.op)
    if arity is None:
        raise SignatureError(f"unknown operation {term.op}")
    if arity != len(term.args):
        raise SignatureError(f"operation {term.op} expects {arity} arguments, got {len(term.args)}")
    for a in term.args:
        check_term(a, sig, varset)


# --- scanner shared by the term and formula parsers ---
# One pattern reads a token: a run of word characters, a two-character
# symbol, or any other single character but whitespace, which it skips.  \w
# and \s match exactly str.isalnum()-or-"_" and str.isspace().  A token is a
# symbol of SYMBOLS or a name, a word run that starts with a letter or "_";
# any other token is an error at its first character, so "x²" is a name and
# "²x" an error there.  A text is read by one `findall` of the values;
# offsets come from a `finditer` of the same pattern, only where a message
# names one.
_SCANNER = re.compile(r"\w+|->|:=|\S")
SYMBOLS = frozenset({"->", ":=", "(", ")", ",", "=", ".", "&", "|", "!", "{", "}"})


def _starts_name(value: str) -> bool:
    return value[0].isalpha() or value[0] == "_"


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """Split text into (kind, value, offset) tokens; kind is 'name' or the symbol itself."""
    tokens = []
    for m in _SCANNER.finditer(text):
        value = m.group()
        if value in SYMBOLS:
            tokens.append((value, value, m.start()))
        elif _starts_name(value):
            tokens.append(("name", value, m.start()))
        else:
            raise ParseError(f"unexpected character {value[0]!r}", position=m.start())
    return tokens


# The deepest nesting the term and formula parsers accept, with connectives,
# parentheses and term applications counted together.  Reading, checking,
# printing and valuing a parsed text recurse once per level, in at most
# three frames, and reach Python's default limit of 1,000 frames near 490
# nested negations or 330 nested term applications; the bound leaves a
# margin below both.
MAX_NESTING = 200


# The value of the sentinel that ends every `TokenStream`; no scanned token
# is empty.  `_NOT_NAMES` holds every value that is not a name.
END = ""
_NOT_NAMES = SYMBOLS | {END}


def too_deep(position: int) -> ParseError:
    """The error for a text that passes `MAX_NESTING` at `position`."""
    return ParseError(f"input nested deeper than {MAX_NESTING} levels", position=position)


class TokenStream:
    """The token values of a text, read by index.

    `values` is one `findall` of the scanner, each value a name or a symbol
    of SYMBOLS, and ends with the sentinel `END`, so a lookahead never runs
    out and no token test needs a length check.  `pos` is the index of the
    next token.  A token's character offset is computed only for an error
    message, by `offset`.  The stream is a plain cursor: each parse
    function takes the nesting level it starts at and returns the height it
    reaches."""

    __slots__ = ("text", "values", "pos")

    def __init__(self, text: str):
        values = _SCANNER.findall(text)
        if not all(map(_starts_name, set(values).difference(SYMBOLS))):
            tokenize(text)  # raises at the first token that is neither a name nor a symbol
        values.append(END)
        self.text = text
        self.values = values
        self.pos = 0

    def offset(self, index: int) -> int:
        """The character offset of the token at `index`; the sentinel's is
        the text's length."""
        if index == len(self.values) - 1:
            return len(self.text)
        return next(itertools.islice(_SCANNER.finditer(self.text), index, None)).start()

    def error(self, message: str, index: int) -> ParseError:
        return ParseError(message, position=self.offset(index))

    def unexpected(self, index: int, wanted: str) -> ParseError:
        """The error for the token at `index` where `wanted` must stand:
        'name' or a symbol."""
        value = self.values[index]
        if value == END:
            return self.error("unexpected end of input", index)
        return self.error(f"expected {wanted!r}, found {value!r}", index)

    def expect(self, symbol: str) -> None:
        """Pass the symbol at the cursor, or refuse the text."""
        if self.values[self.pos] != symbol:
            raise self.unexpected(self.pos, symbol)
        self.pos += 1

    def name(self) -> str:
        """Pass the name at the cursor and return it, or refuse the text."""
        value = self.values[self.pos]
        if value in _NOT_NAMES:
            raise self.unexpected(self.pos, "name")
        self.pos += 1
        return value

    def require_done(self) -> None:
        value = self.values[self.pos]
        if value != END:
            raise self.error(f"trailing input {value!r}", self.pos)


def parse_term_stream(ts: TokenStream, sig: Signature, varset: VarSet,
                      depth: int = 0) -> tuple[Term, int]:
    """Parse one term at nesting level `depth`; return it with its height, one
    level per nested application, refusing an application past
    `MAX_NESTING` at its name.  Variables shadow nullary operations."""
    values = ts.values
    at = ts.pos
    name = values[at]
    if name in _NOT_NAMES:
        if name == END:
            raise ts.error("unexpected end of input", at)
        raise ts.error(f"expected a term, found {name!r}", at)
    if values[at + 1] != "(":
        ts.pos = at + 1
        if name in varset:
            return Var(name), 0
        arity = sig.op_arity(name)
        if arity == 0:
            return OpApp(name, ()), 0
        if arity is not None:
            raise ts.error(f"operation {name} expects {arity} arguments, got 0", at)
        raise ts.error(f"unknown term symbol {name}", at)
    arity = sig.op_arity(name)
    if arity is None:
        raise ts.error(f"unknown operation {name}", at)
    if depth >= MAX_NESTING:
        raise too_deep(ts.offset(at))
    ts.pos = at + 1
    args, height = parse_term_args(ts, sig, varset, depth + 1)
    if len(args) != arity:
        raise ts.error(f"operation {name} expects {arity} arguments, got {len(args)}", at)
    return OpApp(name, args), height + 1


def parse_term_args(ts: TokenStream, sig: Signature, varset: VarSet,
                    depth: int = 0) -> tuple[tuple[Term, ...], int]:
    """Parse `(term, ..., term)`, one term at least, each at nesting level
    `depth`, and return the terms with the greatest of their heights."""
    ts.expect("(")
    arg, height = parse_term_stream(ts, sig, varset, depth)
    args = [arg]
    while ts.values[ts.pos] == ",":
        ts.pos += 1
        arg, arg_height = parse_term_stream(ts, sig, varset, depth)
        args.append(arg)
        if arg_height > height:
            height = arg_height
    ts.expect(")")
    return tuple(args), height


def parse_term(text: str, sig: Signature, varset: VarSet) -> Term:
    """Parse a full term; the entire text must be consumed."""
    ts = TokenStream(text)
    term, _ = parse_term_stream(ts, sig, varset)
    ts.require_done()
    return term


@dataclass(frozen=True)
class Substitution:
    """A map from source variables to terms over the target variable set.

    Images are stored in source order, so two substitutions are equal exactly
    when they agree on every source variable.  The hash is computed once, on
    first use, and cached: substitutions key the pullback tables of a
    geometry, and every table lookup hashes its key, so an uncached hash
    would walk every image term on each lookup.
    """

    source: VarSet
    target: VarSet
    images: tuple[Term, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if len(images) != len(self.source):
            raise MismatchError(
                f"substitution needs {len(self.source)} images, got {len(images)}")
        for term in images:
            extra = term_vars(term) - set(self.target.names)
            if extra:
                raise MismatchError(
                    f"image {term} uses variables {sorted(extra)} outside {self.target}")

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.source, self.target, self.images)))
            return self._hash

    def __reduce__(self):
        """Copied and pickled as its fields, without the cached hash, which
        an interpreter with another hash seed would not reproduce."""
        return Substitution, (self.source, self.target, self.images)

    @classmethod
    def of(cls, source: VarSet, target: VarSet, mapping: Mapping[str, Term]) -> "Substitution":
        try:
            images = tuple(mapping[name] for name in source.names)
        except KeyError as exc:
            raise MismatchError(f"no image for variable {exc.args[0]}") from None
        return cls(source, target, images)

    @classmethod
    def identity(cls, varset: VarSet) -> "Substitution":
        return cls(varset, varset, tuple(Var(n) for n in varset.names))

    @classmethod
    def _trusted(cls, source: VarSet, target: VarSet, images: tuple[Term, ...]) -> "Substitution":
        """The substitution with these images, unchecked: the caller knows one
        per source variable, each over the target's variables, as a
        composite's are.  `compose_subst` and `categories.Syntax` use it."""
        out = object.__new__(cls)
        out.__dict__.update(source=source, target=target, images=images)
        return out

    @classmethod
    def renaming(cls, source: VarSet, target: VarSet, mapping: Mapping[str, str]) -> "Substitution":
        return cls(source, target, tuple(Var(mapping[n]) for n in source.names))

    def image_of(self, name: str) -> Term:
        return self.images[self.source.index(name)]

    def apply_to_term(self, term: Term) -> Term:
        if isinstance(term, Var):
            return self.images[self.source.index(term.name)]
        return OpApp(term.op, tuple(map(self.apply_to_term, term.args)))

    @property
    def is_identity(self) -> bool:
        return self.source == self.target and all(
            isinstance(t, Var) and t.name == n for n, t in zip(self.source.names, self.images))

    def as_renaming(self) -> Optional[dict[str, str]]:
        """The variable bijection this substitution performs, or None."""
        mapping: dict[str, str] = {}
        for name, term in zip(self.source.names, self.images):
            if not isinstance(term, Var):
                return None
            mapping[name] = term.name
        if not len(self.target) == len(mapping) == len(set(mapping.values())):
            return None
        return mapping

    def inverted(self) -> "Substitution":
        """Inverse of a renaming; raises MismatchError otherwise."""
        mapping = self.as_renaming()
        if mapping is None:
            raise MismatchError(f"substitution {self} is not an invertible renaming")
        inverse = {v: k for k, v in mapping.items()}
        return Substitution.renaming(self.target, self.source, inverse)

    def __str__(self) -> str:
        inner = ", ".join(f"{n} := {t}" for n, t in zip(self.source.names, self.images))
        return "{" + inner + "}"


def compose_subst(first: Substitution, second: Substitution) -> Substitution:
    """The substitution doing `first` then `second`; first: X->Y, second: Y->Z."""
    if first.target != second.source:
        raise MismatchError(
            f"cannot compose: first targets {first.target}, second starts at {second.source}")
    return Substitution._trusted(first.source, second.target,
                                 tuple(map(second.apply_to_term, first.images)))


class _OpTable(dict):
    """An operation table: a dict, so that lookups run at a dict's speed,
    whose mutators raise `TypeError`."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("a model's tables are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only


class Model:
    """A finite model: carrier, total operation tables, and relation tables.

    Carrier elements are opaque hashable labels ordered by their position in
    the carrier tuple.  Operation tables must be total and closed; relation
    tables default to empty.  A model's tables are read-only: `op_tables`
    and `rel_tables` are mapping proxies, each op table refuses assignment,
    and each relation table is a frozenset; any mutation raises `TypeError`.
    Its knowledge bases, geometries and lattices are memos of its tables,
    and `categories.knowledge_bases` and the geometry resolver of
    `semantics` reuse them by the model's identity (`semantics._Kept`).
    """

    def __init__(self, sig: Signature, carrier, op_tables=None, rel_tables=None):
        self.sig = sig
        self.carrier = tuple(carrier)
        if not self.carrier:
            raise ModelError("carrier must be nonempty")
        if len(set(self.carrier)) != len(self.carrier):
            raise ModelError("carrier elements must be distinct")
        self._index = {e: i for i, e in enumerate(self.carrier)}
        elems = set(self.carrier)

        op_tables = dict(op_tables or {})
        ops: dict[str, _OpTable] = {}
        for name, arity in sig.ops:
            raw = op_tables.pop(name, None)
            if raw is None:
                raise ModelError(f"op {name} has no table")
            table = {tuple(k): v for k, v in raw.items()}
            for key, value in table.items():
                if len(key) != arity:
                    raise ModelError(f"op {name} row {key} has wrong arity")
                if any(e not in elems for e in key) or value not in elems:
                    raise ModelError(f"op {name} row {key} -> {value} leaves the carrier")
            if len(table) != len(self.carrier) ** arity:
                raise ModelError(f"op {name} not total")
            ops[name] = _OpTable(table)
        if op_tables:
            raise ModelError(f"table for undeclared op {sorted(op_tables)[0]}")
        self.op_tables: Mapping[str, Mapping[tuple, object]] = MappingProxyType(ops)

        rel_tables = dict(rel_tables or {})
        rels: dict[str, frozenset] = {}
        for name, arity in sig.rels:
            raw = rel_tables.pop(name, ())
            rows = frozenset(tuple(r) for r in raw)
            for row in rows:
                if len(row) != arity:
                    raise ModelError(f"rel {name} row {row} has wrong arity")
                if any(e not in elems for e in row):
                    raise ModelError(f"rel {name} row {row} leaves the carrier")
            rels[name] = rows
        if rel_tables:
            raise ModelError(f"table for undeclared rel {sorted(rel_tables)[0]}")
        self.rel_tables: Mapping[str, frozenset] = MappingProxyType(rels)

    def __reduce__(self):
        """Copied and pickled as its constructor's arguments."""
        ops = {name: dict(table) for name, table in self.op_tables.items()}
        return Model, (self.sig, self.carrier, ops, dict(self.rel_tables))

    def element_index(self, element) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise ModelError(f"element {element!r} not in carrier") from None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Model):
            return NotImplemented
        return (self.sig == other.sig and self.carrier == other.carrier
                and self.op_tables == other.op_tables and self.rel_tables == other.rel_tables)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Model(carrier={self.carrier!r}, ops={[n for n, _ in self.sig.ops]}, rels={[n for n, _ in self.sig.rels]})"


def eval_term(term: Term, env: Mapping[str, object], model: Model):
    """Value of a term under a variable assignment."""
    if isinstance(term, Var):
        return env[term.name]
    table = model.op_tables[term.op]
    return table[tuple(eval_term(a, env, model) for a in term.args)]


def bijections(cells, fits=None) -> Iterator[dict]:
    """The bijections from each cell's sources onto its targets, for a list
    of (sources, targets) cells, as dicts from source to target.  One
    iterative backtracking search assigns the sources in cell order, each
    trying its cell's unused targets in order, so the leaves come in the
    order `itertools.product` gives over each cell's target permutations.
    `fits(mapping, source)` runs after each assignment and cuts the branch
    when false; it reads only assigned sources, so it skips just the leaves
    that would fail it.  The carrier maps (`model_isomorphisms`) and the
    relation permutations (`equivalence`) come from one cell each."""
    slots = []
    for sources, targets in cells:
        used: set = set()
        slots += [(source, targets, used) for source in sources]
    mapping, chosen, depth = {}, [-1] * len(slots), 0
    while depth >= 0:
        if depth == len(slots):
            yield dict(mapping)
            depth -= 1
            continue
        source, targets, used = slots[depth]
        used.discard(chosen[depth])
        for k in range(chosen[depth] + 1, len(targets)):
            if k not in used:
                mapping[source] = targets[k]
                if fits is None or fits(mapping, source):
                    used.add(k)
                    chosen[depth] = k
                    depth += 1
                    break
        else:
            mapping.pop(source, None)
            chosen[depth] = -1
            depth -= 1


def _fact_check(source: Model, target: Model) -> Optional[Callable[[dict, object], bool]]:
    """`fits` for carrier maps source -> target in `bijections`: whether a
    map sends each source fact whose last element in the carrier is the one
    given to a target fact.  A fact is a row of a relation or of an op's
    graph, its arguments then its value.  None when a symbol's row counts
    differ, so that no bijection keeps them all."""
    def graphs(model: Model) -> dict:
        ops = {name: {key + (value,) for key, value in table.items()}
               for name, table in model.op_tables.items()}
        return {**ops, **model.rel_tables}

    graphs1, graphs2 = graphs(source), graphs(target)
    if any(len(rows) != len(graphs2[name]) for name, rows in graphs1.items()):
        return None
    index: dict = {e: [] for e in source.carrier}
    for name, rows in graphs1.items():
        for row in rows:
            index[max(row, key=source._index.__getitem__)].append((row, graphs2[name]))

    def fits(mapping: dict, element) -> bool:
        for row, rows in index[element]:
            if tuple(map(mapping.__getitem__, row)) not in rows:
                return False
        return True
    return fits


class ModelMap:
    """A carrier bijection between models that preserves every table both ways."""

    def __init__(self, source: Model, target: Model, images):
        if source.sig != target.sig:
            raise MismatchError("models have different signatures")
        images = tuple(images)
        if (not len(source.carrier) == len(images) == len(target.carrier)
                or set(images) != set(target.carrier)):
            raise ModelError("images do not form a bijection onto the target carrier")
        self._map = dict(zip(source.carrier, images))
        fits = _fact_check(source, target)
        if fits is None or not all(fits(self._map, e) for e in source.carrier):
            raise ModelError("map does not preserve the interpretation tables")
        self.source = source
        self.target = target
        self.images = images

    def apply(self, element):
        return self._map[element]

    def apply_values(self, values: tuple) -> tuple:
        return tuple(self._map[v] for v in values)

    def describe(self) -> str:
        return " ".join(f"{a}->{b}" for a, b in zip(self.source.carrier, self.images))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.images == other.images)

    __hash__ = None

    def __repr__(self) -> str:
        return f"ModelMap({self.describe()})"


def model_isomorphisms(source: Model, target: Model) -> Iterator[ModelMap]:
    """The isomorphisms source -> target, in lexicographic carrier order, as
    a lazy iterator: a caller that needs one stops at the first.  The
    signatures are compared on the call.  One `bijections` search checks
    each op and relation fact once its last element is assigned, and the
    row counts before it starts: a branch ends at its first broken fact, so
    it skips only maps that are not isomorphisms, and the order stands."""
    if source.sig != target.sig:
        raise MismatchError("models have different signatures")
    fits = _fact_check(source, target)
    if len(source.carrier) != len(target.carrier) or fits is None:
        return iter(())
    found = bijections([(source.carrier, target.carrier)], fits)
    return (ModelMap(source, target, mapping.values()) for mapping in found)


@dataclass(frozen=True)
class TermFunction:
    """A pointwise function table over the assignment space, with a witness term."""

    values: tuple
    witness: Term

    def __str__(self) -> str:
        return f"{self.witness}: {self.values}"


def _column_rows(columns: list, size: int) -> Iterator[tuple]:
    """The argument tuple at each of `size` points, read across the columns;
    without columns (a constant's) the empty tuple at every point."""
    return zip(*columns) if columns else itertools.repeat((), size)


def _round_combos(depth: int, start: int, base: int, arity: int) -> Iterable[tuple]:
    """An op's argument tuples in closure round `depth`, whose previous round
    made the entries from `start` to `base`: those with an entry among them,
    and for a constant the empty tuple in the first round only."""
    if arity:
        return _combos_from(base, start, arity)
    return [()] if depth == 1 else []


def _combos_from(base: int, start: int, arity: int) -> Iterator[tuple]:
    """The `arity`-tuples of indices below `base` with an entry at or after
    `start`, in `itertools.product` order."""
    if arity == 1:
        yield from ((k,) for k in range(start, base))
        return
    for first in range(base):
        rests = (itertools.product(range(base), repeat=arity - 1) if first >= start
                 else _combos_from(base, start, arity - 1))
        for rest in rests:
            yield (first,) + rest


class TermClone:
    """The term functions of a point space (`semantics.PointSpace`, which its
    geometry admitted under the point bound): its projections closed under
    its model's operations in rounds, each run only when a walk passes the
    functions found so far.

    The round number equals the depth of the witness term, and the first
    witness for a table wins.  A variable's values are the space's column;
    each candidate's are its operation table read across its arguments'
    value columns, made here, apart from the space's, which a build's cut
    check reads.  Depths never decrease along the functions, so a round's
    candidates are the argument tuples with an entry among the previous
    round's functions, and a constant is a candidate of the first round
    only; a candidate's witness term is built only for a new table.  The
    clone is `complete` once a round finds nothing new or the round number
    reaches a finite ``max_term_depth``, and from the start without
    operations, since the projections are then every term function.
    """

    def __init__(self, space, max_term_depth: Optional[int] = None):
        self.space, self.max_term_depth = space, max_term_depth
        self.functions: list[TermFunction] = []
        self._seen: set[tuple] = set()
        self._depth, self._start = 0, 0
        capped = max_term_depth is not None and max_term_depth <= 0
        self.complete = capped or not space.model.sig.ops
        for name in space.varset.names:
            values = space.column(Var(name))
            if values not in self._seen:
                self._seen.add(values)
                self.functions.append(TermFunction(values, Var(name)))

    def _next_round(self):
        """(op, argument indices, values) of the next round's candidates."""
        model, funcs, npoints = self.space.model, self.functions, self.space.size
        depth, start, base = self._depth + 1, self._start, len(funcs)
        for op, arity in model.sig.ops:
            table = model.op_tables[op]
            for combo in _round_combos(depth, start, base, arity):
                columns = [funcs[k].values for k in combo]
                yield op, combo, tuple(map(table.__getitem__, _column_rows(columns, npoints)))

    def grow(self) -> bool:
        """Run the next round, unless the clone is complete; whether it found
        a new function."""
        if self.complete:
            return False
        funcs, seen, base = self.functions, self._seen, len(self.functions)
        for op, combo, values in self._next_round():
            if values not in seen:
                seen.add(values)
                witness = OpApp(op, tuple(funcs[k].witness for k in combo))
                funcs.append(TermFunction(values, witness))
        self._depth, self._start = self._depth + 1, base
        self.complete = len(funcs) == base or self._depth == self.max_term_depth
        return len(funcs) > base

    def walk(self, start: int = 0) -> Iterator[TermFunction]:
        """The functions from index `start` on, growing the clone a round at a
        time as the walk passes its end."""
        funcs = self.functions
        while start < len(funcs) or self.grow():
            yield funcs[start]
            start += 1

    def drain(self) -> "TermClone":
        """Run every round left; returns the clone, now complete."""
        while self.grow():
            pass
        return self

    @property
    def saturated(self) -> bool:
        """Whether the rounds find every term function: always without a cap;
        with one, whether the round past the drained clone finds nothing new."""
        if self.max_term_depth is None:
            return True
        return all(values in self._seen for _, _, values in self.drain()._next_round())


def term_functions(space, max_term_depth: Optional[int] = None) -> TermClone:
    """The drained `TermClone` of `space`; a build grows its own only as far
    as its seeds read (`lattice.generate_definable_algebra`)."""
    return TermClone(space, max_term_depth).drain()


def enumerate_terms(sig: Signature, varset: VarSet, max_depth: int) -> list[Term]:
    """All terms of depth <= max_depth, ordered by depth then construction
    order: round d applies each op to the argument tuples of `_round_combos`,
    as `TermClone` does."""
    terms: list[Term] = [Var(n) for n in varset.names]
    start = 0
    for depth in range(1, max_depth + 1):
        base = len(terms)
        for op, arity in sig.ops:
            terms += [OpApp(op, tuple(terms[k] for k in combo))
                      for combo in _round_combos(depth, start, base, arity)]
        start = base
    return terms


def enumerate_substitutions(sig: Signature, source: VarSet, target: VarSet,
                            max_depth: int) -> list[Substitution]:
    """All substitutions whose images have depth <= max_depth, lexicographic in term order."""
    terms = enumerate_terms(sig, target, max_depth)
    subs = []
    for images in itertools.product(terms, repeat=len(source)):
        subs.append(Substitution(source, target, images))
    return subs


def substitution_generators(sig: Signature, n_max: int, depth: int) -> list[Substitution]:
    """Bounded substitutions between canonical variable sets of sizes
    1..n_max whose composites with intermediate sizes up to n_max give every
    substitution that `enumerate_substitutions` gives between those sizes,
    for signatures whose ops have arity at most 1.

    Per size a, in this order: for a >= 2 the transposition x1 <-> x2 and
    the cycle x_i -> x_(i+1) (one map at a = 2); for a < n_max the inclusion
    X_a -> X_(a+1) and the diagonal X_(a+1) -> X_a, x_(a+1) -> x_a; for
    depth >= 1, x1 -> f(x1) per unary op f and x1 -> c per constant c, the
    other variables fixed.  A bounded s: X_a -> X_b factors as
    coordinatewise unary steps at size a, each a conjugate of an op
    generator by a permutation, then a variable map.  A variable map
    factors through its image size into degeneracies, then faces, each a
    diagonal or an inclusion between permutations (Mac Lane, "Categories
    for the Working Mathematician", VII.5), and every intermediate size is
    at most max(a, b).  An op of arity >= 2 breaks the first step: a
    depth-1 image g(x_i, x_j) needs one more variable to factor, which the
    top size does not have, so such signatures raise `SignatureError`."""
    if any(arity > 1 for _, arity in sig.ops):
        raise SignatureError("substitution generators need ops of arity at most 1")
    out = []
    for a in range(1, n_max + 1):
        here = canonical_varset(a)
        xs = tuple(map(Var, here.names))
        if a >= 2:
            out.append(Substitution(here, here, (xs[1], xs[0]) + xs[2:]))
            if a > 2:
                out.append(Substitution(here, here, xs[1:] + xs[:1]))
        if a < n_max:
            up = canonical_varset(a + 1)
            out.append(Substitution(here, up, xs))
            out.append(Substitution(up, here, xs + xs[-1:]))
        if depth >= 1:
            for op, arity in sig.ops:
                out.append(Substitution(here, here, (OpApp(op, xs[:arity]),) + xs[1:]))
    return out
