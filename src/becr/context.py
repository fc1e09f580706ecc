"""Binary object-attribute contexts stored as bit-mask rows.

A context couples a set of named objects with a set of named attributes
through an incidence relation.  Objects and attributes are indexed in file
order, and subsets of either side travel as plain ``int`` bitmasks: bit ``j``
of an attribute mask stands for attribute ``j``, bit ``g`` of an object mask
for object ``g``.  A context stores its names and its rows (one attribute
mask per object); ``FormalContext(objects, attributes, rows)`` checks them.
Every other view is derived from the rows on first read and then kept, so
a context that is only serialised never builds one.  Both derivations
read the column view (one object mask per attribute) and visit no object:
an extent costs one AND per member of the attribute mask, an intent one
subset test per column, so each costs time linear in |G|·|M|.  Building a
context costs the same: the columns come from one transpose of the rows
through a string of binary digits, not from one |G|-bit update per
incidence.  The digits are made once per distinct row, and an object
whose row repeats costs one dict lookup.  Likewise the CXT and FIMI
parsers decode each distinct table line or transaction once, and a line
that repeats costs one dict lookup: a row is a function of its line's
text.

A context also derives its clarified view (Ganter & Wille 1999, ch. 1) on
first read: the distinct rows in first-seen order, one row class each, and
one column per attribute as a mask over those classes.  Objects with equal
rows are in every extent together, so an extent is a union of row classes,
and containment and equality between extents read the same on class masks
as on object masks.  Intents, concepts and scores do not change, but on a
table whose rows repeat (a coin-toss table of 20,000 objects over 10
attributes at density 0.3 has 970 distinct rows) each AND, comparison and
hash is on a mask of one bit per class instead of one per object.

Derivation follows the usual Galois convention for the empty set: the shared
attributes of no objects are all attributes, and the common objects of no
attributes are all objects.
"""
from __future__ import annotations

import io
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator

# Masks are plain ints; the aliases keep signatures readable.
ObjSet = int
AttrSet = int


class ParseError(ValueError):
    """Input text does not encode a context in the claimed format."""


class MalformedHeader(ParseError):
    """Missing or unreadable format preamble."""


class DimensionMismatch(ParseError):
    """Declared dimensions disagree with the body."""


class IllegalCell(ParseError):
    """Cell character outside the format's alphabet."""

    def __init__(self, char: str, row: int, col: int):
        super().__init__(f"illegal cell {char!r} at row {row}, column {col}")
        self.char = char
        self.row = row
        self.col = col


class MalformedRow(ParseError):
    """Data row that cannot be interpreted at all."""


class NonBinaryCell(ParseError):
    """CSV cell holding something other than 0, 1, or empty."""


class EmptyContext(ValueError):
    """Raised where a quantity is undefined on a 0-area context."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    if mask < 0:
        raise ValueError("negative mask")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(digits: Iterable[str], m: int) -> tuple[int, ...]:
    """The m column masks of a table given as ``digits``: the binary digits
    of each row (bin of row | top, less "0b1"), last row first."""
    # column j is every m-th digit from m - 1 - j; the leading "0" reads an
    # empty table as 0
    table = "".join(digits)
    return tuple(int("0" + table[m - 1 - j::m], 2) for j in range(m))


class Record:
    """Base of the package's record types, which are plain classes.

    A record names its fields, in constructor order, in ``__match_args__``
    and sets them in its ``__init__``.  Two records are equal when they are
    of one class and their fields are equal, and a record reprs as
    ``Name(field=value, ...)``.  A Record is mutable and unhashable.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A record hashed by its fields, which its ``__init__`` sets through
    ``object.__setattr__`` or its ``__dict__``: assigning or deleting an
    attribute afterwards raises AttributeError.  Copies and pickles are
    built by the constructor, since the default ones assign the slots."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FormalContext(FrozenRecord):
    """Immutable binary context: its names and one attribute mask per object.

    ``FormalContext(objects, attributes, rows)`` is a checked constructor:
    it raises ValueError for a field that is not a ``tuple``, for a name
    that is not a non-empty ``str`` or that repeats, for a row count other
    than the object count, and for a row that is not an ``int`` mask over
    the attributes.  ``from_rows`` is the same constructor for any
    iterables.  ``rows[g]`` is the attribute mask of object g.

    Every other view, the full masks included, is derived from ``rows`` on
    first read and kept in the instance's ``__dict__``.  None is a field,
    so none plays a part in equality, hash or repr.  ``cols[m]`` is the
    mask of the objects that hold attribute m, and ``class_rows`` and
    ``class_cols`` are the clarified view.  ``class_rows[c]`` is the c-th
    distinct row in first-seen order (row class c), and ``class_cols[m]``
    the mask of the classes whose row holds attribute m.  An object mask A
    that is a union of row classes, as every extent is, maps to the class
    mask of its objects' classes.
    """

    __match_args__ = ("objects", "attributes", "rows")

    def __init__(self, objects: tuple[str, ...], attributes: tuple[str, ...],
                 rows: tuple[int, ...]):
        # a list field would leave the context unhashable, and its derived
        # views stale once the list changed
        for name, value in zip(self.__match_args__,
                               (objects, attributes, rows)):
            if not isinstance(value, tuple):
                raise ValueError(f"{name} must be a tuple; use from_rows")
        for kind, names in (("object", objects), ("attribute", attributes)):
            seen = set()
            for name in names:
                if not isinstance(name, str):
                    raise ValueError(f"{kind} name {name!r} is not a str")
                if not name:
                    raise ValueError(f"empty {kind} name")
                if name in seen:
                    raise ValueError(f"duplicate {kind} name {name!r}")
                seen.add(name)
        if len(rows) != len(objects):
            raise ValueError(
                f"{len(objects)} object names but {len(rows)} rows"
            )
        m = len(attributes)
        try:
            for g, row in enumerate(rows):
                if row < 0 or row >> m:
                    raise ValueError(f"row {g} has bits outside {m} attributes")
        except TypeError:  # a float, a str, None: no bit operations
            raise ValueError(f"row {g} is not an int") from None
        vars(self).update(objects=objects, attributes=attributes, rows=rows)

    @classmethod
    def from_rows(cls, objects: Iterable[str], attributes: Iterable[str],
                  rows: Iterable[int]) -> "FormalContext":
        """Build and validate a context from per-object attribute masks."""
        return cls(tuple(objects), tuple(attributes), tuple(rows))

    # -- derived views ------------------------------------------------------

    @cached_property
    def cols(self) -> tuple[ObjSet, ...]:
        # objects of one row class share its digits: each class's are made
        # once, and each object looks up its class's
        top = 1 << len(self.attributes)
        digits = {row: bin(row | top)[3:] for row in self.class_rows}
        return _transpose(map(digits.__getitem__, reversed(self.rows)),
                          len(self.attributes))

    @cached_property
    def class_rows(self) -> tuple[int, ...]:
        return tuple(dict.fromkeys(self.rows))

    @cached_property
    def class_cols(self) -> tuple[int, ...]:
        top = 1 << len(self.attributes)
        return _transpose([bin(row | top)[3:]
                           for row in reversed(self.class_rows)],
                          len(self.attributes))

    # -- dimensions ---------------------------------------------------------

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @property
    def n_incidences(self) -> int:
        return sum(col.bit_count() for col in self.cols)

    @cached_property
    def all_objects(self) -> ObjSet:
        return (1 << len(self.objects)) - 1

    @cached_property
    def all_attributes(self) -> AttrSet:
        return (1 << len(self.attributes)) - 1

    @cached_property
    def all_classes(self) -> int:
        return (1 << len(self.class_rows)) - 1

    def density(self) -> Fraction:
        """|I| / (|G| * |M|) as an exact rational.

        Raises EmptyContext when either side is empty: the ratio is 0/0.
        """
        area = len(self.objects) * len(self.attributes)
        if area == 0:
            raise EmptyContext("density undefined on a 0-area context")
        return Fraction(self.n_incidences, area)

    # -- derivation ---------------------------------------------------------

    def _check_objs(self, objs: int) -> None:
        if objs < 0 or objs >> len(self.objects):
            raise ValueError("object mask has bits outside this context")

    def check_attrs(self, attrs: int) -> None:
        """Raise ValueError unless ``attrs`` is an attribute mask of this
        context: non-negative, with no bit at or above |M|."""
        if attrs < 0 or attrs >> len(self.attributes):
            raise ValueError("attribute mask has bits outside this context")

    def derive_intent(self, objs: ObjSet) -> AttrSet:
        """Attributes shared by every object in ``objs`` (all of M for ∅).

        m is in the intent exactly when ``objs`` ⊆ m', so each of the |M|
        columns takes one subset test and no object is visited.
        """
        self._check_objs(objs)
        intent = 0
        for m, col in enumerate(self.cols):
            if col & objs == objs:
                intent |= 1 << m
        return intent

    def derive_extent(self, attrs: AttrSet) -> ObjSet:
        """Objects having every attribute in ``attrs`` (all of G for ∅)."""
        self.check_attrs(attrs)
        acc = self.all_objects
        cols = self.cols
        while attrs and acc:
            low = attrs & -attrs
            attrs ^= low
            acc &= cols[low.bit_length() - 1]
        return acc

    def close_attrs(self, attrs: AttrSet) -> AttrSet:
        """Closure attrs'': the intent of the extent of ``attrs``."""
        return self.derive_intent(self.derive_extent(attrs))

    # -- name helpers -------------------------------------------------------

    def attr_names(self, mask: AttrSet) -> list[str]:
        self.check_attrs(mask)
        return [self.attributes[j] for j in iter_bits(mask)]

    def obj_names(self, mask: ObjSet) -> list[str]:
        self._check_objs(mask)
        # iter_bits rebuilds the |G|-bit mask at every set bit; str.find
        # walks the digits once
        bits = bin(mask)[:1:-1]  # bits[g] is bit g
        names = []
        g = bits.find("1")
        while g >= 0:
            names.append(self.objects[g])
            g = bits.find("1", g + 1)
        return names


# -- Burmeister .cxt --------------------------------------------------------

# cell marks to binary digits and back, and a table that deletes both marks
_CXT_CELLS = str.maketrans("01", ".X")
_CXT_BITS = str.maketrans(".X", "01")
_CXT_MARKS = str.maketrans("", "", ".X")


def parse_cxt(text: str) -> FormalContext:
    """Parse Burmeister format.

    Layout: a ``B`` line, a blank line, the object count, the attribute
    count, a blank line, one object name per line, one attribute name per
    line, then the cross table with ``X`` for incident and ``.`` for not.

    Each distinct table line is checked and decoded once, by ``str``
    methods rather than a loop over its cells; a repeated line costs one
    dict lookup.  A faulty table names the first faulty line in reading
    order: ``DimensionMismatch`` for a line of other than |M| cells,
    ``IllegalCell`` with the row and column of its first bad cell.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != "B":
        raise MalformedHeader("first line must be 'B'")
    if len(lines) < 5:
        raise MalformedHeader("truncated header")
    if lines[1].strip():
        raise MalformedHeader("line 2 must be blank")
    counts = lines[2].strip(), lines[3].strip()
    # int() alone admits signs, underscores and non-ASCII digits such as '١'
    if not all(c.isascii() and c.isdigit() for c in counts):
        raise MalformedHeader(
            "object/attribute counts must be non-negative integers"
        )
    try:
        n, m = map(int, counts)
    except ValueError:  # over the interpreter's int digit limit
        raise MalformedHeader("object/attribute count too long") from None
    if lines[4].strip():
        raise MalformedHeader("line 5 must be blank")
    body = lines[5:]
    needed = n + m + n
    if len(body) < needed:
        raise DimensionMismatch(
            f"expected {needed} body lines for {n} objects x {m} attributes, "
            f"got {len(body)}"
        )
    if any(extra.strip() for extra in body[needed:]):
        raise DimensionMismatch("trailing content after the cross table")
    objects = body[:n]
    attributes = body[n:n + m]
    table = body[n + m:needed]
    # distinct lines in first-seen order: the first faulty one is the first
    # faulty line of the table, and its first occurrence is its row
    masks = dict.fromkeys(table)
    for line in masks:
        if len(line) != m:
            raise DimensionMismatch(
                f"row {table.index(line)} has {len(line)} cells, expected {m}"
            )
        illegal = line.translate(_CXT_MARKS)  # the cells that are not X or .
        if illegal:
            raise IllegalCell(illegal[0], table.index(line),
                              line.index(illegal[0]))
        # cell j is bit j: reversed, the cells read as binary digits
        masks[line] = int("0" + line[::-1].translate(_CXT_BITS), 2)
    try:
        return FormalContext.from_rows(objects, attributes,
                                       map(masks.__getitem__, table))
    except ValueError as err:  # an empty or repeated name
        raise MalformedHeader(str(err)) from None


def serialize_cxt(ctx: FormalContext) -> str:
    """Render Burmeister format with '\\n' line endings.

    Raises ValueError for an object or attribute name that holds a line
    boundary (any that ``str.splitlines`` breaks on), since ``parse_cxt``
    could not read it back as one name.
    """
    for kind, names in (("object", ctx.objects), ("attribute", ctx.attributes)):
        for name in names:
            if name.splitlines() != [name]:
                raise ValueError(f"{kind} name {name!r} holds a line break")
    out = ["B", "", str(ctx.n_objects), str(ctx.n_attributes), ""]
    out.extend(ctx.objects)
    out.extend(ctx.attributes)
    # bin(row | top) is "0b1" and then the m cells, attribute m - 1 first
    top = 1 << ctx.n_attributes
    out.extend(bin(row | top)[:2:-1].translate(_CXT_CELLS) for row in ctx.rows)
    return "\n".join(out) + "\n"


# -- CSV ---------------------------------------------------------------------

def parse_csv(text: str) -> FormalContext:
    """Parse a CSV cross table.

    The header row names the attributes (its first field labels the object
    column and is ignored).  Each data row starts with the object name,
    followed by cells in {'1', '0', ''}; empty means no incidence.
    """
    import csv  # only this parser and concepts_csv read or write CSV

    try:
        records = [r for r in csv.reader(io.StringIO(text)) if r]
    except csv.Error as err:  # e.g. a field over the csv module's size limit
        raise MalformedRow(f"unreadable CSV: {err}") from None
    if not records:
        raise MalformedHeader("missing CSV header row")
    header = records[0]
    attributes = header[1:]
    objects = []
    seen = set()
    rows = []
    for i, record in enumerate(records[1:]):
        if len(record) != len(header):
            raise MalformedRow(
                f"row {i} has {len(record)} fields, expected {len(header)}"
            )
        if not record[0]:
            raise MalformedRow(f"row {i} has an empty object name")
        if record[0] in seen:
            raise MalformedRow(f"row {i} repeats object name {record[0]!r}")
        seen.add(record[0])
        objects.append(record[0])
        mask = 0
        for j, cell in enumerate(record[1:]):
            if cell == "1":
                mask |= 1 << j
            elif cell not in ("", "0"):
                raise NonBinaryCell(
                    f"cell at row {i}, column {j} is {cell!r}, expected 0, 1, or empty"
                )
        rows.append(mask)
    try:
        return FormalContext.from_rows(objects, attributes, rows)
    except ValueError as err:  # an empty or repeated attribute name
        raise MalformedHeader(str(err)) from None


# -- FIMI transaction lists ---------------------------------------------------

def parse_fimi(text: str) -> FormalContext:
    """Parse FIMI transaction data: one whitespace-separated item list per line.

    Objects are named by 1-based line number; attributes by their integer
    item ids, in ascending numeric order.  Tokens that read as the same
    integer (``1`` and ``01``) name one item, and an item listed twice on
    a line is one incidence.

    A row is a function of its line's text, so each distinct line is split
    and turned into a mask once, and each distinct token is checked and
    converted once; a repeated line costs one dict lookup.  A bad token
    raises MalformedRow naming the first line, in reading order, that
    holds one.
    """
    lines = text.splitlines()
    # distinct lines in first-seen order, each with its tokens
    split = {line: line.split() for line in dict.fromkeys(lines)}
    ids = {}
    bad = {}
    for token in set(chain.from_iterable(split.values())):
        # str.isdigit alone admits non-ASCII digits such as '²'
        if not (token.isascii() and token.isdigit()):
            bad[token] = f"non-integer item {token!r}"
            continue
        try:
            ids[token] = int(token)
        except ValueError:  # over the interpreter's int digit limit
            bad[token] = "item too long"
    if bad:  # report the first bad token in reading order
        # the first distinct line holding one is the first such line, and
        # its first occurrence is its line number
        for line, tokens in split.items():
            for token in tokens:
                if token in bad:
                    raise MalformedRow(
                        f"line {lines.index(line) + 1}: {bad[token]}")
    items = sorted(set(ids.values()))
    index = {item: j for j, item in enumerate(items)}
    bit = {token: 1 << index[item] for token, item in ids.items()}
    # a row is the OR of its tokens' bits: the sum of the distinct ones
    lookup = bit.__getitem__
    masks = {line: sum({*map(lookup, tokens)})
             for line, tokens in split.items()}
    return FormalContext.from_rows(
        map(str, range(1, len(lines) + 1)),
        map(str, items),
        map(masks.__getitem__, lines),
    )
