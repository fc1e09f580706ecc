"""Binary object-attribute contexts stored as bit-mask rows.

A context couples a set of named objects with a set of named attributes
through an incidence relation.  Objects and attributes are indexed in file
order, and subsets of either side travel as plain ``int`` bitmasks: bit ``j``
of an attribute mask stands for attribute ``j``, bit ``g`` of an object mask
for object ``g``.  A context stores its names and its rows (one attribute
mask per object); ``FormalContext(objects, attributes, rows)`` checks them.
Every other view is derived from the rows on first read and then kept, so
a context that is only serialised never builds one.  The
column view (one object mask per attribute) makes each derivation cost one
AND per member bit of the input mask.  Building a context costs time
linear in |G|·|M|: the columns come from one transpose of the rows through
a string of binary digits, not from one |G|-bit update per incidence, and
the parsers check each cell or distinct FIMI token once.

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

import csv as _csv
import io
from dataclasses import dataclass
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


def _transpose(rows: tuple[int, ...], m: int) -> tuple[int, ...]:
    """The m column masks of ``rows``: bit i of column j is bit j of rows[i]."""
    if not (m and rows):  # an empty table, and int("", 2) fails
        return (0,) * m
    # one transpose: the table holds each row as m binary digits (bin of
    # row | top, less "0b1"), last row first, so column j is every m-th
    # digit from m - 1 - j
    top = 1 << m
    table = "".join([bin(row | top)[3:] for row in reversed(rows)])
    return tuple(int(table[m - 1 - j::m], 2) for j in range(m))


@dataclass(frozen=True)
class FormalContext:
    """Immutable binary context: its names and one attribute mask per object.

    ``FormalContext(objects, attributes, rows)`` is a checked constructor:
    it raises ValueError for a field that is not a ``tuple``, for a name
    that is not a non-empty ``str`` or that repeats, for a row count other
    than the object count, and for a row that is not an ``int`` mask over
    the attributes.  ``from_rows`` is the same constructor for any
    iterables.

    Every other view, the full masks included, is derived from ``rows`` on
    first read and kept on the instance.  None is a field, so none plays a
    part in equality, hash or repr.  ``cols[m]`` is the mask of the objects
    that hold attribute m, and ``class_rows`` and ``class_cols`` are the
    clarified view.  ``class_rows[c]`` is the c-th distinct row in
    first-seen order (row class c), and ``class_cols[m]`` the mask of the
    classes whose row holds attribute m.  An object mask A that is a union
    of row classes, as every extent is, maps to the class mask of its
    objects' classes.
    """

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[int, ...]  # rows[g] = attribute mask of object g

    def __post_init__(self):
        # a list field would leave the context unhashable, and its derived
        # views stale once the list changed
        for name in ("objects", "attributes", "rows"):
            if not isinstance(getattr(self, name), tuple):
                raise ValueError(f"{name} must be a tuple; use from_rows")
        for kind, names in (("object", self.objects),
                            ("attribute", self.attributes)):
            seen = set()
            for name in names:
                if not isinstance(name, str):
                    raise ValueError(f"{kind} name {name!r} is not a str")
                if not name:
                    raise ValueError(f"empty {kind} name")
                if name in seen:
                    raise ValueError(f"duplicate {kind} name {name!r}")
                seen.add(name)
        if len(self.rows) != len(self.objects):
            raise ValueError(
                f"{len(self.objects)} object names but {len(self.rows)} rows"
            )
        m = len(self.attributes)
        try:
            for g, row in enumerate(self.rows):
                if row < 0 or row >> m:
                    raise ValueError(f"row {g} has bits outside {m} attributes")
        except TypeError:  # a float, a str, None: no bit operations
            raise ValueError(f"row {g} is not an int") from None

    @classmethod
    def from_rows(cls, objects: Iterable[str], attributes: Iterable[str],
                  rows: Iterable[int]) -> "FormalContext":
        """Build and validate a context from per-object attribute masks."""
        return cls(tuple(objects), tuple(attributes), tuple(rows))

    # -- derived views ------------------------------------------------------

    @cached_property
    def cols(self) -> tuple[ObjSet, ...]:
        return _transpose(self.rows, len(self.attributes))

    @cached_property
    def class_rows(self) -> tuple[int, ...]:
        return tuple(dict.fromkeys(self.rows))

    @cached_property
    def class_cols(self) -> tuple[int, ...]:
        return _transpose(self.class_rows, len(self.attributes))

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
        """Attributes shared by every object in ``objs`` (all of M for ∅)."""
        self._check_objs(objs)
        acc = self.all_attributes
        rows = self.rows
        while objs and acc:
            low = objs & -objs
            objs ^= low
            acc &= rows[low.bit_length() - 1]
        return acc

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
        """Closure attrs'' = derive_intent(derive_extent(attrs))."""
        extent = self.derive_extent(attrs)
        acc = self.all_attributes
        rows = self.rows
        while extent:
            low = extent & -extent
            extent ^= low
            acc &= rows[low.bit_length() - 1]
            if acc == attrs:
                break  # every object in the extent keeps acc ⊇ attrs
        return acc

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

def parse_cxt(text: str) -> FormalContext:
    """Parse Burmeister format.

    Layout: a ``B`` line, a blank line, the object count, the attribute
    count, a blank line, one object name per line, one attribute name per
    line, then the cross table with ``X`` for incident and ``.`` for not.
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
    rows = []
    for i, line in enumerate(body[n + m:needed]):
        if len(line) != m:
            raise DimensionMismatch(
                f"row {i} has {len(line)} cells, expected {m}"
            )
        mask = 0
        for j, ch in enumerate(line):
            if ch == "X":
                mask |= 1 << j
            elif ch != ".":
                raise IllegalCell(ch, i, j)
        rows.append(mask)
    try:
        return FormalContext.from_rows(objects, attributes, rows)
    except ValueError as err:  # an empty or repeated name
        raise MalformedHeader(str(err)) from None


_CXT_CELLS = str.maketrans("01", ".X")


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
    try:
        records = [r for r in _csv.reader(io.StringIO(text)) if r]
    except _csv.Error as err:  # e.g. a field over the csv module's size limit
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
    """
    lines = [line.split() for line in text.splitlines()]
    # each distinct token is checked and converted once
    ids = {}
    bad = {}
    for token in set(chain.from_iterable(lines)):
        # str.isdigit alone admits non-ASCII digits such as '²'
        if not (token.isascii() and token.isdigit()):
            bad[token] = f"non-integer item {token!r}"
            continue
        try:
            ids[token] = int(token)
        except ValueError:  # over the interpreter's int digit limit
            bad[token] = "item too long"
    if bad:  # report the first bad token in reading order
        for i, tokens in enumerate(lines):
            for token in tokens:
                if token in bad:
                    raise MalformedRow(f"line {i + 1}: {bad[token]}")
    items = sorted(set(ids.values()))
    index = {item: j for j, item in enumerate(items)}
    bit = {token: 1 << index[item] for token, item in ids.items()}
    # a row is the OR of its tokens' bits: the sum of the distinct ones
    lookup = bit.__getitem__
    rows = [sum({*map(lookup, tokens)}) for tokens in lines]
    return FormalContext.from_rows(
        map(str, range(1, len(lines) + 1)),
        map(str, items),
        rows,
    )
