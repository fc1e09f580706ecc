"""Context parsing, serialization, and derivation laws."""
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from becr import (
    DimensionMismatch,
    EmptyContext,
    FormalContext,
    IllegalCell,
    MalformedHeader,
    MalformedRow,
    NonBinaryCell,
    ParseError,
    iter_bits,
    parse_csv,
    parse_cxt,
    parse_fimi,
    serialize_cxt,
)
from conftest import DATA
from helpers import (
    columns_oracle,
    cxt_rows_oracle,
    cxt_table_oracle,
    fimi_oracle,
)


@st.composite
def context_and_masks(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    rows = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=n, max_size=n))
    ctx = FormalContext.from_rows(
        [f"g{i}" for i in range(n)],
        [f"m{j}" for j in range(m)],
        rows,
    )
    attrs = draw(st.integers(0, ctx.all_attributes))
    attrs2 = draw(st.integers(0, ctx.all_attributes))
    objs = draw(st.integers(0, ctx.all_objects))
    return ctx, attrs, attrs2, objs


# -- Burmeister ---------------------------------------------------------------

def test_parse_cxt_toy(toy_ctx):
    assert toy_ctx.objects == ("1", "2", "3", "4", "5")
    assert toy_ctx.attributes == ("a", "b", "c", "d", "e", "g", "h", "i")
    assert toy_ctx.n_objects == 5
    assert toy_ctx.n_attributes == 8
    assert toy_ctx.n_incidences == 29
    assert toy_ctx.density() == Fraction(29, 40)
    assert toy_ctx.rows[0] & 1 and toy_ctx.rows[0] >> 7 & 1
    assert not toy_ctx.rows[1] >> 1 & 1  # object 2 lacks b
    # row and column views agree cell by cell
    for g in range(5):
        for m in range(8):
            assert bool(toy_ctx.rows[g] >> m & 1) == bool(toy_ctx.cols[m] >> g & 1)


def test_serialize_cxt_round_trip_exact():
    text = (DATA / "toy.cxt").read_text(encoding="utf-8")
    assert serialize_cxt(parse_cxt(text)) == text


def test_serialize_then_parse_is_identity(toy_ctx, davis_ctx):
    for ctx in (toy_ctx, davis_ctx):
        assert parse_cxt(serialize_cxt(ctx)) == ctx


@pytest.mark.parametrize("name", [
    "a\nb", "a\rb", "a\r\nb", "a\x85b", "a\u2028b", "a\x0cb", "a\n",
])
@pytest.mark.parametrize("kind", ["object", "attribute"])
def test_serialize_cxt_rejects_line_breaks_in_names(kind, name):
    # parse_cxt splits on every str.splitlines boundary, so such a name
    # would come back as two lines and a DimensionMismatch
    objects, attributes = ([name], ["m"]) if kind == "object" else (["g"], [name])
    ctx = FormalContext.from_rows(objects, attributes, [1])
    with pytest.raises(ValueError, match=f"{kind} name"):
        serialize_cxt(ctx)


_names = st.text(st.characters() | st.sampled_from("\n\r\x85\u2028"),
                 min_size=1, max_size=4)


@given(st.data())
def test_serialize_cxt_round_trips_or_refuses(data):
    objects = data.draw(st.lists(_names, max_size=5, unique=True))
    attributes = data.draw(st.lists(_names, max_size=5, unique=True))
    rows = data.draw(st.lists(st.integers(0, (1 << len(attributes)) - 1),
                              min_size=len(objects), max_size=len(objects)))
    ctx = FormalContext.from_rows(objects, attributes, rows)
    try:
        text = serialize_cxt(ctx)
    except ValueError:
        assert any(n.splitlines() != [n] for n in objects + attributes)
        return
    assert parse_cxt(text) == ctx


@given(st.integers(0, 5), st.integers(0, 70), st.data())
def test_serialize_cxt_table_matches_the_cell_oracle(m, n, data):
    rows = data.draw(st.lists(st.integers(0, (1 << m) - 1),
                              min_size=n, max_size=n))
    ctx = FormalContext.from_rows(
        [f"g{i}" for i in range(n)], [f"m{j}" for j in range(m)], rows
    )
    lines = serialize_cxt(ctx).split("\n")
    assert lines[5 + n + m:] == cxt_rows_oracle(ctx) + [""]


@pytest.mark.parametrize("text,exc", [
    ("", MalformedHeader),
    ("A\n\n1\n1\n\ng\nm\nX", MalformedHeader),
    ("B\nnot blank\n1\n1\n\ng\nm\nX", MalformedHeader),
    ("B\n\nx\n1\n\ng\nm\nX", MalformedHeader),
    ("B\n\n-1\n1\n\ng\nm\nX", MalformedHeader),
    ("B\n\n1\n1\nnot blank\ng\nm\nX", MalformedHeader),
    ("B\n\n2\n1", MalformedHeader),
    ("B\n\n2\n1\n\ng1\ng2\nm\nX", DimensionMismatch),
    ("B\n\n1\n1\n\ng\nm\nX\nextra", DimensionMismatch),
    ("B\n\n1\n2\n\ng\nm1\nm2\nX", DimensionMismatch),
    ("B\n\n1\n1\n\ng\nm\n?", IllegalCell),
    ("B\n\n2\n1\n\ng\ng\nm\nX\nX", MalformedHeader),
    ("B\n\n1\n1\n\n\nm\nX", MalformedHeader),
    # counts are runs of ASCII digits, not whatever int() accepts
    ("B\n\n\u0661\n1\n\ng\nm\nX", MalformedHeader),
    ("B\n\n1\n+1\n\ng\nm\nX", MalformedHeader),
    ("B\n\n 0_1 \n1\n\ng\nm\nX", MalformedHeader),
    # over the interpreter's int digit limit
    ("B\n\n" + "9" * 5000 + "\n1\n\ng\nm\nX", MalformedHeader),
])
def test_parse_cxt_rejects(text, exc):
    with pytest.raises(exc):
        parse_cxt(text)
    with pytest.raises(ParseError):  # all parse failures share a base class
        parse_cxt(text)


def test_illegal_cell_coordinates():
    text = "B\n\n2\n2\n\ng1\ng2\nm1\nm2\nX.\n.x\n"
    with pytest.raises(IllegalCell) as info:
        parse_cxt(text)
    assert (info.value.char, info.value.row, info.value.col) == ("x", 1, 1)


# a character that is neither cell mark nor a line boundary
_cxt_bad_cell = st.characters().filter(
    lambda c: c not in "X." and (c + "a").splitlines() == [c + "a"])


@st.composite
def cxt_table(draw):
    """(m, table lines): repeated rows, and at most one faulty line (too
    short, too long, or with an illegal cell) placed after the first
    repeat, itself repeated or not."""
    m = draw(st.integers(0, 5))
    variants = draw(st.lists(st.text(st.sampled_from("X."), min_size=m,
                                     max_size=m), min_size=1, max_size=4))
    lines = draw(st.lists(st.sampled_from(variants), max_size=12))
    fault = draw(st.sampled_from(["none", "short", "long", "cell"]))
    if fault == "none" or not lines:
        return m, lines
    line = draw(st.sampled_from(variants))
    # with no columns a line can only be too long
    if fault == "short" and m:
        line = line[:draw(st.integers(0, m - 1))]
    elif fault == "cell" and m:
        # one or two illegal characters, in one cell or more
        bad = st.sampled_from(draw(st.lists(_cxt_bad_cell, min_size=1,
                                            max_size=2)))
        cells = draw(st.sets(st.integers(0, m - 1), min_size=1))
        line = "".join(draw(bad) if j in cells else ch
                       for j, ch in enumerate(line))
    else:
        line += draw(st.text(st.sampled_from("X.") | _cxt_bad_cell,
                             min_size=1, max_size=3))
    after_repeat = next(
        (i + 1 for i, old in enumerate(lines) if old in lines[:i]), 0)
    at = draw(st.integers(after_repeat, len(lines)))
    copies = draw(st.integers(1, 2))
    return m, lines[:at] + [line] * copies + lines[at:]


@given(cxt_table())
# a repeated row, then a repeated line whose first bad character recurs
@example((5, ["X.X.X", "X.X.X", ".?!?!", ".?!?!"]))
def test_parse_cxt_table_matches_the_per_cell_oracle(case):
    m, lines = case
    n = len(lines)
    text = "".join(
        line + "\n"
        for line in ["B", "", str(n), str(m), ""]
        + [f"g{i}" for i in range(n)] + [f"m{j}" for j in range(m)] + lines)
    try:
        expected = cxt_table_oracle(lines, m)
    except (DimensionMismatch, IllegalCell) as err:
        with pytest.raises(type(err)) as got:
            parse_cxt(text)
        assert type(got.value) is type(err)
        assert str(got.value) == str(err)
        if isinstance(err, IllegalCell):
            assert (got.value.char, got.value.row, got.value.col) == \
                (err.char, err.row, err.col)
    else:
        assert parse_cxt(text).rows == tuple(expected)


def test_parse_cxt_accepts_trailing_blank_lines():
    text = "B\n\n1\n1\n\ng\nm\nX\n\n\n"
    ctx = parse_cxt(text)
    assert ctx.rows == (1,)


# -- CSV ----------------------------------------------------------------------

def test_parse_csv_basic():
    text = "object,m1,m2,m3\ng1,1,0,1\ng2,,1,\n"
    ctx = parse_csv(text)
    assert ctx.objects == ("g1", "g2")
    assert ctx.attributes == ("m1", "m2", "m3")
    assert ctx.rows == (0b101, 0b010)


@pytest.mark.parametrize("text,exc", [
    ("", MalformedHeader),
    ("obj,m1\ng1\n", MalformedRow),
    ("obj,m1\n,1\n", MalformedRow),
    ("obj,m1\ng1,2\n", NonBinaryCell),
    ("obj,m1\ng1,yes\n", NonBinaryCell),
    ("o,a,a\ng,1,0\n", MalformedHeader),
    ("o,,a\ng,1,0\n", MalformedHeader),
    ("o,a\ng,1\ng,0\n", MalformedRow),
    pytest.param("o,a\ng," + "1" * 131073 + "\n", MalformedRow,
                 id="field-over-csv-limit"),
])
def test_parse_csv_rejects(text, exc):
    with pytest.raises(exc):
        parse_csv(text)


# -- FIMI ---------------------------------------------------------------------

def test_parse_fimi_numeric_item_order():
    ctx = parse_fimi("10 2\n\n2 7\n")
    # attributes sorted by item value, objects named by line number
    assert ctx.attributes == ("2", "7", "10")
    assert ctx.objects == ("1", "2", "3")
    assert ctx.rows == (0b101, 0, 0b011)


def test_parse_fimi_rejects_non_integer():
    for text in ("1 2\n3 x\n", "²", "1 ٣", "1" * 5000):
        with pytest.raises(MalformedRow):
            parse_fimi(text)


@pytest.mark.parametrize("text,message", [
    ("1 2\n3 x\n", "line 2: non-integer item 'x'"),
    # the first bad token in reading order is named, whatever its kind
    ("1 x\n" + "9" * 5000, "line 1: non-integer item 'x'"),
    ("9" * 5000 + " x", "line 1: item too long"),
    ("x\n\n1 -1 x", "line 1: non-integer item 'x'"),
    # a faulty line that repeats is named by its first occurrence
    ("1\n2 x\n3\n2 x\n", "line 2: non-integer item 'x'"),
    # a clean line and then a variant of it holding a bad token
    ("1 2\n3\n1 2\n2 01 -1\n1 2\n2 01 -1\n", "line 4: non-integer item '-1'"),
])
def test_parse_fimi_names_the_first_bad_token(text, message):
    with pytest.raises(MalformedRow) as err:
        parse_fimi(text)
    assert str(err.value) == message


def test_parse_fimi_aliased_and_repeated_items_are_one_incidence():
    ctx = parse_fimi("1 01 1\n001\t2\r\n")
    assert ctx.attributes == ("1", "2")
    assert ctx.rows == (0b01, 0b11)
    assert ctx.n_incidences == 3


_fimi_token = st.sampled_from(
    ["0", "00", "1", "01", "001", "2", "10", "010", "7", "123"]
) | st.integers(0, 300).map(str)
_fimi_bad_token = st.sampled_from(["x", "²", "1٣", "-1", "+2", "9" * 5000])
_fimi_gap = st.sampled_from([" ", "\t", "  ", " \t "])


def _fimi_alias(token: str) -> str:
    """A token naming the same item: ``7`` and ``07``; others kept."""
    return "0" + token if token.isascii() and token.isdigit() else token


@st.composite
def fimi_text(draw, token=_fimi_token):
    """FIMI text whose lines repeat: each line is drawn from a few
    variants of a few transactions.  A variant of a transaction may differ
    from its first rendering in gaps, leading whitespace, line end, token
    order and aliases (``1`` for ``01``), and may swap one token for a
    fresh draw, which can put a bad token first on a later variant."""
    def render(tokens):
        gaps = draw(st.lists(_fimi_gap, min_size=len(tokens),
                             max_size=len(tokens)))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        end = draw(st.sampled_from(["\n", "\r\n"]))
        return lead + "".join(g + t for g, t in zip(gaps, tokens)) + end

    variants = []
    for tokens in draw(st.lists(st.lists(token, max_size=6), max_size=5)):
        variants.append(render(tokens))
        for _ in range(draw(st.integers(0, 2))):
            other = [_fimi_alias(t) if draw(st.booleans()) else t
                     for t in draw(st.permutations(tokens))]
            if other and draw(st.booleans()):
                other[draw(st.integers(0, len(other) - 1))] = draw(token)
            variants.append(render(other))
    if not variants:
        return ""
    return "".join(draw(st.lists(st.sampled_from(variants), max_size=12)))


@given(fimi_text())
def test_parse_fimi_matches_the_per_token_oracle(text):
    ids, rows = fimi_oracle(text)
    ctx = parse_fimi(text)
    assert ctx.attributes == tuple(map(str, ids))
    assert ctx.rows == tuple(rows)
    assert ctx.objects == tuple(str(i + 1) for i in range(len(rows)))


@given(fimi_text(_fimi_token | _fimi_bad_token))
def test_parse_fimi_raises_what_the_oracle_raises(text):
    try:
        expected = fimi_oracle(text)
    except MalformedRow as err:
        with pytest.raises(MalformedRow) as got:
            parse_fimi(text)
        assert str(got.value) == str(err)
    else:
        assert parse_fimi(text).rows == tuple(expected[1])


# characters that steer the parsers into their branches, plus any character
_parser_text = st.text(st.sampled_from("B\n\r X.x01,\"²-") | st.characters())


@given(
    st.sampled_from([parse_cxt, parse_csv, parse_fimi]),
    _parser_text | st.builds(
        "B\n\n{}\n{}\n\n{}".format,
        st.integers(0, 3), st.integers(0, 3), _parser_text,
    ),
)
def test_parsers_raise_only_parse_errors(parse, text):
    try:
        assert isinstance(parse(text), FormalContext)
    except ParseError:
        pass


# -- construction -------------------------------------------------------------

# (objects, attributes, rows, what the ValueError says) for each malformed input
MALFORMED = [
    (["g", "g"], ["m"], [0, 0], "duplicate object"),
    (["g"], ["m", "m"], [0], "duplicate attribute"),
    (["g"], [""], [0], "empty attribute name"),
    (["g1", "g2"], ["m"], [0], "rows"),
    (["g"], ["m"], [0b10], "outside"),
    (["g"], ["m"], [-1], "outside"),
    ([1, 2], ["m"], [0, 1], "object name 1 is not a str"),
    (["g"], [None], [0], "attribute name None is not a str"),
    (["g"], ["m"], [1.0], "row 0 is not an int"),
    (["g", "h"], [], [0, "0"], "row 1 is not an int"),
]


def test_from_rows_validation():
    # the raw constructor on tuples and from_rows on lists are one check
    for build in (lambda *args: FormalContext(*map(tuple, args)),
                  FormalContext.from_rows):
        for objects, attributes, rows, message in MALFORMED:
            with pytest.raises(ValueError, match=message):
                build(objects, attributes, rows)
    # the raw constructor takes tuples only: a list would make the context
    # unhashable, and its derived views stale once the list changed
    for args, field_name in (((["g"], ["m"], [1]), "objects"),
                             ((("g",), ["m"], (1,)), "attributes"),
                             ((("g",), ("m",), [1]), "rows")):
        with pytest.raises(ValueError,
                           match=f"^{field_name} must be a tuple.*from_rows"):
            FormalContext(*args)


def test_a_context_stores_only_its_rows():
    # a fresh context holds its three fields and no derived view
    ctx = FormalContext(("g",), ("m",), (1,))
    assert vars(ctx) == {"objects": ("g",), "attributes": ("m",), "rows": (1,)}
    with pytest.raises(TypeError):  # the columns are derived, not passed
        FormalContext(("g",), ("m",), (1,), (0,))


@given(st.integers(0, 9), st.integers(0, 140), st.data())
def test_from_rows_columns_match_the_per_incidence_oracle(m, n, data):
    # rows below 1 << (m - 1) leave the top attribute unset in every row
    top = data.draw(st.sampled_from([m, max(m - 1, 0)]))
    rows = data.draw(st.lists(st.integers(0, (1 << top) - 1),
                              min_size=n, max_size=n))
    ctx = FormalContext.from_rows(
        [f"g{i}" for i in range(n)], [f"m{j}" for j in range(m)], rows
    )
    assert ctx.cols == columns_oracle(rows, m)
    assert ctx.n_incidences == sum(row.bit_count() for row in rows)


def test_density_undefined_on_zero_area():
    ctx = FormalContext.from_rows([], ["m"], [])
    with pytest.raises(EmptyContext):
        ctx.density()


# -- derivation laws ----------------------------------------------------------

def test_empty_set_conventions(toy_ctx):
    assert toy_ctx.derive_intent(0) == toy_ctx.all_attributes
    assert toy_ctx.derive_extent(0) == toy_ctx.all_objects
    # u is in every row and e in none: no objects still share all of M,
    # the top intent is u alone, and e's empty extent closes to all of M
    ctx = FormalContext.from_rows(["g0", "g1", "g2"], ["u", "e", "x"],
                                  [0b001, 0b101, 0b001])
    assert ctx.derive_intent(0) == 0b111
    assert ctx.derive_extent(0) == 0b111
    assert ctx.close_attrs(0) == ctx.derive_intent(0b111) == 0b001
    assert ctx.derive_extent(0b010) == 0
    assert ctx.close_attrs(0b010) == 0b111


@given(context_and_masks())
def test_derivations_are_antitone(case):
    ctx, attrs, attrs2, objs = case
    smaller = attrs & attrs2  # subset of both draws
    assert ctx.derive_extent(smaller) & ctx.derive_extent(attrs) == \
        ctx.derive_extent(attrs)


@given(context_and_masks())
def test_galois_adjunction(case):
    ctx, attrs, _, objs = case
    # A subset of B' iff B subset of A'
    left = objs & ~ctx.derive_extent(attrs) == 0
    right = attrs & ~ctx.derive_intent(objs) == 0
    assert left == right
    # the intent is the AND of the drawn objects' rows, all of M for none
    shared = ctx.all_attributes
    for g in iter_bits(objs):
        shared &= ctx.rows[g]
    assert ctx.derive_intent(objs) == shared


@given(context_and_masks())
def test_closure_laws(case):
    ctx, attrs, attrs2, _ = case
    closed = ctx.close_attrs(attrs)
    assert closed & attrs == attrs  # extensive
    assert ctx.close_attrs(closed) == closed  # idempotent
    sub = attrs & attrs2
    assert ctx.close_attrs(sub) & ~closed == 0  # monotone


@given(context_and_masks())
def test_triple_prime(case):
    ctx, attrs, _, objs = case
    assert ctx.derive_extent(ctx.close_attrs(attrs)) == ctx.derive_extent(attrs)
    intent = ctx.derive_intent(objs)
    assert ctx.derive_intent(ctx.derive_extent(intent)) == intent


def test_derivation_bounds_checked(toy_ctx):
    with pytest.raises(ValueError):
        toy_ctx.derive_extent(1 << 8)
    with pytest.raises(ValueError):
        toy_ctx.derive_intent(1 << 5)
    with pytest.raises(ValueError):
        toy_ctx.derive_intent(-1)


# -- helpers ------------------------------------------------------------------

def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    with pytest.raises(ValueError):
        list(iter_bits(-1))


@given(st.integers(0, 200), st.data())
def test_obj_names_follow_iter_bits(n, data):
    ctx = FormalContext.from_rows([f"g{i}" for i in range(n)], [], [0] * n)
    mask = data.draw(st.integers(0, ctx.all_objects))
    assert ctx.obj_names(mask) == [ctx.objects[g] for g in iter_bits(mask)]


def test_name_mask_round_trip(toy_ctx):
    assert toy_ctx.attr_names(0b101100) == ["c", "d", "g"]
    assert toy_ctx.obj_names(0b101) == ["1", "3"]
    assert toy_ctx.attr_names(0) == toy_ctx.obj_names(0) == []
    with pytest.raises(ValueError, match="outside"):
        toy_ctx.attr_names(1 << 8)
    with pytest.raises(ValueError, match="outside"):
        toy_ctx.obj_names(1 << 5)
