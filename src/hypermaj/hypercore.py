"""Hypergraph data model, derived quantities, and text file I/O.

Vertices are 0-based ints internally and 1-based in all file formats.
Hyperedges are non-empty vertex sets; repeated identical edges are allowed
and count separately towards degrees.

HGR format (UTF-8, LF, CRLF or CR line ends):
    line 1:   <num_edges> <num_vertices>
    lines 2+: one edge per line, space-separated 1-based vertex-ids
Lines starting with ``%`` are comments. Trailing whitespace is tolerated.
The vertex count may be at most MAX_VERTICES (2**22): per-vertex tables
are allocated from the header before any edge is read, and at that bound
parsing a header-only file takes about 360 MB.

Invariants of a Hypergraph (n_vertices >= 0; every edge a non-empty set
of ids in [0, n_vertices); incidence lists ascending) are checked once,
where the edges come from:
    Hypergraph(n, edges)   the public constructor validates everything,
                           for generators, tests and library users;
    parse_hypergraph       checks the edge lines in one numbered scan
                           (each distinct token converted and
                           range-checked once, a line's frozenset as long
                           as its token list, the declared edge count);
                           only a line it refuses is read token by token,
                           to name its first fault;
    split_hypergraph       builds H* from the sub-vertex blocks it deals,
                           once they pass the split's one certificate:
                           runs of k or k+1 edges covering each
                           vertex's incidence (linearhg).
The last two go through the private Hypergraph._trusted, which takes
edges that already hold every invariant, builds the incidence lists from
them and validates nothing; nothing else may call it.

Hypergraph, Colouring and Weighting are frozen records (_record): equal
and of one hash when their fields are, printed as Name(field=value, ...),
and immutable. A Hypergraph's fields are n_vertices and edges; its
incidence lists and degrees are derived from them and take no part.

Colouring files hold one integer colour per line (line i = colour of edge i)
with an optional ``# palette <C>`` header. Weights files hold one rational
per line, written either as ``p/q`` or as a decimal; fractions is imported
only where weights are handled. An error quotes at most _ECHO_CHARS
characters of a refused token or number, and names Python's limit on
converting text to an int when a token's digits pass it.
"""

from __future__ import annotations

import itertools
import sys
from typing import TYPE_CHECKING, Iterable, Optional

from ._record import frozen_record
from .errors import FormatError

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Hypergraph",
    "Colouring",
    "Weighting",
    "parse_hypergraph",
    "serialize_hypergraph",
    "parse_colouring",
    "serialize_colouring",
    "parse_weights",
    "serialize_weights",
]

# Largest vertex count a file header or a generator may ask for.
MAX_VERTICES = 2**22

# Most characters of one input token or number that an error message
# quotes: a refused line may be megabytes long.
_ECHO_CHARS = 32


@frozen_record
class Hypergraph:
    """Immutable hypergraph: a vertex count and an ordered list of edges."""

    n_vertices: int
    edges: tuple[frozenset[int], ...]

    def __init__(self, n_vertices: int, edges: Iterable[Iterable[int]]):
        if n_vertices < 0:
            raise ValueError("n_vertices must be non-negative")
        norm = []
        for idx, raw in enumerate(edges):
            members = list(raw)
            if not members:
                raise ValueError(f"edge {idx} is empty")
            fs = frozenset(members)
            if len(fs) != len(members):
                raise ValueError(f"edge {idx} contains a duplicate vertex")
            for v in fs:
                if not 0 <= v < n_vertices:
                    raise ValueError(f"edge {idx}: vertex-id {v} out of range")
            norm.append(fs)
        self._index(n_vertices, norm)

    @classmethod
    def _trusted(cls, n_vertices: int, edges: list[frozenset[int]]) -> "Hypergraph":
        """A Hypergraph from edges that already satisfy every invariant
        the constructor checks (n_vertices >= 0; each edge a non-empty
        frozenset of ids in range). Private: only parse_hypergraph and
        split_hypergraph, which establish the invariants themselves, may
        call it."""
        h = cls.__new__(cls)
        h._index(n_vertices, edges)
        return h

    def _index(self, n_vertices: int, edges: list[frozenset[int]]) -> None:
        # The one indexing routine behind both entry points. Tuples are
        # built from lists, never from generators: CPython grows a
        # tuple(generator) by resizing, and the resized blocks pile up on
        # other sizes' free lists.
        incidence: list[list[int]] = [[] for _ in range(n_vertices)]
        for e, fs in enumerate(edges):
            for v in fs:
                incidence[v].append(e)
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "_incidence", tuple([tuple(lst) for lst in incidence]))
        object.__setattr__(self, "_degrees", tuple([len(lst) for lst in incidence]))

    def degree(self, v: int) -> int:
        """Number of edges containing v (multi-edges count separately)."""
        self._check_vertex(v)
        return self._degrees[v]

    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """Edge indices containing v, in ascending order."""
        self._check_vertex(v)
        return self._incidence[v]

    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """incident_edges(v) for every vertex v, in vertex order."""
        return self._incidence

    def min_degree(self) -> int:
        if self.n_vertices == 0:
            raise ValueError("min_degree is undefined for an empty vertex set")
        return min(self._degrees)

    def max_degree(self) -> int:
        if self.n_vertices == 0:
            raise ValueError("max_degree is undefined for an empty vertex set")
        return max(self._degrees)

    def rank(self) -> int:
        """Largest edge size, or 0 when there are no edges."""
        return max(map(len, self.edges), default=0)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n_vertices:
            raise ValueError(f"vertex-id {v} out of range [0, {self.n_vertices})")


@frozen_record
class Colouring:
    """Edge colouring: one 1-based colour per edge plus the palette size."""

    colours: tuple[int, ...]
    palette_size: int

    def __init__(self, colours: Iterable[int], palette_size: int):
        colours = tuple(map(int, colours))
        palette_size = int(palette_size)
        if palette_size < 0:
            raise ValueError("palette_size must be non-negative")
        # one bulk range check; only a failing one looks for the edge to name
        if colours and not (1 <= min(colours) and max(colours) <= palette_size):
            for i, c in enumerate(colours):
                if not 1 <= c <= palette_size:
                    raise ValueError(
                        f"colour {c} of edge {i} outside palette [1, {palette_size}]"
                    )
        object.__setattr__(self, "colours", colours)
        object.__setattr__(self, "palette_size", palette_size)

    def __len__(self) -> int:
        return len(self.colours)

    def __getitem__(self, i: int) -> int:
        return self.colours[i]


@frozen_record
class Weighting:
    """One rational weight in [0, 1] per edge, kept exact."""

    weights: tuple[Fraction, ...]

    def __init__(self, weights: Iterable):
        from fractions import Fraction

        # a Fraction's denominator is positive, so 0 <= w <= 1 compares ints
        ws = tuple(w if isinstance(w, Fraction) else Fraction(w) for w in weights)
        for i, w in enumerate(ws):
            if not 0 <= w.numerator <= w.denominator:
                raise ValueError(f"weight {w} of edge {i} outside [0, 1]")
        object.__setattr__(self, "weights", ws)

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> Fraction:
        return self.weights[i]


def _decode(text: str | bytes) -> str:
    """The text of an input file, which every parser reads through here:
    bytes are decoded as UTF-8, and an undecodable byte is a FormatError
    on its line, numbered as the parsers number lines (str.splitlines)."""
    if isinstance(text, str):
        return text
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the "x" stands for the bad byte, so a line break just before it
        # starts the line it is counted on
        line = len((text[: exc.start].decode("utf-8") + "x").splitlines())
        raise FormatError(
            line, f"not UTF-8: cannot decode byte 0x{text[exc.start]:02x}"
        ) from None


def _clip(text: str) -> str:
    """text as an error message quotes it: its first _ECHO_CHARS
    characters, then "..." when there are more."""
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "..."


def _refused(what: str, tok: str, message: str) -> str:
    """message, the error for a tok that int() or Fraction() refused,
    unless a run of digits in tok is longer than Python's limit on
    converting text to an int: then that limit is the reason to name,
    since tok may well be a number."""
    import re

    limit = sys.get_int_max_str_digits()
    digits = max(map(len, re.findall(r"\d+", tok)), default=0)
    if limit and digits > limit:
        return (
            f"{what} {_clip(repr(tok))} has {digits} digits, more than "
            f"Python's limit of {limit} on converting text to an int"
        )
    return message


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, stripped content) for non-comment lines."""
    out = []
    for no, line in enumerate(_decode(text).splitlines(), start=1):
        if line.lstrip().startswith("%"):
            continue
        out.append((no, line.strip()))
    return out


class _VertexIds(dict):
    """Vertex-id token -> 0-based id. A token is converted the first time
    it is looked up, so each distinct token once; one that is not an
    integer in [1, n_vertices] raises ValueError."""

    def __init__(self, n_vertices: int):
        super().__init__()
        self.n_vertices = n_vertices

    def __missing__(self, tok: str) -> int:
        v = int(tok) - 1
        if not 0 <= v < self.n_vertices:
            raise ValueError(tok)
        self[tok] = v
        return v


def parse_hypergraph(text: str | bytes) -> Hypergraph:
    """Parse HGR text into a Hypergraph, preserving edge order."""
    lines = _decode(text).splitlines()
    head_no = next(
        (no for no, line in enumerate(lines, 1) if not line.lstrip().startswith("%")), 0
    )
    if not head_no:
        raise FormatError(1, "missing header")
    head = lines[head_no - 1].strip()
    parts = head.split()
    if len(parts) != 2:
        raise FormatError(
            head_no, f"malformed header {_clip(repr(head))}; expected '<num_edges> <num_vertices>'"
        )
    try:
        n_edges, n_vertices = int(parts[0]), int(parts[1])
    except ValueError:
        message = f"malformed header {_clip(repr(head))}; counts must be integers"
        raise FormatError(head_no, _refused("header", head, message)) from None
    if n_edges < 0 or n_vertices < 0:
        raise FormatError(head_no, "header counts must be non-negative")
    if n_vertices > MAX_VERTICES:
        raise FormatError(
            head_no, f"vertex count {_clip(str(n_vertices))} exceeds the limit of {MAX_VERTICES}"
        )
    ids = _VertexIds(n_vertices)
    lookup = ids.__getitem__
    edges: list[frozenset[int]] = []
    last_no = head_no  # the last edge line read
    for no, toks in enumerate(map(str.split, itertools.islice(lines, head_no, None)), head_no + 1):
        if toks and toks[0].startswith("%"):
            continue
        try:
            # a frozenset's iteration order can depend on the order its
            # members were added, but no result does: the rounder and the
            # three colourers read an edge as a set
            fs = frozenset(map(lookup, toks))
        except ValueError:
            fs = frozenset()
        # an empty fs is an empty line or a token that is no id in range;
        # one shorter than its tokens holds a repeated id
        if not fs or len(fs) != len(toks) or len(edges) == n_edges:
            raise _edge_line_error(no, toks, len(edges), n_edges, n_vertices)
        edges.append(fs)
        last_no = no
    if len(edges) != n_edges:
        raise FormatError(last_no, f"expected {_clip(str(n_edges))} edges, found {len(edges)}")
    return Hypergraph._trusted(n_vertices, edges)


def _edge_line_error(
    no: int, toks: list[str], n_read: int, n_edges: int, n_vertices: int
) -> FormatError:
    """The FormatError of edge line no, which parse_hypergraph refused
    after n_read edges: an empty line, then a line past the declared
    count, then its first faulty token in line order."""
    if not toks:
        return FormatError(no, "empty edge line")
    if n_read == n_edges:
        return FormatError(
            no, f"unexpected extra edge line; header declared {_clip(str(n_edges))} edges"
        )
    seen: set[int] = set()
    for tok in toks:
        try:
            v = int(tok)
        except ValueError:
            return FormatError(
                no, _refused("vertex-id", tok, f"invalid vertex-id {_clip(repr(tok))}")
            )
        if not 1 <= v <= n_vertices:
            return FormatError(no, f"vertex-id {_clip(str(v))} out of range [1, {n_vertices}]")
        if v in seen:
            break
        seen.add(v)
    # a refused line of ids that are all in range repeats one
    return FormatError(no, f"duplicate vertex {v} in edge")


def serialize_hypergraph(h: Hypergraph) -> str:
    # Each 1-based label is formatted once, up to the largest id in use:
    # the last vertex when it has an edge, as in every generated instance
    # with edges, else the largest member of any edge.
    degrees = h.degrees()
    if degrees and degrees[-1]:
        top = len(degrees)
    else:
        top = max(itertools.chain.from_iterable(h.edges), default=-1) + 1
    labels = list(map(str, range(1, top + 1)))
    lines = [f"{len(h.edges)} {h.n_vertices}"]
    lines += [" ".join([labels[v] for v in sorted(fs)]) for fs in h.edges]
    return "\n".join(lines) + "\n"


def parse_colouring(text: str | bytes) -> Colouring:
    """Parse a colouring file; palette defaults to the largest colour used."""
    lines = _content_lines(text)
    palette: Optional[int] = None
    start = 0
    if lines and lines[0][1].startswith("#"):
        no, head = lines[0]
        parts = head.lstrip("#").split()
        if len(parts) != 2 or parts[0] != "palette":
            raise FormatError(
                no, f"malformed colouring header {_clip(repr(head))}; expected '# palette <C>'"
            )
        try:
            palette = int(parts[1])
        except ValueError:
            message = f"palette size {_clip(repr(parts[1]))} is not an integer"
            raise FormatError(no, _refused("palette size", parts[1], message)) from None
        if palette < 0:
            raise FormatError(no, f"palette size {_clip(str(palette))} must be non-negative")
        start = 1
    colours = []
    for no, line in lines[start:]:
        if not line:
            raise FormatError(no, "empty line in colouring file")
        try:
            c = int(line)
        except ValueError:
            message = f"invalid colour {_clip(repr(line))}"
            raise FormatError(no, _refused("colour", line, message)) from None
        if c < 1:
            raise FormatError(no, f"colour {_clip(str(c))} must be at least 1")
        if palette is not None and c > palette:
            raise FormatError(
                no,
                f"colour {_clip(str(c))} of edge {len(colours) + 1} "
                f"outside palette [1, {_clip(str(palette))}]",
            )
        colours.append(c)
    if palette is None:
        palette = max(colours, default=0)
    return Colouring(colours, palette)


def serialize_colouring(c: Colouring) -> str:
    # str(col) in a comprehension is specialised on 3.11-3.12; map(str, ...)
    # takes the generic type call there and measured about 1.7x slower
    lines = [f"# palette {c.palette_size}"] + [str(col) for col in c.colours]
    return "\n".join(lines) + "\n"


def parse_weights(text: str | bytes, expected: int | None = None) -> Weighting:
    """Parse a weights file; entries may be 'p/q' or plain decimals.
    Exponents are rejected: Fraction would expand 1e-1000000 into a
    million-digit integer. When expected is given, the entry count must
    match it exactly."""
    from fractions import Fraction

    weights = []
    last = 0
    for no, line in _content_lines(text):
        last = no
        if not line:
            raise FormatError(no, "empty line in weights file")
        if "e" in line or "E" in line:
            raise FormatError(
                no, f"invalid weight {_clip(repr(line))}: exponents are not accepted"
            )
        try:
            w = Fraction(line)
        except (ValueError, ZeroDivisionError):
            message = f"invalid weight {_clip(repr(line))}"
            raise FormatError(no, _refused("weight", line, message)) from None
        if not 0 <= w <= 1:
            # the text as written: str(w) could be past the int-to-text limit
            raise FormatError(no, f"weight {_clip(line)} outside [0, 1]")
        weights.append(w)
    if expected is not None and len(weights) != expected:
        raise FormatError(
            last, f"expected {expected} weights, found {len(weights)}"
        )
    return Weighting(weights)


def serialize_weights(w: Weighting) -> str:
    # no weights is an empty file: a lone newline would parse as an empty line
    return "".join(f"{x}\n" for x in w.weights)
