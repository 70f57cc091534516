"""Bibliographic data model, JSON-lines ingestion, and a columnar corpus.

A corpus is a set of publication records, each carrying the four fields the
pipeline works with: a cell (the publication's combination of subject
categories), a title, an author list, and a list of cited reference ids.
Records arrive as JSON lines, and :func:`ingest` takes each decoded line
straight into columns in one pass.  Its per-record step checks the
line's JSON shapes and runs the record rules of the :class:`Publication`
constructor in field order; it writes nothing until every rule has
passed, and then appends the record's value ids.  Dicts keyed by the raw
JSON values (a raw ``(surname, initials)`` pair, a raw category list, a
raw doc-type label) hand out those ids, so a rule that depends on such a
value alone runs once per distinct value.  The dicts belong to the
column builder of one ingest and go with it; no cache in this module
grows with the corpus.  :func:`parse_record` is the same step on a
builder of one record, so every schema rule is written once; its
:class:`Publication` is read back by :meth:`Corpus.publication`, the one
row reader, from the one-row corpus the builder makes.  No line of
:func:`ingest` builds a :class:`Publication` or an :class:`AuthorName`.

:meth:`Corpus.from_publications` finishes the builder :func:`ingest`
filled; an iterable of publications is first appended by the same
writer.  Every publication gets a row, its place in sorted-id order, and
every field value an int id into the field's value table, handed out by
a dict keyed by the value:

* per-row columns (:class:`Column`) hold the cell (by its key string),
  year, document type and source as value ids, and the titles as
  strings;
* forward indexes (:class:`ForwardIndex`) hold each row's title words
  (distinct), authors (in list order, so the reprint index resolves),
  reprint author (none or one) and references (distinct, sorted), as one
  flat ``array("I")`` of value ids cut by an offsets array;
* postings hold, per field value, the sorted rows carrying it as an
  ``array("I")``.  They are not written during the pass: once the columns
  and forward indexes are in row order, each posting mapping is derived
  by inverting one of them (:func:`_invert`).  Every posting that holds
  at least a 64th of the corpus is dense and also keeps its row bitset, a
  Python int whose binary numeral, ``len(corpus)`` digits wide, has a
  ``1`` for each member row in row order; set algebra over dense postings
  is ``&``, ``|`` and :meth:`int.bit_count`.  This is the array-or-bitmap
  container split of Roaring bitmaps (Chambi, Lemire, Kaser and Godin,
  arXiv:1402.6407).

On the 100k-record benchmark corpus the postings hold 3.39 M rows, 13.6
MB as ``array("I")``, and the forward indexes 1.09 M title-word, 0.35 M
author and 1.6 M reference ids.

The pipeline asks the columns directly.  What reads like the old object
model is built on read and not kept: ``corpus.publications`` maps an id to
an equal :class:`Publication`, iterating in arrival order, and the six
``by_*`` mappings (:class:`Postings`) map a value to the frozenset of the
ids carrying it.
"""

from __future__ import annotations

import gc
import json
import re
import sys
import unicodedata
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, lru_cache
from itertools import chain, compress, repeat
from operator import attrgetter, itemgetter, sub
from pathlib import Path
from typing import (Collection, Hashable, Iterable, Iterator, Mapping,
                    Sequence)

from .errors import (DuplicatePubId, EmptyCategorySet, FileUnreadable,
                     SchemaError, UnknownPubId)

_TOKEN = re.compile(r"[0-9a-z]+")
_DOI_LIKE = re.compile(r"^(?:doi:)?10\.\d{4,9}/\S+$", re.IGNORECASE)
# UTF-8 cannot encode a surrogate, which only a JSON "\ud800" escape lets
# in; str.isascii reads a flag, so only non-ASCII text is searched.
_SURROGATE = re.compile("[\ud800-\udfff]")


class DocType(Enum):
    """Normalized document type of a publication."""

    ARTICLE = "Article"
    REVIEW = "Review"
    LETTER = "Letter"
    MEETING_ABSTRACT = "MeetingAbstract"
    EDITORIAL_MATERIAL = "EditorialMaterial"
    PROCEEDINGS_PAPER = "ProceedingsPaper"
    OTHER = "Other"

    @classmethod
    @lru_cache(maxsize=1024)
    def from_label(cls, label: str) -> "DocType":
        """Map a raw label to a member, ignoring case and punctuation.

        Unrecognized labels map to ``OTHER`` rather than failing: document
        type never gates inclusion by default, so an exotic label must not
        reject an otherwise valid record.  Cached: a label is folded once.
        """
        folded = re.sub(r"[^a-z]", "", label.lower())
        return _DOC_TYPE_BY_FOLDED.get(folded, cls.OTHER)


_DOC_TYPE_BY_FOLDED = {
    re.sub(r"[^a-z]", "", member.value.lower()): member for member in DocType
}


def _fold_surname(surname: str) -> str:
    """Uppercase a surname and strip diacritics (NFKD fold)."""
    if surname.isascii():   # NFKD leaves ASCII as it is
        return sys.intern(surname.upper().strip())
    decomposed = unicodedata.normalize("NFKD", surname)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return sys.intern(stripped.upper().strip())


@dataclass(frozen=True)
class AuthorName:
    """An author identity reduced to folded surname plus first initial.

    Two occurrences are the same author exactly when their keys match;
    no richer disambiguation is attempted.  ``key`` is the interned
    ``"SURNAME F"`` string, made once per name.
    """

    surname: str
    first_initial: str
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "key", sys.intern(f"{self.surname} {self.first_initial}"))

    @classmethod
    def from_raw(cls, surname: str, initials: str) -> "AuthorName":
        """Build from raw record values.

        Initials may carry periods or whitespace ("J.R. " and "JR" agree).
        Raises ``ValueError`` when the surname is empty or no alphabetic
        initial exists.
        """
        return cls(*_fold_name(surname, initials))

    @classmethod
    def from_key(cls, key: str) -> "AuthorName":
        """Parse a ``"SURNAME F"`` key string (inverse of :attr:`key`).

        Tolerates the common ``"Surname, F"`` form by dropping a trailing
        comma from the surname part.
        """
        surname, _, initial = key.strip().rpartition(" ")
        surname = surname.rstrip(",")
        if not surname or len(initial) != 1:
            raise ValueError(f"not an author key: {key!r}")
        return cls.from_raw(surname, initial)


def _fold_name(surname: str, initials: str) -> tuple[str, str]:
    """The folded surname and the first alphabetic initial, uppercased, of
    a raw author; ``ValueError`` when either is missing."""
    folded = _fold_surname(surname)
    if not folded:
        raise ValueError("author surname is empty")
    cleaned = re.sub(r"[^A-Za-z]", "", initials)
    if not cleaned:
        raise ValueError(f"author {surname!r} has no alphabetic initials")
    return folded, cleaned[0].upper()


def normalize_author_key(raw: str) -> str:
    """Normalize a user-supplied ``"surname initial"`` string to a key."""
    return AuthorName.from_key(raw).key


# the size of the caches that let publications built on read share their
# equal names and cells
_SHARED = 1024


@lru_cache(maxsize=_SHARED)
def _name_of_key(key: str) -> AuthorName:
    """The name whose key is ``key``: its initial is the one character
    after the last space, and its surname, interned, all before it."""
    surname, _, initial = key.rpartition(" ")
    return AuthorName(sys.intern(surname), initial)


@dataclass(frozen=True, order=True)
class CellId:
    """A cell: the full combination of a publication's subject categories.

    Categories are stored sorted and deduplicated, so two publications
    share a cell exactly when their category sets are equal.
    """

    categories: tuple[str, ...]

    def __post_init__(self):
        if not self.categories:
            raise EmptyCategorySet("cell requires at least one subject category")
        canonical = tuple(sorted(set(self.categories)))
        object.__setattr__(self, "categories", canonical)

    @cached_property
    def key(self) -> str:
        # categories never contain "|": the Publication constructor checks
        return "|".join(self.categories)

    def __str__(self) -> str:
        return self.key


def derive_cell(subject_categories: Iterable[str]) -> CellId:
    """Derive the cell id for a category set (order-insensitive).

    Equal category sets share one :class:`CellId` while it is among the
    last 1024 cells derived or read back.
    """
    return _shared_cell(tuple(sorted(set(subject_categories))))


_shared_cell = lru_cache(maxsize=_SHARED)(CellId)


def tokenize_title(title: str, min_len: int = 1) -> frozenset[str]:
    """Tokenize a title into its set of distinct lowercase words.

    Splits on every non-alphanumeric character and drops tokens shorter
    than ``min_len``.  Set semantics: a word either occurs in the title
    or it does not; multiplicity never matters downstream.  Tokens are
    interned, so a word is one string object however many titles hold it.
    """
    tokens = _title_words(title)
    if min_len > 1:
        tokens = [t for t in tokens if len(t) >= min_len]
    return frozenset(map(sys.intern, tokens))


def _title_words(title: str) -> list[str]:
    """The lowercase words of a title, in order and with repeats."""
    return _TOKEN.findall(title.lower())


def is_doi_like(reference: str) -> bool:
    """True when a reference string looks like a DOI (``10.NNNN/...``)."""
    return bool(_DOI_LIKE.match(reference.strip()))


# the constructor's keywords, in order: what repr shows
_PUBLICATION_FIELDS = (
    "pub_id", "year", "doc_type", "source_id", "subject_categories",
    "title", "authors", "reprint_author", "references",
)
_KEY_OF = attrgetter("key")


def _check_year(year) -> None:
    if not isinstance(year, int) or isinstance(year, bool):
        raise ValueError("'year' must be an integer")


def _check_categories(categories: tuple[str, ...]) -> None:
    if not categories or not all(categories):
        raise ValueError("'subject_categories' must be non-empty strings")
    if any("|" in c for c in categories):   # "|" joins a CellId.key
        raise ValueError("subject category contains '|'")


def _check_references(pub_id: str, references: Collection[str]) -> None:
    if pub_id in references:
        raise ValueError("publication references itself")


def _check_reprint(reprint_author: int | None,
                   authors: tuple[AuthorName, ...]) -> None:
    if reprint_author is not None:
        if not authors:
            raise ValueError("reprint author given but author list empty")
        if not 0 <= reprint_author < len(authors):
            raise ValueError(
                f"reprint author index {reprint_author} out of range")


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Publication:
    """One immutable publication record, stored compactly.

    The constructor checks the record's invariants (an int year, a
    non-empty set of non-empty categories without ``|``, no
    self-citation, a reprint index within the author list) and raises
    ``ValueError`` otherwise; :func:`parse_record` runs the same rules in
    field order and then stores the fields without running them again.
    It keeps each field once, in its smallest shared form: the
    :class:`CellId` of the category set (which holds the sorted,
    deduplicated categories), the authors with their interned keys, and
    the distinct references as a sorted tuple, so that equality and
    hashing over the stored fields treat references as a set.
    ``subject_categories``, ``references``, ``title_tokens``,
    ``author_keys``, ``doi_references`` and ``reprint_author_key`` are
    computed from those when read, so no record holds a set of its own.
    """

    pub_id: str
    year: int
    doc_type: DocType
    source_id: str
    cell: CellId
    title: str
    authors: tuple[AuthorName, ...]
    _author_keys: tuple[str, ...]
    reprint_author: int | None
    _references: tuple[str, ...]

    def __init__(self, pub_id: str, year: int, doc_type: DocType,
                 source_id: str, subject_categories: Iterable[str],
                 title: str, authors: Iterable[AuthorName],
                 reprint_author: int | None, references: Iterable[str]):
        _check_year(year)
        categories = tuple(subject_categories)
        _check_categories(categories)
        refs = tuple(sorted(set(references)))
        _check_references(pub_id, refs)
        authors = tuple(authors)
        _check_reprint(reprint_author, authors)
        self._fill(pub_id, year, doc_type, source_id, derive_cell(categories),
                   title, authors, tuple(map(_KEY_OF, authors)),
                   reprint_author, refs)

    def _fill(self, pub_id, year, doc_type, source_id, cell, title, authors,
              author_keys, reprint_author, refs) -> None:
        """Store checked fields: ``authors`` and their ``author_keys`` as
        tuples in list order, ``refs`` sorted and distinct."""
        init = object.__setattr__
        init(self, "pub_id", pub_id)
        init(self, "year", year)
        init(self, "doc_type", doc_type)
        init(self, "source_id", source_id)
        init(self, "cell", cell)
        init(self, "title", title)
        init(self, "authors", authors)
        init(self, "_author_keys", author_keys)
        init(self, "reprint_author", reprint_author)
        init(self, "_references", refs)

    @property
    def subject_categories(self) -> tuple[str, ...]:
        """The categories, sorted and deduplicated."""
        return self.cell.categories

    @property
    def references(self) -> frozenset[str]:
        return frozenset(self._references)

    @property
    def title_tokens(self) -> frozenset[str]:
        """All tokens of length >= 1; length filters apply at selection."""
        return tokenize_title(self.title, min_len=1)

    @property
    def author_keys(self) -> frozenset[str]:
        """Distinct author keys; a pub counts once per author identity."""
        return frozenset(self._author_keys)

    @property
    def reprint_author_key(self) -> str | None:
        if self.reprint_author is None:
            return None
        return self._author_keys[self.reprint_author]

    @property
    def doi_references(self) -> frozenset[str]:
        return frozenset(r for r in self._references if is_doi_like(r))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in _PUBLICATION_FIELDS)
        return f"Publication({shown})"


@dataclass(frozen=True)
class RejectedLine:
    line_no: int
    reason: str


@dataclass(frozen=True)
class IngestReport:
    """What happened during one ingest pass."""

    total_lines: int
    accepted: int
    rejected: tuple[RejectedLine, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.rejected


def _author_key(entry, i: int, line_no: int) -> str:
    """The key of raw author ``i`` of a record, after its rules."""
    if not isinstance(entry, dict):
        raise SchemaError(line_no, f"author {i} is not an object")
    surname = entry.get("surname")
    initials = entry.get("initials")
    if not isinstance(surname, str) or not isinstance(initials, str):
        raise SchemaError(
            line_no, f"author {i} needs string 'surname' and 'initials'"
        )
    if (not (surname.isascii() and initials.isascii())
            and _SURROGATE.search(surname + initials)):
        raise SchemaError(line_no, f"author {i} holds a lone surrogate")
    try:
        surname, initial = _fold_name(surname, initials)
    except ValueError as exc:
        raise SchemaError(line_no, f"author {i}: {exc}") from exc
    return sys.intern(f"{surname} {initial}")


def _check_str_list(raw, line_no: int, key: str) -> None:
    """Check that ``raw`` is a list of strings without a lone surrogate."""
    try:   # join takes nothing but strings
        text = "".join(raw) if isinstance(raw, list) else None
    except TypeError:
        text = None
    if text is None:
        raise SchemaError(line_no, f"'{key}' must be a list of strings")
    if not text.isascii() and _SURROGATE.search(text):
        raise SchemaError(line_no, f"'{key}' holds a lone surrogate")


def _apply(line_no: int, rule, *values) -> None:
    """Run one of the constructor's rules on raw values, as a SchemaError."""
    try:
        rule(*values)
    except ValueError as exc:
        raise SchemaError(line_no, str(exc)) from exc


# a posting is dense, and keeps a row bitset, from 1/_DENSE_SHARE of the corpus
_DENSE_SHARE = 64
# the binary digits of a row bitset as compress selectors: 0 or 1 per row
_DIGIT_SELECTORS = bytes.maketrans(b"01", b"\0\1")
_ONE = re.compile("1")


def bitset_from_digits(digits: bytes | bytearray) -> int:
    """The row bitset whose binary digits, in row order, are ``digits``.

    ``digits`` holds ``b"1"`` for each member row and ``b"0"`` for every
    other; an empty corpus has no digits and the empty bitset 0.
    """
    return int(digits, 2) if digits else 0


def ids_of_rows(bits: int, row_ids: Sequence[str]) -> list[str]:
    """The ids of the rows set in ``bits``, where ``row_ids[row]`` is the
    id of each row; in row order."""
    digits = format(bits, f"0{len(row_ids)}b").encode("ascii")
    return list(compress(row_ids, digits.translate(_DIGIT_SELECTORS)))


def rows_in(bits: int, n: int) -> list[int]:
    """The rows set in the bitset ``bits`` over ``n`` rows, ascending."""
    skipped = n - bits.bit_length()   # the leading zeros format leaves out
    return [skipped + one.start() for one in _ONE.finditer(format(bits, "b"))]


def bitset_of_rows(rows: Iterable[int], n: int) -> int:
    """The bitset of ``rows`` over ``n`` rows."""
    digits = bytearray(b"0") * n
    for row in rows:
        digits[row] = 49   # ord("1")
    return bitset_from_digits(digits)


class Postings(Mapping):
    """One inverted index: each field value maps to the frozenset of the
    ids of the publications carrying it, built on every read and not kept.

    The query path reads the two dicts behind it instead: ``rows[value]``
    is the value's posting as a sorted row array, and ``bits[value]`` the
    row bitset of a dense one.
    """

    __slots__ = ("rows", "bits", "_row_ids")

    def __init__(self, rows: dict[Hashable, array], bits: dict[Hashable, int],
                 row_ids: Sequence[str]):
        self.rows = rows
        self.bits = bits
        self._row_ids = row_ids

    def __getitem__(self, value) -> frozenset[str]:
        return frozenset(map(self._row_ids.__getitem__, self.rows[value]))

    def __iter__(self) -> Iterator:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, value) -> bool:
        return value in self.rows


@dataclass(frozen=True, slots=True)
class Column:
    """One value per row: row ``r`` holds ``values[ids[r]]``."""

    values: tuple
    ids: array

    def __getitem__(self, row: int):
        return self.values[self.ids[row]]

    def count(self, rows: Iterable[int]) -> Counter[int]:
        """Value id -> number of ``rows`` holding the value."""
        return Counter(map(self.ids.__getitem__, rows))


@dataclass(frozen=True, slots=True)
class ForwardIndex:
    """Values per row: row ``r`` holds the values whose ids are
    ``ids[offsets[r]:offsets[r + 1]]``, in the table ``values``.

    ``distinct`` is true when no row holds a value twice.
    """

    values: tuple
    ids: array
    offsets: array
    distinct: bool = True

    def ids_of(self, row: int) -> array:
        return self.ids[self.offsets[row]:self.offsets[row + 1]]

    def values_of(self, row: int) -> tuple:
        return tuple(map(self.values.__getitem__, self.ids_of(row)))

    def count(self, rows: Iterable[int]) -> Counter[int]:
        """Value id -> number of ``rows`` holding the value, each row once."""
        ids, offsets = self.ids, self.offsets
        held = (ids[offsets[row]:offsets[row + 1]] for row in rows)
        if not self.distinct:
            held = map(dict.fromkeys, held)
        return Counter(chain.from_iterable(held))


class _Publications(Mapping):
    """Publication id -> an equal :class:`Publication`, built on read, in
    arrival order."""

    __slots__ = ("_corpus",)

    def __init__(self, corpus: "Corpus"):
        self._corpus = corpus

    def __getitem__(self, pub_id: str) -> Publication:
        return self._corpus.publication(self._corpus.rows[pub_id])

    def __iter__(self) -> Iterator[str]:
        return map(self._corpus.row_ids.__getitem__, self._corpus.arrival)

    def __len__(self) -> int:
        return len(self._corpus.row_ids)

    def __contains__(self, pub_id) -> bool:
        return pub_id in self._corpus.rows


class _Interner(dict):
    """Value -> id, numbering new values from 0 in order of arrival."""

    def __missing__(self, value) -> int:
        self[value] = new = len(self)
        return new


def _forward() -> tuple[array, array]:
    """An empty forward index's ids and offsets."""
    return array("I"), array("I", (0,))


def _reorder(ids: array, offsets: array,
             order: Sequence[int]) -> tuple[array, array]:
    """The forward index whose ``r``-th row is the ``order[r]``-th one."""
    new_ids, new_offsets = _forward()
    for old in order:
        new_ids.extend(ids[offsets[old]:offsets[old + 1]])
        new_offsets.append(len(new_ids))
    return new_ids, new_offsets


def _invert(index: Column | ForwardIndex, row_ids: Sequence[str]) -> Postings:
    """The postings of a column or forward index in row order: each value
    some row holds maps to those rows, ascending and each once.

    This is the in-memory inversion of Zobel and Moffat ("Inverted files
    for text search engines", ACM Computing Surveys 38(2), 2006): the
    entries are read in row order and each appends its row to its value's
    posting, so every posting comes out sorted.  A posting holding at
    least a 64th of the rows also gets its row bitset.
    """
    n = len(row_ids)
    distinct = True
    if isinstance(index, Column):
        entry_rows: Iterable[int] = range(n)
    else:   # each row once per value id it holds
        distinct, offsets = index.distinct, index.offsets
        entry_rows = chain.from_iterable(
            map(repeat, range(n), map(sub, offsets[1:], offsets)))
    postings = [array("I") for _ in index.values]
    # posting.append(row) per entry, run in C; the deque keeps nothing
    deque(map(array.append, map(postings.__getitem__, index.ids), entry_rows),
          maxlen=0)
    rows, bits = {}, {}
    for value, posting in zip(index.values, postings):
        if not posting:   # an author no row names as its reprint author
            continue
        if not distinct:   # a row holding a value twice appended it twice
            posting = array("I", dict.fromkeys(posting))
        rows[value] = posting
        if _DENSE_SHARE * len(posting) >= n:
            bits[value] = bitset_of_rows(posting, n)
    return Postings(rows, bits, row_ids)


_REQUIRED_KEYS = (
    "id", "year", "doc_type", "source_id",
    "subject_categories", "title", "authors", "reprint_author", "references",
)
_REQUIRED = frozenset(_REQUIRED_KEYS)
_RAW_NAME = itemgetter("surname", "initials")


class _ColumnBuilder:
    """The columns and forward indexes of one corpus, in arrival order,
    filled one record at a time; :meth:`Corpus.from_publications` puts
    them in row order and inverts them.

    Every field value gets an int id from its table, a dict keyed by the
    value that numbers new values in order of arrival.  Three more dicts,
    keyed by raw JSON values, give a raw ``(surname, initials)`` pair its
    author id, a raw category list its cell id and a raw doc-type label its
    doc-type id, so a rule that depends on such a value alone runs once
    per distinct value.  All of it lives and goes with the builder.
    """

    def __init__(self):
        self.arrived: dict[str, None] = {}
        (self.cells, self.years, self.doc_types, self.sources, self.words,
         self.authors, self.references) = (_Interner() for _ in range(7))
        self.author_of_raw: dict[tuple, int] = {}
        self.cell_of_raw: dict[tuple, int] = {}
        self.doc_type_of_raw: dict[str, int] = {}
        self.columns = [array("I") for _ in range(4)]
        self.titles: list[str] = []
        self.reprint = array("i")
        self.forward = {name: _forward() for name in
                        ("title_word", "author", "reprint_author", "reference")}
        self.authors_distinct = True

    def add_record(self, obj, line_no: int) -> None:
        """Check one decoded JSON object and append its row.

        This checks the JSON shapes (the keys, the value types, lone
        surrogates and empty references) and runs the :class:`Publication`
        constructor's rules, each at its place in field order, so that a
        line with several faults reports the first of them.  Nothing is
        written until every rule has passed.  Unknown keys are ignored.
        Every violation raises :class:`SchemaError` carrying ``line_no``;
        an id added before raises :class:`DuplicatePubId`.
        """
        if not isinstance(obj, dict):
            raise SchemaError(line_no, "record is not a JSON object")
        if not _REQUIRED <= obj.keys():
            missing = [k for k in _REQUIRED_KEYS if k not in obj]
            raise SchemaError(line_no, f"missing keys: {', '.join(missing)}")

        pub_id = obj["id"]
        if not isinstance(pub_id, str) or not pub_id:
            raise SchemaError(line_no, "'id' must be a non-empty string")
        year = obj["year"]
        _apply(line_no, _check_year, year)
        for key in ("id", "doc_type", "source_id", "title"):
            text = obj[key]
            if not isinstance(text, str):
                raise SchemaError(line_no, f"'{key}' must be a string")
            if not text.isascii() and _SURROGATE.search(text):
                raise SchemaError(line_no, f"'{key}' holds a lone surrogate")

        # a raw value with an id passed every rule that depends on it alone
        raw_cell = obj["subject_categories"]
        try:
            cell = (self.cell_of_raw.get(tuple(raw_cell))
                    if type(raw_cell) is list else None)
        except TypeError:   # an unhashable item, which the rules reject
            cell = None
        if cell is None:
            _check_str_list(raw_cell, line_no, "subject_categories")
            _apply(line_no, _check_categories, raw_cell)
            cell_key = "|".join(sorted(set(map(str.__str__, raw_cell))))

        raw_authors = obj["authors"]
        if not isinstance(raw_authors, list):
            raise SchemaError(line_no, "'authors' must be a list")
        try:
            pairs = list(map(_RAW_NAME, raw_authors))
            named = list(map(self.author_of_raw.get, pairs))
        except (KeyError, TypeError):   # an author the rules reject below
            named = [None] * len(raw_authors)
        new_names = None in named
        if new_names:   # the new ones get their key, checked
            for i, entry in enumerate(raw_authors):
                if named[i] is None:
                    named[i] = _author_key(entry, i, line_no)

        reprint = obj["reprint_author"]
        if reprint is not None and (isinstance(reprint, bool)
                                    or not isinstance(reprint, int)):
            raise SchemaError(line_no,
                              "'reprint_author' must be an integer or null")

        raw_refs = obj["references"]
        _check_str_list(raw_refs, line_no, "references")
        if "" in raw_refs:
            raise SchemaError(line_no, "'references' contains an empty string")
        refs = set(map(str.__str__, raw_refs))
        _apply(line_no, _check_references, pub_id, refs)
        _apply(line_no, _check_reprint, reprint, named)

        # every rule has passed: the new raw values get their ids
        self._arrive(pub_id)
        if cell is None:
            cell = self.cell_of_raw[tuple(raw_cell)] = self.cells[cell_key]
        if new_names:
            for i, key in enumerate(named):
                if type(key) is str:
                    named[i] = self.author_of_raw[pairs[i]] = self.authors[key]
        label = obj["doc_type"]
        doc_type = self.doc_type_of_raw.get(label)
        if doc_type is None:
            doc_type = self.doc_type_of_raw[label] = \
                self.doc_types[DocType.from_label(label)]
        self._append(cell, year, doc_type, str.__str__(obj["source_id"]),
                     obj["title"], named, reprint, sorted(refs))

    def add_publication(self, pub: Publication) -> None:
        """Append the row of a publication, whose rules have run."""
        self._arrive(pub.pub_id)
        self._append(self.cells[pub.cell.key], pub.year,
                     self.doc_types[pub.doc_type], pub.source_id, pub.title,
                     list(map(self.authors.__getitem__, pub._author_keys)),
                     pub.reprint_author, pub._references)

    def _arrive(self, pub_id: str) -> None:
        if pub_id in self.arrived:
            raise DuplicatePubId(pub_id)
        self.arrived[pub_id] = None

    def _append(self, cell: int, year: int, doc_type: int, source: str,
                title: str, named: list[int], reprint: int | None,
                refs: Sequence[str]) -> None:
        """Write the row of one checked record: ``cell``, ``doc_type`` and
        the authors ``named`` are value ids, ``refs`` sorted and distinct.
        """
        cell_col, year_col, doc_type_col, source_col = self.columns
        cell_col.append(cell)
        year_col.append(self.years[year])
        doc_type_col.append(doc_type)
        source_col.append(self.sources[source])
        self.titles.append(title)
        (word_ids, word_offsets), (author_ids, author_offsets), \
            (reprint_ids, reprint_offsets), (ref_ids, ref_offsets) = \
            self.forward.values()
        word_ids.extend(dict.fromkeys(map(self.words.__getitem__,
                                          _title_words(title))))
        word_offsets.append(len(word_ids))
        author_ids.extend(named)
        author_offsets.append(len(author_ids))
        self.authors_distinct &= len(set(named)) == len(named)
        if reprint is None:
            self.reprint.append(-1)
        else:
            self.reprint.append(reprint)
            reprint_ids.append(named[reprint])
        reprint_offsets.append(len(reprint_ids))
        ref_ids.extend(map(self.references.__getitem__, refs))
        ref_offsets.append(len(ref_ids))


def parse_record(obj: dict, line_no: int = 0) -> Publication:
    """Check one decoded JSON object and build its :class:`Publication`.

    The object goes through the per-record step :func:`ingest` runs on
    every line (the shapes, then the :class:`Publication` constructor's
    rules, in field order), on a builder of its own, and its publication
    is read back from the one-row corpus that builder makes.  Every
    violation raises :class:`SchemaError` carrying ``line_no``.
    """
    built = _ColumnBuilder()
    built.add_record(obj, line_no)
    return Corpus.from_publications(built).publication(0)


@dataclass(frozen=True, eq=False, repr=False)
class Corpus:
    """An immutable, columnar publication collection.

    ``row_ids`` lists the ids in sorted order and ``rows`` maps each id to
    its place there, its row; ``arrival`` lists the rows in arrival order.
    Per row, ``titles`` and the :class:`Column` s ``cell`` (the cell's
    key string), ``year``, ``doc_type`` and ``source`` hold one value
    each; the :class:`ForwardIndex` es ``title_word``, ``author``,
    ``reprint_author`` and ``reference`` hold several, and ``reprint``
    holds the reprint author's place in the author list (-1 for none).

    The six ``by_*`` :class:`Postings` are the inverted indexes; ids
    round-trip, i.e. ``pid in by_cell[corpus.publications[pid].cell.key]``
    for every publication.
    """

    row_ids: tuple[str, ...]
    rows: Mapping[str, int]
    arrival: Sequence[int]
    titles: tuple[str, ...]
    cell: Column
    year: Column
    doc_type: Column
    source: Column
    title_word: ForwardIndex
    author: ForwardIndex
    reprint_author: ForwardIndex
    reprint: array
    reference: ForwardIndex
    by_cell: Postings
    by_title_word: Postings
    by_author_key: Postings
    by_reprint_author_key: Postings
    by_reference: Postings
    by_year: Postings
    ingest_report: IngestReport | None = None

    @property
    def publications(self) -> Mapping[str, Publication]:
        """Id -> :class:`Publication`, built on read, in arrival order."""
        return _Publications(self)

    def __len__(self) -> int:
        return len(self.row_ids)

    def __contains__(self, pub_id: str) -> bool:
        return pub_id in self.rows

    def __iter__(self) -> Iterator[Publication]:
        return map(self.publication, self.arrival)

    def publication(self, row: int) -> Publication:
        """The :class:`Publication` of ``row``, built from the columns; its
        names and cell are shared with the ones read before it."""
        pub = object.__new__(Publication)
        author_keys, reprint = self.author.values_of(row), self.reprint[row]
        cell = _shared_cell(tuple(self.cell[row].split("|")))
        pub._fill(self.row_ids[row], self.year[row], self.doc_type[row],
                  self.source[row], cell, self.titles[row],
                  tuple(map(_name_of_key, author_keys)), author_keys,
                  None if reprint < 0 else reprint,
                  self.reference.values_of(row))
        return pub

    def ids_in_years(self, years: Iterable[int]) -> frozenset[str]:
        """Union of publication ids over the given years."""
        rows = self.by_year.rows
        return frozenset(map(self.row_ids.__getitem__, chain.from_iterable(
            rows[year] for year in set(years) if year in rows)))

    def rows_of(self, ids: Collection[str]) -> Sequence[int]:
        """The rows of ``ids``, in their order.  When some id is absent
        from the corpus, :class:`UnknownPubId` names the least of them."""
        rows = self.rows
        try:
            if len(ids) < 2:   # itemgetter needs an id; it returns one bare
                return [rows[pid] for pid in ids]
            return itemgetter(*ids)(rows)   # looks the ids up in C
        except KeyError:
            raise UnknownPubId(min(pid for pid in ids
                                   if pid not in rows)) from None

    def bitset(self, ids: Iterable[str]) -> int:
        """The row bitset of ``ids``, checked as :meth:`rows_of` does."""
        return bitset_of_rows(self.rows_of(frozenset(ids)), len(self.row_ids))

    @classmethod
    def from_publications(
            cls, publications: Iterable[Publication] | _ColumnBuilder,
    ) -> "Corpus":
        """Write a publication stream into columns, or finish the columns
        :func:`ingest` has filled.  Raises :class:`DuplicatePubId`.

        Each publication, in arrival order, has its row appended by the
        writer :func:`ingest` uses too: every field value gets an id in its
        field's table, and the value ids go into the columns and forward
        indexes.  No publication is kept.  One sort of the ids then gives
        the rows; when the ids did not arrive sorted, the columns and
        forward indexes are put in row order.  The postings are then
        derived from those by :func:`_invert`, so a row array is sorted by
        construction.
        """
        if isinstance(publications, _ColumnBuilder):
            built = publications
        else:
            built = _ColumnBuilder()
            for pub in publications:
                built.add_publication(pub)
        arrived, columns, titles, reprint, forward = (
            built.arrived, built.columns, built.titles, built.reprint,
            built.forward)
        cells, years, doc_types, sources, words, authors, references = (
            built.cells, built.years, built.doc_types, built.sources,
            built.words, built.authors, built.references)
        authors_distinct = built.authors_distinct
        # the builder is used up: what it held is freed once replaced here
        vars(built).clear()
        arrived_ids = list(arrived)
        del arrived
        n = len(arrived_ids)
        order = sorted(range(n), key=arrived_ids.__getitem__)
        row_ids = tuple(map(arrived_ids.__getitem__, order))
        del arrived_ids
        arrival: Sequence[int] = range(n)
        if order != list(arrival):   # arrival a becomes row arrival[a]
            arrival = array("I", sorted(range(n), key=order.__getitem__))
            columns = [array("I", map(column.__getitem__, order))
                       for column in columns]
            titles = list(map(titles.__getitem__, order))
            reprint = array("i", map(reprint.__getitem__, order))
            for name, (ids, offsets) in forward.items():
                forward[name] = _reorder(ids, offsets, order)
        del order

        author_table = tuple(authors)
        cell, year, doc_type, source = (
            Column(tuple(table), column) for table, column in
            zip((cells, years, doc_types, sources), columns))
        title_word = ForwardIndex(tuple(map(sys.intern, words)),
                                  *forward["title_word"])
        author = ForwardIndex(author_table, *forward["author"],
                              distinct=authors_distinct)
        reprint_author = ForwardIndex(author_table, *forward["reprint_author"])
        reference = ForwardIndex(tuple(references), *forward["reference"])
        return cls(
            row_ids=row_ids,
            rows=dict(zip(row_ids, range(n))),
            arrival=arrival,
            titles=tuple(titles),
            cell=cell, year=year, doc_type=doc_type, source=source,
            title_word=title_word, author=author,
            reprint_author=reprint_author, reprint=reprint,
            reference=reference,
            by_cell=_invert(cell, row_ids),
            by_title_word=_invert(title_word, row_ids),
            by_author_key=_invert(author, row_ids),
            by_reprint_author_key=_invert(reprint_author, row_ids),
            by_reference=_invert(reference, row_ids),
            by_year=_invert(year, row_ids),
        )


def read_lines(path: str | Path) -> Iterator[str]:
    """Stream the lines of a UTF-8 text file without their ``"\\n"``.

    Lines split on ``"\\n"`` only: U+0085, U+2028 and U+2029 are legal
    inside JSON strings.  Raises :class:`FileUnreadable` when the file
    cannot be opened or a line is not valid UTF-8.
    """
    try:
        with open(path, encoding="utf-8", newline="\n") as handle:
            for line in handle:
                yield line.removesuffix("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc


def decode_json_line(line: str, line_no: int):
    """Decode JSON text; any failure to decode is a :class:`SchemaError`.

    Besides syntax errors that covers an integer literal too long to
    convert (``ValueError``) and nesting too deep to decode
    (``RecursionError``).  ``line_no`` is the line the text starts on, so
    a syntax error in multi-line text names the line it is on.
    """
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(line_no + exc.lineno - 1,
                          f"invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise SchemaError(line_no, f"invalid JSON: {exc}") from exc


def ingest(path: str | Path, strict: bool = False) -> Corpus:
    """Parse a JSON-lines corpus file into a columnar :class:`Corpus`.

    Blank lines are skipped.  Malformed lines (undecodable JSON or schema
    violations) are skipped and reported via ``corpus.ingest_report``
    unless ``strict`` is set, in which case the first violation
    raises :class:`SchemaError`.  Duplicate publication ids always raise
    :class:`DuplicatePubId`, strict or not: a silently dropped duplicate
    could change every downstream count.

    Each line is decoded, and one column builder's per-record step (the
    one :func:`parse_record` runs) checks it and appends its value ids;
    no :class:`Publication` is built.  :meth:`Corpus.from_publications`
    then finishes the builder.  The dicts keyed by raw values that the
    builder holds go with it, when ingest returns or raises.

    The cyclic garbage collector is paused while ingest runs and restored
    to its state on entry, also when ingest raises: ingest builds only
    acyclic objects, which the collector would otherwise walk again and
    again.
    """
    built = _ColumnBuilder()
    rejected: list[RejectedLine] = []
    total = 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        for line_no, line in enumerate(read_lines(path), start=1):
            if not line.strip():
                continue
            total += 1
            try:
                built.add_record(decode_json_line(line, line_no), line_no)
            except SchemaError as exc:
                if strict:
                    raise
                rejected.append(RejectedLine(exc.line_no, exc.reason))
        corpus = Corpus.from_publications(built)
        report = IngestReport(total_lines=total, accepted=len(corpus),
                              rejected=tuple(rejected))
        return replace(corpus, ingest_report=report)
    finally:
        if collecting:
            gc.enable()
