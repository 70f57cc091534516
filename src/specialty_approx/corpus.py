"""Bibliographic data model, JSON-lines ingestion, and inverted indexes.

A corpus is a set of publication records, each carrying the four fields the
pipeline works with: a cell (the publication's combination of subject
categories), a title, an author list, and a list of cited reference ids.
Records arrive as JSON lines.  :func:`parse_record` checks each decoded
line's JSON shapes, runs the record rules of the :class:`Publication`
constructor in field order, and builds a compact, immutable
:class:`Publication`, so every schema rule is written once and runs once
per line.  :meth:`Corpus.from_publications` then fills the six per-field
inverted indexes in one pass over the publications.

The same pass builds the title-word forward index, so that counting a
set of publications' title words reads small ints and tokenizes nothing.
It holds each publication's distinct words, of every length, as ids into
one word table (``Corpus.title_words``), in a flat ``array("I")``
(``title_word_ids``) cut by an offsets array (``title_offsets``), both
in arrival order, plus ``arrival``, each row's arrival index.  On the
100k-record benchmark corpus that is 1,086,485 word ids of 4,008 words:
4.3 MB of ids and 0.4 MB each of offsets and arrival indexes.

Every publication also gets a row: its place in sorted-id order.  A set
of publications can then be held as a row bitset, a Python int whose
binary numeral, ``len(corpus)`` digits wide, has a ``1`` for each member
row in row order (:func:`bitset_from_digits` and :meth:`Corpus.bitset`
build one, :func:`ids_of_rows` reads one back, in id order).  Every
posting that holds at least a 64th of the corpus is dense and also gets
its bitset, at most about a sixth of the size of the frozenset it
shadows; set algebra over dense postings is ``&``, ``|`` and
:meth:`int.bit_count`.

A :class:`Publication` stores each field once, in its smallest shared
form: one :class:`CellId` per distinct category set, one
:class:`AuthorName` per raw ``(surname, initials)`` pair, one
:class:`DocType` per label, and interned strings.  Its set-valued fields
(title words, author keys, references) are computed when they are read.
"""

from __future__ import annotations

import gc
import json
import re
import sys
import unicodedata
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property, lru_cache
from itertools import chain, compress, count, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping, Sequence

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
    no richer disambiguation is attempted.
    """

    surname: str
    first_initial: str

    @classmethod
    @cache
    def from_raw(cls, surname: str, initials: str) -> "AuthorName":
        """Build from raw record values.

        Initials may carry periods or whitespace ("J.R. " and "JR" agree).
        Raises ``ValueError`` when the surname is empty or no alphabetic
        initial exists.  Cached until the end of the current
        :func:`ingest`: every occurrence of a raw pair in a corpus shares
        one object, and so computes its :attr:`key` once.
        """
        folded = _fold_surname(surname)
        if not folded:
            raise ValueError("author surname is empty")
        cleaned = re.sub(r"[^A-Za-z]", "", initials)
        if not cleaned:
            raise ValueError(f"author {surname!r} has no alphabetic initials")
        return cls(surname=folded, first_initial=cleaned[0].upper())

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

    @cached_property
    def key(self) -> str:
        return sys.intern(f"{self.surname} {self.first_initial}")


def normalize_author_key(raw: str) -> str:
    """Normalize a user-supplied ``"surname initial"`` string to a key."""
    return AuthorName.from_key(raw).key


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

    Equal category sets share one :class:`CellId`, cached until the end
    of the current :func:`ingest`.
    """
    return _cell(tuple(sorted(set(subject_categories))))


@cache
def _cell(categories: tuple[str, ...]) -> CellId:
    return CellId(categories)


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
    It keeps each field once, in its smallest shared form: the cached
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
        self._fill(pub_id, year, doc_type, source_id, categories, title,
                   authors, reprint_author, refs)

    def _fill(self, pub_id, year, doc_type, source_id, categories, title,
              authors, reprint_author, refs) -> None:
        """Store checked fields: ``categories`` and ``authors`` as tuples,
        ``refs`` sorted and distinct."""
        init = object.__setattr__
        init(self, "pub_id", pub_id)
        init(self, "year", year)
        init(self, "doc_type", doc_type)
        init(self, "source_id", source_id)
        init(self, "cell", derive_cell(categories))
        init(self, "title", title)
        init(self, "authors", authors)
        init(self, "_author_keys", tuple(map(_KEY_OF, authors)))
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


def _parse_authors(raw, line_no: int) -> tuple[AuthorName, ...]:
    if not isinstance(raw, list):
        raise SchemaError(line_no, "'authors' must be a list")
    out = []
    for i, entry in enumerate(raw):
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
            out.append(AuthorName.from_raw(surname, initials))
        except ValueError as exc:
            raise SchemaError(line_no, f"author {i}: {exc}") from exc
    return tuple(out)


def _parse_str_list(raw, line_no: int, key: str) -> list[str]:
    """The strings of ``raw``, interned; ``str`` subclasses are copied first."""
    if not isinstance(raw, list) or not all(map(isinstance, raw, repeat(str))):
        raise SchemaError(line_no, f"'{key}' must be a list of strings")
    text = "".join(raw)
    if not text.isascii() and _SURROGATE.search(text):
        raise SchemaError(line_no, f"'{key}' holds a lone surrogate")
    return list(map(sys.intern, map(str.__str__, raw)))


_REQUIRED_KEYS = (
    "id", "year", "doc_type", "source_id",
    "subject_categories", "title", "authors", "reprint_author", "references",
)


def parse_record(obj: dict, line_no: int = 0) -> Publication:
    """Check one decoded JSON object and build its :class:`Publication`.

    This checks the JSON shapes (the keys, the value types, lone
    surrogates and empty references) and runs the
    :class:`Publication` constructor's rules, each at its place in field
    order, so that a line with several faults reports the first of them
    and each rule runs once.  Unknown keys are ignored.  Every violation
    raises :class:`SchemaError` carrying ``line_no``.
    """
    if not isinstance(obj, dict):
        raise SchemaError(line_no, "record is not a JSON object")
    missing = [k for k in _REQUIRED_KEYS if k not in obj]
    if missing:
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

    categories = tuple(_parse_str_list(obj["subject_categories"], line_no,
                                       "subject_categories"))
    _apply(line_no, _check_categories, categories)

    authors = _parse_authors(obj["authors"], line_no)

    reprint = obj["reprint_author"]
    if reprint is not None and (isinstance(reprint, bool)
                                or not isinstance(reprint, int)):
        raise SchemaError(line_no, "'reprint_author' must be an integer or null")

    references = _parse_str_list(obj["references"], line_no, "references")
    if "" in references:
        raise SchemaError(line_no, "'references' contains an empty string")
    refs = tuple(sorted(set(references)))
    _apply(line_no, _check_references, pub_id, refs)
    _apply(line_no, _check_reprint, reprint, authors)

    pub = object.__new__(Publication)
    pub._fill(pub_id, year, DocType.from_label(obj["doc_type"]),
              sys.intern(str.__str__(obj["source_id"])), categories,
              obj["title"], authors, reprint, refs)
    return pub


def _apply(line_no: int, rule, *values) -> None:
    """Run one of the constructor's rules on raw values, as a SchemaError."""
    try:
        rule(*values)
    except ValueError as exc:
        raise SchemaError(line_no, str(exc)) from exc


# the inverted indexes of a Corpus, in the order from_publications fills them
_INDEX_NAMES = ("by_cell", "by_title_word", "by_author_key",
                "by_reprint_author_key", "by_reference", "by_year")
# a posting is dense, and gets a row bitset, from 1/_DENSE_SHARE of the corpus
_DENSE_SHARE = 64
# the binary digits of a row bitset as compress selectors: 0 or 1 per row
_DIGIT_SELECTORS = bytes.maketrans(b"01", b"\0\1")


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


def _bitset_of(ids: Collection[str], rows: Mapping[str, int]) -> int:
    """The row bitset of ``ids`` under the id -> row map ``rows``."""
    digits = bytearray(b"0") * len(rows)
    for row in _rows_of(ids, rows):
        digits[row] = 49   # ord("1")
    return bitset_from_digits(digits)


def _rows_of(ids: Collection[str], rows: Mapping[str, int]) -> Sequence[int]:
    """The rows of ``ids``, in their order; itemgetter looks them up in C."""
    if len(ids) < 2:   # itemgetter needs an id, and returns one row bare
        return [rows[pid] for pid in ids]
    return itemgetter(*ids)(rows)


@dataclass(frozen=True)
class Corpus:
    """An immutable publication collection with per-field inverted indexes.

    Every index maps a field value to the frozenset of publication ids
    carrying it; ids round-trip, i.e. ``pid in by_cell[corpus.publications
    [pid].cell.key]`` for every publication.  ``row_ids`` lists the ids
    in sorted order and ``rows`` maps each id to its place there;
    ``bitsets`` maps every dense index posting to its row bitset.

    The title-word forward index holds each publication's distinct title
    words (of any length) as ids into ``title_words``: those of the
    publication that arrived ``a``-th are
    ``title_word_ids[title_offsets[a]:title_offsets[a + 1]]``, and
    ``arrival[row]`` is the arrival index of each row.
    """

    publications: Mapping[str, Publication]
    by_cell: Mapping[str, frozenset[str]]
    by_title_word: Mapping[str, frozenset[str]]
    by_author_key: Mapping[str, frozenset[str]]
    by_reprint_author_key: Mapping[str, frozenset[str]]
    by_reference: Mapping[str, frozenset[str]]
    by_year: Mapping[int, frozenset[str]]
    row_ids: tuple[str, ...]
    rows: Mapping[str, int]
    bitsets: Mapping[frozenset[str], int]
    title_words: tuple[str, ...]
    title_word_ids: array
    title_offsets: array
    arrival: array
    ingest_report: IngestReport | None = None

    def __len__(self) -> int:
        return len(self.publications)

    def __contains__(self, pub_id: str) -> bool:
        return pub_id in self.publications

    def __iter__(self) -> Iterator[Publication]:
        return iter(self.publications.values())

    def ids_in_years(self, years: Iterable[int]) -> frozenset[str]:
        """Union of publication ids over the given years."""
        out: set[str] = set()
        for y in years:
            out.update(self.by_year.get(y, ()))
        return frozenset(out)

    def rows_of(self, ids: Collection[str]) -> Sequence[int]:
        """The rows of ``ids``, all corpus ids, in their order."""
        return _rows_of(ids, self.rows)

    def bitset(self, ids: Iterable[str]) -> int:
        """The row bitset of ``ids``; an id absent from the corpus raises
        :class:`UnknownPubId`."""
        ids = frozenset(ids)
        unknown = ids.difference(self.rows)
        if unknown:
            raise UnknownPubId(min(unknown))
        return _bitset_of(ids, self.rows)

    def title_word_counts(self, ids: Collection[str]) -> dict[str, int]:
        """Title word -> number of the publications ``ids``, all corpus
        ids, whose titles hold it; words of every length, counted over the
        forward index as small ints."""
        word_ids, starts = self.title_word_ids, self.title_offsets
        counts = Counter(chain.from_iterable(
            word_ids[starts[a]:starts[a + 1]]
            for a in map(self.arrival.__getitem__, self.rows_of(ids))))
        words = self.title_words
        return {words[w]: n for w, n in counts.items()}

    @classmethod
    def from_publications(
        cls,
        publications: Iterable[Publication],
        ingest_report: IngestReport | None = None,
    ) -> "Corpus":
        """Index a publication stream.  Raises :class:`DuplicatePubId`.

        One pass over the publications, in arrival order, fills all six
        indexes and the title-word forward index.  Postings are gathered
        in lists (each field value of a publication is distinct, so no
        list repeats an id), and each list becomes a frozenset once, freed
        as it goes; a dense one also gets its row bitset.  One sort of the
        ids gives the rows and each row's arrival index.
        """
        pubs: dict[str, Publication] = {}
        lists = {name: defaultdict(list) for name in _INDEX_NAMES}
        by_cell, by_word, by_author, by_reprint, by_reference, by_year = (
            lists.values())
        word_id = defaultdict(count().__next__)   # a new word, the next id
        title_word_ids = array("I")
        title_offsets = array("I", (0,))
        for pub in publications:
            pid = pub.pub_id
            if pid in pubs:
                raise DuplicatePubId(pid)
            pubs[pid] = pub
            by_cell[pub.cell.key].append(pid)
            words = dict.fromkeys(map(word_id.__getitem__,
                                      _title_words(pub.title)))
            for word in words:
                by_word[word].append(pid)
            title_word_ids.extend(words)
            title_offsets.append(len(title_word_ids))
            for key in pub.author_keys:
                by_author[key].append(pid)
            if pub.reprint_author is not None:
                by_reprint[pub.reprint_author_key].append(pid)
            for ref in pub._references:
                by_reference[ref].append(pid)
            by_year[pub.year].append(pid)
        # title-word postings were gathered by word id
        title_words = tuple(map(sys.intern, word_id))
        lists["by_title_word"] = {title_words[word]: ids
                                  for word, ids in by_word.items()}
        del by_word
        arrived = list(pubs)
        arrival = array("I", sorted(range(len(arrived)),
                                    key=arrived.__getitem__))
        row_ids = tuple(map(arrived.__getitem__, arrival))
        del arrived
        rows = dict(zip(row_ids, range(len(row_ids))))
        bitsets: dict[frozenset[str], int] = {}
        indexes = {}
        for name, postings in lists.items():
            index = indexes[name] = {}
            for value in list(postings):
                ids = postings.pop(value)
                posting = index[value] = frozenset(ids)
                if _DENSE_SHARE * len(ids) >= len(row_ids):
                    bitsets[posting] = _bitset_of(ids, rows)
        return cls(publications=pubs, row_ids=row_ids, rows=rows,
                   bitsets=bitsets, title_words=title_words,
                   title_word_ids=title_word_ids, title_offsets=title_offsets,
                   arrival=arrival, ingest_report=ingest_report,
                   **indexes)


def reference_counts(pubs: Iterable[Publication],
                     doi_only: bool) -> Counter[str]:
    """Reference -> number of ``pubs`` citing it, counted over each
    record's stored distinct references; only the DOI-like ones when
    ``doi_only``."""
    references = chain.from_iterable(pub._references for pub in pubs)
    return Counter(filter(is_doi_like, references) if doi_only
                   else references)


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
    """Parse a JSON-lines corpus file into an indexed :class:`Corpus`.

    Blank lines are skipped.  Malformed lines (undecodable JSON or schema
    violations) are skipped and reported via ``corpus.ingest_report``
    unless ``strict`` is set, in which case the first violation
    raises :class:`SchemaError`.  Duplicate publication ids always raise
    :class:`DuplicatePubId`, strict or not: a silently dropped duplicate
    could change every downstream count.

    Each line is decoded, then :func:`parse_record` checks its shapes and
    the :class:`Publication` constructor's invariants;
    :meth:`Corpus.from_publications` then indexes the accepted records
    in one pass.  The records are compact and share what they can: one
    cell per category set, one author name per raw name, and interned
    title words, author surnames and keys, source ids, subject categories
    and references, so equal values are one object across publications
    and index keys.  The name and cell caches that do the sharing are
    emptied when ingest returns or raises, so they keep nothing alive
    once the corpus is freed.

    The cyclic garbage collector is paused while ingest runs and restored
    to its state on entry, also when ingest raises: ingest builds only
    acyclic, immutable objects, which the collector would otherwise walk
    again and again.
    """
    pubs: dict[str, Publication] = {}
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
                pub = parse_record(decode_json_line(line, line_no), line_no)
            except SchemaError as exc:
                if strict:
                    raise
                rejected.append(RejectedLine(exc.line_no, exc.reason))
                continue
            if pub.pub_id in pubs:
                raise DuplicatePubId(pub.pub_id)
            pubs[pub.pub_id] = pub
        report = IngestReport(
            total_lines=total, accepted=len(pubs), rejected=tuple(rejected)
        )
        return Corpus.from_publications(pubs.values(), ingest_report=report)
    finally:
        AuthorName.from_raw.cache_clear()
        _cell.cache_clear()
        if collecting:
            gc.enable()
