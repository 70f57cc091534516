"""Bibliographic data model, JSON-lines ingestion, and inverted indexes.

A corpus is a set of publication records, each carrying the four fields the
pipeline works with: a cell (the publication's combination of subject
categories), a title, an author list, and a list of cited reference ids.
Records arrive as JSON lines; :func:`ingest` parses them into immutable
:class:`Publication` objects and builds a :class:`Corpus` with per-field
inverted indexes for fast lookup.
"""

from __future__ import annotations

import gc
import json
import re
import sys
import unicodedata
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import DuplicatePubId, EmptyCategorySet, FileUnreadable, SchemaError

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")
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
    def from_label(cls, label: str) -> "DocType":
        """Map a raw label to a member, ignoring case and punctuation.

        Unrecognized labels map to ``OTHER`` rather than failing: document
        type never gates inclusion by default, so an exotic label must not
        reject an otherwise valid record.
        """
        folded = re.sub(r"[^a-z]", "", label.lower())
        return _DOC_TYPE_BY_FOLDED.get(folded, cls.OTHER)


_DOC_TYPE_BY_FOLDED = {
    re.sub(r"[^a-z]", "", member.value.lower()): member for member in DocType
}


@lru_cache(maxsize=65536)
def _fold_surname(surname: str) -> str:
    """Uppercase a surname and strip diacritics (NFKD fold)."""
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
    def from_raw(cls, surname: str, initials: str) -> "AuthorName":
        """Build from raw record values.

        Initials may carry periods or whitespace ("J.R. " and "JR" agree).
        Raises ``ValueError`` when the surname is empty or no alphabetic
        initial exists.
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

    @property
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

    @property
    def key(self) -> str:
        # categories never contain "|": enforced at parse time
        return "|".join(self.categories)

    def __str__(self) -> str:
        return self.key


def derive_cell(subject_categories: Iterable[str]) -> CellId:
    """Derive the cell id for a category set (order-insensitive)."""
    return CellId(tuple(subject_categories))


def tokenize_title(title: str, min_len: int = 1) -> frozenset[str]:
    """Tokenize a title into its set of distinct lowercase words.

    Splits on every non-alphanumeric character and drops tokens shorter
    than ``min_len``.  Set semantics: a word either occurs in the title
    or it does not; multiplicity never matters downstream.  Tokens are
    interned, so a word is one string object however many titles hold it.
    """
    tokens = _TOKEN_SPLIT.split(title.lower())
    return frozenset(sys.intern(t) for t in tokens if len(t) >= min_len)


def is_doi_like(reference: str) -> bool:
    """True when a reference string looks like a DOI (``10.NNNN/...``)."""
    return bool(_DOI_LIKE.match(reference.strip()))


@dataclass(frozen=True)
class Publication:
    """One immutable publication record.

    Construction canonicalizes collection fields (categories sorted and
    deduplicated, references deduplicated) and enforces the structural
    invariants every downstream stage relies on.
    """

    pub_id: str
    year: int
    doc_type: DocType
    source_id: str
    subject_categories: tuple[str, ...]
    title: str
    authors: tuple[AuthorName, ...]
    reprint_author: int | None
    references: frozenset[str]

    def __post_init__(self):
        if not self.pub_id:
            raise ValueError("publication id is empty")
        if not isinstance(self.year, int) or isinstance(self.year, bool):
            raise ValueError("year must be an integer")
        if not self.subject_categories:
            raise ValueError("subject category set is empty")
        cats = tuple(sorted(set(self.subject_categories)))
        object.__setattr__(self, "subject_categories", cats)
        object.__setattr__(self, "authors", tuple(self.authors))
        refs = frozenset(self.references)
        if self.pub_id in refs:
            raise ValueError("publication references itself")
        object.__setattr__(self, "references", refs)
        if self.reprint_author is not None:
            if not self.authors:
                raise ValueError("reprint author given but author list empty")
            if not 0 <= self.reprint_author < len(self.authors):
                raise ValueError(
                    f"reprint author index {self.reprint_author} out of range"
                )

    @cached_property
    def cell(self) -> CellId:
        return derive_cell(self.subject_categories)

    @cached_property
    def title_tokens(self) -> frozenset[str]:
        """All tokens of length >= 1; length filters apply at selection."""
        return tokenize_title(self.title, min_len=1)

    @cached_property
    def author_keys(self) -> frozenset[str]:
        """Distinct author keys; a pub counts once per author identity."""
        return frozenset(a.key for a in self.authors)

    @property
    def reprint_author_key(self) -> str | None:
        if self.reprint_author is None:
            return None
        return self.authors[self.reprint_author].key

    @cached_property
    def doi_references(self) -> frozenset[str]:
        return frozenset(r for r in self.references if is_doi_like(r))


@dataclass(frozen=True)
class IngestOptions:
    """Knobs for :func:`ingest`.

    strict
        When true, the first malformed line raises :class:`SchemaError`;
        when false (default) malformed lines are skipped and reported in
        :attr:`Corpus.ingest_report`.
    """

    strict: bool = False


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
        text = surname + initials
        if not text.isascii() and _SURROGATE.search(text):
            raise SchemaError(line_no, f"author {i} holds a lone surrogate")
        try:
            out.append(AuthorName.from_raw(surname, initials))
        except ValueError as exc:
            raise SchemaError(line_no, f"author {i}: {exc}") from exc
    return tuple(out)


def _parse_str_list(raw, line_no: int, key: str) -> list[str]:
    """The strings of ``raw``, interned; ``str`` subclasses are copied first."""
    if not isinstance(raw, list) or any(not isinstance(v, str) for v in raw):
        raise SchemaError(line_no, f"'{key}' must be a list of strings")
    text = "".join(raw)
    if not text.isascii() and _SURROGATE.search(text):
        raise SchemaError(line_no, f"'{key}' holds a lone surrogate")
    return [sys.intern(v if type(v) is str else str.__str__(v)) for v in raw]


_REQUIRED_KEYS = (
    "id", "year", "doc_type", "source_id",
    "subject_categories", "title", "authors", "reprint_author", "references",
)


def parse_record(obj: dict, line_no: int = 0) -> Publication:
    """Validate one decoded JSON object and build a :class:`Publication`.

    Unknown keys are ignored.  Violations raise :class:`SchemaError`
    carrying ``line_no``.
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
    if not isinstance(year, int) or isinstance(year, bool):
        raise SchemaError(line_no, "'year' must be an integer")
    for key in ("id", "doc_type", "source_id", "title"):
        text = obj[key]
        if not isinstance(text, str):
            raise SchemaError(line_no, f"'{key}' must be a string")
        if not text.isascii() and _SURROGATE.search(text):
            raise SchemaError(line_no, f"'{key}' holds a lone surrogate")

    categories = _parse_str_list(obj["subject_categories"], line_no,
                                 "subject_categories")
    if not categories or any(not c for c in categories):
        raise SchemaError(line_no, "'subject_categories' must be non-empty strings")
    if any("|" in c for c in categories):
        raise SchemaError(line_no, "subject category contains '|'")

    authors = _parse_authors(obj["authors"], line_no)

    reprint = obj["reprint_author"]
    if reprint is not None and (isinstance(reprint, bool)
                                or not isinstance(reprint, int)):
        raise SchemaError(line_no, "'reprint_author' must be an integer or null")

    references = _parse_str_list(obj["references"], line_no, "references")
    if any(not r for r in references):
        raise SchemaError(line_no, "'references' contains an empty string")

    try:
        return Publication(
            pub_id=pub_id,
            year=year,
            doc_type=DocType.from_label(obj["doc_type"]),
            source_id=obj["source_id"],
            subject_categories=tuple(categories),
            title=obj["title"],
            authors=authors,
            reprint_author=reprint,
            references=frozenset(references),
        )
    except ValueError as exc:
        raise SchemaError(line_no, str(exc)) from exc


# Each inverted index of a Corpus: its attribute, a publication's values
_INDEXED_VALUES = {
    "by_cell": lambda pub: (pub.cell.key,),
    "by_title_word": lambda pub: pub.title_tokens,
    "by_author_key": lambda pub: pub.author_keys,
    "by_reprint_author_key": lambda pub: (
        () if pub.reprint_author is None else (pub.reprint_author_key,)),
    "by_reference": lambda pub: pub.references,
    "by_year": lambda pub: (pub.year,),
}


@dataclass(frozen=True)
class Corpus:
    """An immutable publication collection with per-field inverted indexes.

    Every index maps a field value to the frozenset of publication ids
    carrying it; ids round-trip, i.e. ``pid in by_cell[corpus.publications
    [pid].cell.key]`` for every publication.
    """

    publications: Mapping[str, Publication]
    by_cell: Mapping[str, frozenset[str]]
    by_title_word: Mapping[str, frozenset[str]]
    by_author_key: Mapping[str, frozenset[str]]
    by_reprint_author_key: Mapping[str, frozenset[str]]
    by_reference: Mapping[str, frozenset[str]]
    by_year: Mapping[int, frozenset[str]]
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

    @classmethod
    def from_publications(
        cls,
        publications: Iterable[Publication],
        ingest_report: IngestReport | None = None,
    ) -> "Corpus":
        """Index a publication stream.  Raises :class:`DuplicatePubId`.

        Postings are gathered in lists (each field value of a publication
        is distinct, so no list repeats an id), one index at a time, and
        each becomes a frozenset once, its list freed as it goes.
        """
        pubs: dict[str, Publication] = {}
        for pub in publications:
            if pub.pub_id in pubs:
                raise DuplicatePubId(pub.pub_id)
            pubs[pub.pub_id] = pub
        indexes = {}
        for name, values in _INDEXED_VALUES.items():
            lists = defaultdict(list)
            for pid, pub in pubs.items():
                for value in values(pub):
                    lists[value].append(pid)
            indexes[name] = {k: frozenset(lists.pop(k)) for k in list(lists)}
        return cls(publications=pubs, ingest_report=ingest_report, **indexes)


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


def ingest(path: str | Path, options: IngestOptions | None = None) -> Corpus:
    """Parse a JSON-lines corpus file into an indexed :class:`Corpus`.

    Blank lines are skipped.  Malformed lines (undecodable JSON or schema
    violations) are skipped and reported via ``corpus.ingest_report``
    unless ``options.strict`` is set, in which case the first violation
    raises :class:`SchemaError`.  Duplicate publication ids always raise
    :class:`DuplicatePubId`, strict or not: a silently dropped duplicate
    could change every downstream count.

    The cyclic garbage collector is paused while ingest runs and restored
    to its state on entry, also when ingest raises: ingest builds only
    acyclic, immutable objects, which the collector would otherwise walk
    again and again.  Title words, author surnames and keys, subject
    categories and references are interned, so equal values share one
    string object across publications and index keys.
    """
    options = options or IngestOptions()
    pubs: list[Publication] = []
    rejected: list[RejectedLine] = []
    total = 0
    seen: set[str] = set()
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
                if options.strict:
                    raise
                rejected.append(RejectedLine(exc.line_no, exc.reason))
                continue
            if pub.pub_id in seen:
                raise DuplicatePubId(pub.pub_id)
            seen.add(pub.pub_id)
            pubs.append(pub)
        report = IngestReport(
            total_lines=total, accepted=len(pubs), rejected=tuple(rejected)
        )
        return Corpus.from_publications(pubs, ingest_report=report)
    finally:
        if collecting:
            gc.enable()
