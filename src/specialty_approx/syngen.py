"""Synthetic corpus generator with known specialty membership.

Generates publication records whose field distributions mimic real
bibliometric regularities, so the pipeline can be validated against a
ground truth that real corpora never provide:

* cells follow a truncated geometric decay (a few cells hold most of a
  specialty, Bradford-style);
* title words are Zipf draws from a per-specialty vocabulary;
* author productivity follows a discrete power law (Lotka-style), realized
  by dealing a shuffled deck of author slots onto publications;
* reference popularity is power-law skewed over a per-specialty target
  pool mixing internal publication ids (resolvable, so seed extension
  works) and external DOI-form ids (so DOI-only filtering is meaningful).

``cross_contamination`` is the per-field probability that a publication
draws that one field from another specialty's pools, which blurs the
boundary the pipeline must recover.  Everything is deterministic for a
given ``rng_seed``.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import re
import zlib
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .approx import SpecialtyApproximation, window_rows
from .corpus import Corpus, decode_json_line, ids_of_rows, read_lines
from .errors import FileUnreadable, InvalidConfig, LabelMismatch, SchemaError

if TYPE_CHECKING:
    # imported inside the generator functions: commands that only read a
    # corpus never load numpy
    import numpy as np

logger = logging.getLogger(__name__)

# short connector words sprinkled into titles; all shorter than the
# default key-word length floor, so they never become key candidates
STOP_WORDS = ("of", "in", "and", "for", "with", "from", "on", "the")

LOTKA_MAX_PRODUCTIVITY = 50

# The most items one config may ask for; see GeneratorConfig.
GENERATOR_ITEM_BUDGET = 50_000_000

_LABEL_RE = re.compile(r"^[a-z][a-z0-9]*$")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidConfig(message)


@dataclass(frozen=True)
class SpecialtyParams:
    """Shape of one synthetic specialty.

    ``cell_concentration`` is the geometric decay rate of cell weights
    (larger means more concentrated).  ``internal_reference_fraction``
    controls how much of the reference target pool consists of the
    specialty's own publication ids versus external DOI-form ids.
    """

    label: str
    n_publications: int = 2000
    n_core_cells: int = 12
    cell_concentration: float = 0.55
    vocab_size: int = 1500
    zipf_exponent: float = 1.05
    n_authors: int = 2500
    lotka_exponent: float = 2.0
    n_reference_targets: int = 2500
    reference_skew_exponent: float = 1.1
    title_length: tuple[int, int] = (6, 12)
    refs_per_pub: tuple[int, int] = (8, 25)
    authors_per_pub: tuple[int, int] = (1, 6)
    reprint_author_rule: str = "first"
    year_range: tuple[int, int] = (2008, 2012)
    internal_reference_fraction: float = 0.5

    def __post_init__(self):
        _require(bool(_LABEL_RE.match(self.label)),
                 f"label must be lowercase alphanumeric, got {self.label!r}")
        for name, low in (("n_publications", 1), ("n_core_cells", 1),
                          ("vocab_size", 10), ("n_authors", 1),
                          ("n_reference_targets", 1)):
            n = getattr(self, name)
            _require(type(n) is int and low <= n < 2**63,
                     f"{name} must be an int in [{low}, 2**63), got {n!r}")
        _require(0 < self.cell_concentration < 1,
                 "cell_concentration must lie in (0, 1)")
        _require(self.zipf_exponent > 0, "zipf_exponent must be positive")
        _require(self.lotka_exponent > 0, "lotka_exponent must be positive")
        _require(self.reference_skew_exponent >= 0,
                 "reference_skew_exponent must be >= 0")
        for name in ("title_length", "refs_per_pub", "authors_per_pub",
                     "year_range"):
            pair = getattr(self, name)
            _require(isinstance(pair, (tuple, list)) and len(pair) == 2,
                     f"{name} must be a (low, high) pair")
            object.__setattr__(self, name, (int(pair[0]), int(pair[1])))
            lo, hi = getattr(self, name)
            _require(lo <= hi, f"{name}: low {lo} exceeds high {hi}")
            # numpy draws from the pair as int64
            _require(-2**63 <= lo and hi < 2**63,
                     f"{name} must lie within int64, got {(lo, hi)}")
        _require(self.title_length[0] >= 1, "title_length low must be >= 1")
        _require(self.refs_per_pub[0] >= 0, "refs_per_pub low must be >= 0")
        _require(self.authors_per_pub[0] >= 0,
                 "authors_per_pub low must be >= 0")
        _require(self.reprint_author_rule in ("first", "last", "random", "none"),
                 f"unknown reprint_author_rule {self.reprint_author_rule!r}")
        _require(0 <= self.internal_reference_fraction <= 1,
                 "internal_reference_fraction must lie in [0, 1]")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for name in ("title_length", "refs_per_pub", "authors_per_pub",
                     "year_range"):
            out[name] = list(out[name])
        return out

    @property
    def items(self) -> int:
        """The most items generating this specialty draws or builds: per
        publication the upper bounds of its title words, reference draws
        (twice the references plus 8) and authors, plus the pools."""
        per_publication = (self.title_length[1] + 2 * self.refs_per_pub[1]
                           + 8 + self.authors_per_pub[1])
        return (self.n_publications * per_publication + self.n_core_cells
                + self.vocab_size + LOTKA_MAX_PRODUCTIVITY * self.n_authors
                + self.n_reference_targets)


@dataclass(frozen=True)
class GeneratorConfig:
    """One generation run: seed, specialties, field contamination rate.

    A config may ask for at most :data:`GENERATOR_ITEM_BUDGET` items over
    all its specialties (:attr:`SpecialtyParams.items`), checked before
    anything is drawn: the 100k-publication benchmark corpus asks for
    about 10.6 M.
    """

    rng_seed: int
    specialties: tuple[SpecialtyParams, ...]
    cross_contamination: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "specialties", tuple(self.specialties))
        _require(self.rng_seed >= 0,
                 f"rng_seed must be >= 0, got {self.rng_seed}")
        _require(len(self.specialties) >= 1, "at least one specialty required")
        labels = [sp.label for sp in self.specialties]
        _require(len(set(labels)) == len(labels),
                 f"specialty labels must be unique, got {labels}")
        _require(0 <= self.cross_contamination <= 1,
                 "cross_contamination must lie in [0, 1]")
        items = sum(sp.items for sp in self.specialties)
        _require(items <= GENERATOR_ITEM_BUDGET,
                 f"config asks for {items} items, over the budget of "
                 f"{GENERATOR_ITEM_BUDGET}")

    def to_dict(self) -> dict:
        return {
            "rng_seed": self.rng_seed,
            "cross_contamination": self.cross_contamination,
            "specialties": [sp.to_dict() for sp in self.specialties],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "GeneratorConfig":
        try:
            specialties = tuple(
                SpecialtyParams(**sp) for sp in data["specialties"]
            )
            return cls(
                rng_seed=int(data["rng_seed"]),
                specialties=specialties,
                cross_contamination=float(data.get("cross_contamination", 0.0)),
            )
        except InvalidConfig:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidConfig(f"bad generator config: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "GeneratorConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise FileUnreadable(f"cannot read {path}: {exc}") from exc
        try:
            data = decode_json_line(text, 1)
        except SchemaError as exc:
            raise SchemaError(exc.line_no, f"{path}: {exc.reason}") from exc
        try:
            return cls.from_dict(data)
        except InvalidConfig as exc:
            raise FileUnreadable(f"{path} holds no usable generator config: "
                                 f"{exc.__cause__ or exc!r}") from exc


@dataclass(frozen=True)
class GroundTruth:
    """Specialty membership written alongside a generated corpus.

    ``labels`` maps publication id to specialty label; each label's ids
    are grouped once, on first use.
    """

    labels: Mapping[str, str]

    def specialty_of(self, pub_id: str) -> str | None:
        return self.labels.get(pub_id)

    def ids_for(self, label: str) -> frozenset[str]:
        return self._ids_by_label.get(label, frozenset())

    @cached_property
    def _ids_by_label(self) -> dict[str, frozenset[str]]:
        grouped = defaultdict(list)
        for pid, label in self.labels.items():
            grouped[label].append(pid)
        return {label: frozenset(ids) for label, ids in grouped.items()}

    def write_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            for pid in sorted(self.labels):
                handle.write(json.dumps(
                    {"id": pid, "specialty": self.labels[pid]},
                    sort_keys=True,
                ))
                handle.write("\n")

    @classmethod
    def read_jsonl(cls, path: str | Path) -> "GroundTruth":
        """Read labels written by :meth:`write_jsonl`.

        Raises :class:`SchemaError` for a line that is not a JSON object
        with string ``id`` and ``specialty``.
        """
        labels: dict[str, str] = {}
        for line_no, line in enumerate(read_lines(path), start=1):
            if not line.strip():
                continue
            try:
                obj = decode_json_line(line, line_no)
            except SchemaError as exc:
                raise SchemaError(line_no, f"{path}: {exc.reason}") from exc
            if not (isinstance(obj, dict) and isinstance(obj.get("id"), str)
                    and isinstance(obj.get("specialty"), str)):
                raise SchemaError(line_no, f"{path}: not a label record "
                                           "(needs string 'id' and 'specialty')")
            labels[obj["id"]] = obj["specialty"]
        return cls(labels=labels)


class _Pools:
    """Pre-drawn value pools of one specialty (popularity-rank order)."""

    def __init__(self, sp: SpecialtyParams, rng: np.random.Generator):
        import numpy as np

        self.params = sp
        label, upper = sp.label, sp.label.upper()

        self.pub_ids = [f"{label}p{k:06d}" for k in range(sp.n_publications)]

        # cells: every third one sits under a shared umbrella category,
        # so combination sizes vary
        self.cell_categories: list[tuple[str, ...]] = []
        for j in range(sp.n_core_cells):
            cats = (f"{upper}C{j:02d}",)
            if j % 3 == 2:
                cats = (f"{upper}GEN",) + cats
            self.cell_categories.append(cats)
        decay = 1.0 - sp.cell_concentration
        w = sp.cell_concentration * decay ** np.arange(sp.n_core_cells)
        self.cell_weights = w / w.sum()
        self.sources = [
            [f"{label}src{j:02d}{m}" for m in range(3)]
            for j in range(sp.n_core_cells)
        ]

        self.vocab = [f"{label}term{k:04d}" for k in range(sp.vocab_size)]
        ranks = np.arange(1, sp.vocab_size + 1, dtype=float)
        zw = ranks ** -sp.zipf_exponent
        self.zipf_weights = zw / zw.sum()

        self.author_keys = [
            f"{upper}A{j:04d} {chr(ord('A') + j % 26)}"
            for j in range(sp.n_authors)
        ]
        self.author_surnames = [k.rpartition(" ")[0] for k in self.author_keys]
        self.author_initials = [k.rpartition(" ")[2] for k in self.author_keys]
        lot_n = np.arange(1, LOTKA_MAX_PRODUCTIVITY + 1, dtype=float)
        lot_w = lot_n ** -sp.lotka_exponent
        lot_w /= lot_w.sum()
        targets = rng.choice(lot_n.astype(int), size=sp.n_authors, p=lot_w)
        slots = np.repeat(np.arange(sp.n_authors), targets)
        rng.shuffle(slots)
        self.author_slots = slots

        n_internal = min(
            sp.n_publications,
            round(sp.n_reference_targets * sp.internal_reference_fraction),
        )
        internal = rng.choice(sp.n_publications, size=n_internal, replace=False)
        registrant = 5000 + zlib.crc32(label.encode("utf-8")) % 1000
        external = [
            f"10.{registrant}/{label}t{k:05d}"
            for k in range(sp.n_reference_targets - n_internal)
        ]
        pool = [self.pub_ids[i] for i in internal] + external
        order = rng.permutation(len(pool))
        self.ref_pool = [pool[i] for i in order]
        rr = np.arange(1, len(self.ref_pool) + 1, dtype=float)
        rw = rr ** -sp.reference_skew_exponent
        self.ref_weights = rw / rw.sum()


def _draw_grouped(
    rng: np.random.Generator,
    group_of_pub: np.ndarray,
    sizes: np.ndarray,
    pools: Sequence[_Pools],
    weights_attr: str,
) -> list[np.ndarray]:
    """Per publication, draw ``sizes[i]`` weighted indices from its group's pool.

    Draw order is fixed (groups ascending, publications ascending within
    a group), so output is deterministic for a given generator state.
    """
    import numpy as np

    out: list[np.ndarray | None] = [None] * len(group_of_pub)
    for g in sorted(set(group_of_pub.tolist())):
        idx = np.flatnonzero(group_of_pub == g)
        total = int(sizes[idx].sum())
        weights = getattr(pools[g], weights_attr)
        draws = rng.choice(len(weights), size=total, p=weights)
        offsets = np.cumsum(sizes[idx])[:-1]
        for i, chunk in zip(idx, np.split(draws, offsets)):
            out[i] = chunk
    return out  # type: ignore[return-value]


def _contamination_groups(
    rng: np.random.Generator,
    own: int,
    n_pubs: int,
    n_specialties: int,
    rate: float,
) -> np.ndarray:
    """Group index per publication for one field: own or a partner."""
    import numpy as np

    groups = np.full(n_pubs, own)
    mask = rng.random(n_pubs) < rate
    if n_specialties > 1:
        raw = rng.integers(0, n_specialties - 1, size=n_pubs)
        partners = raw + (raw >= own)
        groups[mask] = partners[mask]
    return groups


def _deal_authors(
    pool: _Pools,
    k: int,
    cursor: list[int],
    carry: list[int],
) -> list[int]:
    """Deal ``k`` distinct author indices from the shuffled slot deck.

    Duplicates within one publication are deferred to the next one, so
    overall productivity targets survive.  When the deck runs dry the
    deal wraps around (slight count inflation, documented behavior).
    """
    slots = pool.author_slots
    chosen: list[int] = []
    seen: set[int] = set()
    deferred: list[int] = []
    guard = 0
    while len(chosen) < k:
        if carry:
            cand = carry.pop(0)
        else:
            if cursor[0] >= len(slots):
                cursor[0] = 0  # wrap: deck exhausted mid-run
                guard += 1
                if guard > 2:
                    # degenerate deck (all remaining slots duplicate);
                    # fall back to sequential ids to stay total
                    for j in range(pool.params.n_authors):
                        if j not in seen:
                            chosen.append(j)
                            seen.add(j)
                            if len(chosen) == k:
                                break
                    break
            cand = int(slots[cursor[0]])
            cursor[0] += 1
        if cand in seen:
            deferred.append(cand)
        else:
            chosen.append(cand)
            seen.add(cand)
    carry.extend(deferred)
    return chosen


def build_records(
    config: GeneratorConfig,
) -> tuple[list[dict], GroundTruth]:
    """Generate all publication records in memory, plus their ground truth.

    Records are plain dicts in corpus line-format order; callers can
    serialize them or feed them to the parser directly.
    """
    import numpy as np

    rng = np.random.default_rng(config.rng_seed)
    pools = [_Pools(sp, rng) for sp in config.specialties]
    n_spec = len(config.specialties)
    rate = config.cross_contamination

    records: list[dict] = []
    labels: dict[str, str] = {}

    for i, sp in enumerate(config.specialties):
        own = pools[i]
        n = sp.n_publications
        y0, y1 = sp.year_range
        years = rng.integers(y0, y1 + 1, size=n)
        title_lens = rng.integers(sp.title_length[0],
                                  sp.title_length[1] + 1, size=n)
        ref_counts = rng.integers(sp.refs_per_pub[0],
                                  sp.refs_per_pub[1] + 1, size=n)
        auth_counts = rng.integers(sp.authors_per_pub[0],
                                   sp.authors_per_pub[1] + 1, size=n)

        cell_groups = _contamination_groups(rng, i, n, n_spec, rate)
        title_groups = _contamination_groups(rng, i, n, n_spec, rate)
        author_groups = _contamination_groups(rng, i, n, n_spec, rate)
        ref_groups = _contamination_groups(rng, i, n, n_spec, rate)

        cell_draws = _draw_grouped(rng, cell_groups, np.ones(n, dtype=int),
                                   pools, "cell_weights")
        source_picks = rng.integers(0, 3, size=n)
        title_draws = _draw_grouped(rng, title_groups, title_lens,
                                    pools, "zipf_weights")
        # headroom absorbs duplicate draws; leftovers are discarded
        ref_draws = _draw_grouped(rng, ref_groups, 2 * ref_counts + 8,
                                  pools, "ref_weights")
        reprint_u = rng.random(n)

        cursor = [0]
        carry: list[int] = []

        for p in range(n):
            pid = own.pub_ids[p]
            labels[pid] = sp.label

            cpool = pools[cell_groups[p]]
            cell_j = int(cell_draws[p][0])
            categories = list(cpool.cell_categories[cell_j])
            source = cpool.sources[cell_j][source_picks[p]]

            tpool = pools[title_groups[p]]
            words = [tpool.vocab[w] for w in title_draws[p]]
            title_parts: list[str] = []
            for w_i, word in enumerate(words):
                title_parts.append(word)
                if w_i % 3 == 2:  # connector noise for the tokenizer to drop
                    title_parts.append(STOP_WORDS[(p + w_i) % len(STOP_WORDS)])
            title = " ".join(title_parts)

            apool = pools[author_groups[p]]
            k = int(auth_counts[p])
            if author_groups[p] == i:
                author_idx = _deal_authors(own, k, cursor, carry)
            else:
                k_eff = min(k, apool.params.n_authors)
                author_idx = [
                    int(j) for j in
                    rng.choice(apool.params.n_authors, size=k_eff,
                               replace=False)
                ]
            authors = [
                {"surname": apool.author_surnames[j],
                 "initials": apool.author_initials[j]}
                for j in author_idx
            ]
            if not authors or sp.reprint_author_rule == "none":
                reprint = None
            elif sp.reprint_author_rule == "first":
                reprint = 0
            elif sp.reprint_author_rule == "last":
                reprint = len(authors) - 1
            else:
                reprint = int(reprint_u[p] * len(authors))

            rpool = pools[ref_groups[p]]
            want = int(ref_counts[p])
            refs: list[str] = []
            seen_refs: set[str] = set()
            for r in ref_draws[p]:
                ref = rpool.ref_pool[int(r)]
                if ref == pid or ref in seen_refs:
                    continue
                refs.append(ref)
                seen_refs.add(ref)
                if len(refs) == want:
                    break

            records.append({
                "id": pid,
                "year": int(years[p]),
                "doc_type": "Article",
                "source_id": source,
                "subject_categories": categories,
                "title": title,
                "authors": authors,
                "reprint_author": reprint,
                "references": sorted(refs),
            })

    return records, GroundTruth(labels=labels)


def write_corpus(records: Iterable[Mapping], path: str | Path) -> None:
    """Write publication records as a JSON-lines corpus (sorted keys)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")


def generate(
    config: GeneratorConfig,
    corpus_path: str | Path,
    truth_path: str | Path | None = None,
) -> GroundTruth:
    """Generate a corpus file (JSON lines) plus its ground-truth sidecar.

    Byte-deterministic for a given config.  Returns the ground truth,
    which is also written to ``truth_path`` when given.
    """
    records, truth = build_records(config)
    write_corpus(records, corpus_path)
    if truth_path is not None:
        truth.write_jsonl(truth_path)
    return truth


def evaluate_recovery(
    approximation: SpecialtyApproximation,
    ground_truth: GroundTruth,
    target_specialty: str,
    corpus: Corpus,
) -> tuple[float, float]:
    """Precision and recall of an approximation against ground truth.

    Precision: share of members that belong to the target specialty.
    Recall: share of the target specialty's in-window publications that
    are members.  Every member and every label must resolve
    (:class:`LabelMismatch` otherwise, naming the first offending id in
    sorted order); an empty approximation scores (0.0, 0.0) with a
    logged warning.
    """
    target_ids = ground_truth.ids_for(target_specialty)
    if not target_ids:
        raise LabelMismatch(
            f"no publication labeled {target_specialty!r} in ground truth"
        )
    members = approximation.member_set
    unlabeled = members.difference(ground_truth.labels)
    if unlabeled:
        raise LabelMismatch(
            f"{len(unlabeled)} member(s) missing from ground truth, "
            f"first: {min(unlabeled)!r}"
        )
    absent = target_ids.difference(corpus.rows)
    if absent:
        raise LabelMismatch(f"labeled id {min(absent)!r} not in corpus")

    if not members:
        logger.warning("empty approximation: precision and recall are 0")
        return 0.0, 0.0
    in_window = ids_of_rows(window_rows(corpus, approximation.window),
                            corpus.row_ids)
    n_target = len(target_ids.intersection(in_window))
    true_hits = len(members & target_ids)
    precision = true_hits / len(members)
    recall = (true_hits / n_target) if n_target else 0.0
    return precision, recall
