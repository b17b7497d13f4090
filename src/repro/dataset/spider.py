"""Spider-format dataset model and JSON I/O.

Mirrors the on-disk layout of the Spider benchmark:

* ``tables.json`` — list of database schema entries;
* ``train.json`` / ``dev.json`` — lists of examples with ``db_id``,
  ``question`` and ``query`` fields;
* one SQLite database per ``db_id`` (handled by :mod:`repro.db`).

:class:`SpiderDataset` bundles examples with their schemas and caches the
derived artefacts every experiment needs (parsed ASTs, hardness buckets,
masked questions, skeletons).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import DatasetError
from ..schema.linker import SchemaLinker
from ..schema.model import (
    DatabaseSchema,
    schema_from_spider_entry,
    schema_to_spider_entry,
)
from ..sql.ast_nodes import Query
from ..sql.hardness import hardness
from ..sql.parser import try_parse
from ..sql.skeleton import sql_skeleton


@dataclass
class Example:
    """One Text-to-SQL example.

    Attributes:
        db_id: database this question targets.
        question: natural-language question.
        query: gold SQL.
        example_id: stable identifier within its dataset.
        hardness: Spider hardness bucket.  When left empty it is
            computed eagerly in ``__post_init__`` by parsing ``query``
            (``"extra"`` if the query does not parse); the corpus
            generator passes it in from the gold AST instead.

    Outside its fields an example keeps the gold AST when one is at
    hand: the parse ``__post_init__`` makes, or the AST the corpus
    generator unparsed ``query`` from (:meth:`keep_gold_ast`).  An
    evaluation seeds its parse scope with it, so the gold SQL is never
    tokenized per example.
    """

    db_id: str
    question: str
    query: str
    example_id: str = ""
    hardness: str = ""

    def __post_init__(self):
        self._gold: Optional[Tuple[str, Query]] = None
        if not self.hardness:
            parsed = try_parse(self.query)
            self.hardness = hardness(parsed) if parsed is not None else "extra"
            self.keep_gold_ast(parsed)

    def keep_gold_ast(self, ast: Optional[Query]) -> None:
        """Keep ``ast`` as the parse of :attr:`query`.

        The caller vouches that ``parse(query) == ast``: ``ast`` was
        parsed from ``query``, or ``query`` is ``unparse(ast)`` (every
        generated query round-trips).
        """
        self._gold = (self.query, ast) if ast is not None else None

    @property
    def gold_ast(self) -> Optional[Query]:
        """The kept parse of :attr:`query`, or ``None`` (none was kept,
        or ``query`` was reassigned since)."""
        gold = self._gold
        if gold is not None and gold[0] is self.query:
            return gold[1]
        return None

    def to_json(self) -> dict:
        return {
            "db_id": self.db_id,
            "question": self.question,
            "query": self.query,
            "example_id": self.example_id,
            "hardness": self.hardness,
        }

    @classmethod
    def from_json(cls, entry: dict) -> "Example":
        """An example from its JSON entry, keeping its gold AST: the
        query is parsed once, by ``__post_init__`` when the entry holds
        no hardness and here when it does."""
        try:
            example = cls(
                db_id=entry["db_id"],
                question=entry["question"],
                query=entry["query"],
                example_id=str(entry.get("example_id", "")),
                hardness=entry.get("hardness", ""),
            )
        except KeyError as exc:
            raise DatasetError(f"missing key in example entry: {exc}") from exc
        if entry.get("hardness"):
            example.keep_gold_ast(try_parse(example.query))
        return example


class SpiderDataset:
    """Examples plus the schemas they reference.

    The dataset owns per-database :class:`SchemaLinker` instances and caches
    masked questions and SQL skeletons, which the selection strategies query
    repeatedly.
    """

    def __init__(
        self,
        examples: Sequence[Example],
        schemas: Sequence[DatabaseSchema],
        name: str = "dataset",
    ):
        self.name = name
        self.examples: List[Example] = list(examples)
        self.schemas: Dict[str, DatabaseSchema] = {s.db_id: s for s in schemas}
        missing = {e.db_id for e in self.examples} - set(self.schemas)
        if missing:
            raise DatasetError(f"examples reference unknown databases: {sorted(missing)}")
        for idx, example in enumerate(self.examples):
            if not example.example_id:
                example.example_id = f"{name}-{idx}"
        self._linkers: Dict[str, SchemaLinker] = {}
        self._masked: Dict[str, str] = {}
        self._skeletons: Dict[str, str] = {}

    # -- access -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def __getitem__(self, index: int) -> Example:
        return self.examples[index]

    def schema(self, db_id: str) -> DatabaseSchema:
        """Schema for a database.

        Raises:
            DatasetError: for an unknown ``db_id``.
        """
        try:
            return self.schemas[db_id]
        except KeyError as exc:
            raise DatasetError(f"unknown db_id {db_id!r}") from exc

    def linker(self, db_id: str) -> SchemaLinker:
        """Cached :class:`SchemaLinker` for a database."""
        if db_id not in self._linkers:
            self._linkers[db_id] = SchemaLinker(self.schema(db_id))
        return self._linkers[db_id]

    def masked_question(self, example: Example) -> str:
        """Cached masked form of an example's question."""
        if example.example_id not in self._masked:
            linker = self.linker(example.db_id)
            self._masked[example.example_id] = linker.mask_question(example.question)
        return self._masked[example.example_id]

    def skeleton(self, example: Example) -> str:
        """Cached SQL skeleton of an example's gold query."""
        if example.example_id not in self._skeletons:
            self._skeletons[example.example_id] = sql_skeleton(example.query)
        return self._skeletons[example.example_id]

    def fingerprint(self) -> str:
        """Stable content digest of the dataset (examples + schemas).

        Feeds artifact-cache keys: two processes evaluating the same
        generated corpus produce the same fingerprint, while any change
        to a question, gold query or schema changes it.  Computed once
        and memoised (datasets are immutable after construction by
        convention).
        """
        if not hasattr(self, "_fingerprint"):
            from ..cache.keys import digest_texts

            def parts():
                for example in self.examples:
                    yield example.db_id
                    yield example.question
                    yield example.query
                for db_id in sorted(self.schemas):
                    yield json.dumps(
                        schema_to_spider_entry(self.schemas[db_id]),
                        sort_keys=True,
                    )

            self._fingerprint = digest_texts(parts())
        return self._fingerprint

    def db_ids(self) -> List[str]:
        return sorted(self.schemas)

    def by_hardness(self) -> Dict[str, List[Example]]:
        """Examples bucketed by hardness."""
        buckets: Dict[str, List[Example]] = {
            "easy": [], "medium": [], "hard": [], "extra": []
        }
        for example in self.examples:
            buckets.setdefault(example.hardness, []).append(example)
        return buckets

    def subset(self, indices: Iterable[int], name: Optional[str] = None) -> "SpiderDataset":
        """A new dataset holding the given example indices (schemas shared)."""
        chosen = [self.examples[i] for i in indices]
        return SpiderDataset(chosen, list(self.schemas.values()),
                             name=name or f"{self.name}-subset")

    def filter_dbs(self, db_ids: Iterable[str], name: Optional[str] = None) -> "SpiderDataset":
        """A new dataset restricted to the given databases."""
        wanted = set(db_ids)
        chosen = [e for e in self.examples if e.db_id in wanted]
        schemas = [s for s in self.schemas.values() if s.db_id in wanted]
        return SpiderDataset(chosen, schemas, name=name or f"{self.name}-filtered")

    def sample_stratified(self, n: int, seed: int = 0,
                          name: Optional[str] = None) -> "SpiderDataset":
        """A hardness-stratified sample of ``n`` examples.

        Keeps the hardness distribution of the full set (largest-remainder
        apportionment), sampling within each bucket deterministically.

        Raises:
            DatasetError: when ``n`` exceeds the dataset size.
        """
        from ..utils.rng import rng_from

        if n > len(self.examples):
            raise DatasetError(
                f"cannot sample {n} from {len(self.examples)} examples"
            )
        buckets = self.by_hardness()
        total = len(self.examples)
        quotas = {
            level: (n * len(members)) / total
            for level, members in buckets.items() if members
        }
        counts = {level: int(q) for level, q in quotas.items()}
        remainder = n - sum(counts.values())
        for level, _ in sorted(
            quotas.items(), key=lambda kv: kv[1] - int(kv[1]), reverse=True
        )[:remainder]:
            counts[level] += 1

        chosen: List[Example] = []
        for level, want in counts.items():
            members = list(buckets[level])
            rng = rng_from("stratified", self.name, level, str(seed))
            rng.shuffle(members)
            chosen.extend(members[:want])
        chosen.sort(key=lambda e: e.example_id)
        return SpiderDataset(chosen, list(self.schemas.values()),
                             name=name or f"{self.name}-sample{n}")

    # -- persistence ----------------------------------------------------------

    def save(self, directory: Union[str, Path]) -> None:
        """Write ``tables.json`` and ``<name>.json`` in Spider format."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        tables = [schema_to_spider_entry(s) for s in self.schemas.values()]
        (directory / "tables.json").write_text(json.dumps(tables, indent=1))
        examples = [e.to_json() for e in self.examples]
        (directory / f"{self.name}.json").write_text(json.dumps(examples, indent=1))

    @classmethod
    def load(cls, directory: Union[str, Path], name: str) -> "SpiderDataset":
        """Load ``<name>.json`` plus ``tables.json`` from a directory.

        Raises:
            DatasetError: if files are missing or malformed.
        """
        directory = Path(directory)
        tables_path = directory / "tables.json"
        examples_path = directory / f"{name}.json"
        if not tables_path.exists():
            raise DatasetError(f"missing {tables_path}")
        if not examples_path.exists():
            raise DatasetError(f"missing {examples_path}")
        try:
            table_entries = json.loads(tables_path.read_text())
            example_entries = json.loads(examples_path.read_text())
        except json.JSONDecodeError as exc:
            raise DatasetError(f"malformed JSON in {directory}: {exc}") from exc
        schemas = [schema_from_spider_entry(entry) for entry in table_entries]
        examples = [Example.from_json(entry) for entry in example_entries]
        return cls(examples, schemas, name=name)


def validate_dataset(dataset: SpiderDataset) -> List[str]:
    """Sanity-check a dataset; returns a list of human-readable problems.

    Checks that every gold query parses and references only tables/columns
    that exist in its schema.
    """
    problems: List[str] = []
    from ..sql.ast_nodes import TableRef, iter_column_refs, iter_subqueries
    from ..sql.canonical import resolve_aliases

    for example in dataset:
        parsed = try_parse(example.query)
        if parsed is None:
            problems.append(f"{example.example_id}: gold query does not parse")
            continue
        schema = dataset.schema(example.db_id)
        known = {t.name.lower() for t in schema.tables}

        def check_query(query, label):
            for _, core in query.flatten_set_ops():
                if core.from_clause is None:
                    continue
                for source in core.from_clause.sources():
                    if isinstance(source, TableRef) and source.name.lower() not in known:
                        problems.append(
                            f"{label}: unknown table {source.name}"
                        )

        check_query(parsed, example.example_id)
        for sub in iter_subqueries(parsed):
            check_query(sub, example.example_id)

        # Column references must resolve somewhere in the schema.  After
        # alias resolution, qualified refs name base tables directly;
        # unqualified refs may come from any table in scope.
        resolved = resolve_aliases(parsed)
        for ref in iter_column_refs(resolved):
            if ref.column == "*":
                continue
            if ref.table is not None:
                if schema.has_table(ref.table):
                    if not schema.table(ref.table).has_column(ref.column):
                        problems.append(
                            f"{example.example_id}: unknown column "
                            f"{ref.table}.{ref.column}"
                        )
            elif not schema.find_column(ref.column):
                problems.append(
                    f"{example.example_id}: unknown column {ref.column}"
                )
    return problems
