"""Corpus assembly: build the full synthetic Spider-format benchmark.

A :class:`Corpus` holds a cross-domain ``train`` split (in-context example
candidates and SFT data), a ``dev`` split (evaluation questions over unseen
databases), per-database rows, and a
:class:`~repro.db.sqlite_backend.DatabasePool` per execution backend for
execution-accuracy evaluation.

:func:`spider_realistic` derives the robustness variant of a dataset by
paraphrasing explicit column mentions out of the questions, mirroring the
Spider-Realistic benchmark used in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ...db.sqlite_backend import DatabasePool
from ...errors import DatasetError
from ...sql.hardness import hardness
from ..spider import Example, SpiderDataset
from .domains import DOMAINS, build_schema
from .populate import populate
from .questions import generate_examples


@dataclass
class CorpusConfig:
    """Knobs for corpus generation.

    Attributes:
        seed: master seed; every derived artefact is a pure function of it.
        train_per_db: question/SQL pairs generated per training database.
        dev_per_db: pairs per evaluation database.
        domains: restrict to these db_ids (default: the full catalogue).
    """

    seed: int = 0
    train_per_db: int = 30
    dev_per_db: int = 20
    domains: Optional[Sequence[str]] = None


class Corpus:
    """The generated benchmark: splits, rows, and databases."""

    def __init__(
        self,
        train: SpiderDataset,
        dev: SpiderDataset,
        rows: Dict[str, Dict[str, List[dict]]],
        config: CorpusConfig,
    ):
        self.train = train
        self.dev = dev
        self.rows = rows
        self.config = config
        #: backend name → materialised pool over the same recipes.
        self._pools: Dict[str, DatabasePool] = {}

    def pool(self, backend=None) -> DatabasePool:
        """Databases for every schema in the corpus.

        The SQLite pool is the one :func:`build_corpus` validated the
        dev gold queries on; another backend's is built on first use.

        Args:
            backend: optional execution-backend name or instance; each
                backend gets its own pool over the same schema/row
                recipes (default: the SQLite reference backend).
        """
        from ...db.backends import resolve_backend

        resolved = resolve_backend(backend)
        cached = self._pools.get(resolved.name)
        if cached is None:
            pool = DatabasePool(backend=resolved)
            for dataset in (self.train, self.dev):
                for schema in dataset.schemas.values():
                    if schema.db_id not in pool:
                        pool.add(schema, self.rows[schema.db_id])
            self._pools[resolved.name] = pool
            cached = pool
        return cached

    def close(self) -> None:
        for pool in self._pools.values():
            pool.close()
        self._pools.clear()

    def __enter__(self) -> "Corpus":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def build_corpus(config: Optional[CorpusConfig] = None) -> Corpus:
    """Generate the full synthetic benchmark from a config.

    Train and dev use disjoint domain groups, making the benchmark
    cross-domain exactly like Spider: no evaluation database is ever seen in
    the example pool.

    Each database is built once here to validate its gold queries.  The
    dev databases are those of the corpus's own pool, which
    :meth:`Corpus.pool` serves without building them again; a train
    database is closed after validation and its pool keeps only the
    recipe.

    Raises:
        DatasetError: if the domain restriction leaves a split empty.
    """
    config = config or CorpusConfig()
    pool = DatabasePool()
    try:
        corpus = _generate(config, pool)
    except BaseException:
        pool.close()
        raise
    corpus._pools[pool.backend_name] = pool
    return corpus


def _generate(config: CorpusConfig, pool: DatabasePool) -> Corpus:
    wanted = set(config.domains) if config.domains is not None else None

    train_examples: List[Example] = []
    dev_examples: List[Example] = []
    train_schemas = []
    dev_schemas = []
    rows: Dict[str, Dict[str, List[dict]]] = {}

    for spec in DOMAINS:
        if wanted is not None and spec.db_id not in wanted:
            continue
        schema = build_schema(spec)
        data = populate(spec, seed=config.seed)
        rows[spec.db_id] = data
        count = config.dev_per_db if spec.group == "dev" else config.train_per_db
        pool.register(schema, data)
        generated = generate_examples(
            schema, data, count, seed=config.seed,
            # A dev database stays open: runs execute the gold queries
            # this validation leaves in its statement cache.  A train
            # database is built for it and closed; no run queries one.
            database=pool.get(spec.db_id) if spec.group == "dev" else None,
        )
        # Hardness is read off the template's AST, so the corpus never
        # parses its own gold SQL; every generated query round-trips
        # (``parse(unparse(ast)) == ast``), so the bucket is the one a
        # parse of ``query`` would give.  A dev example also keeps the
        # AST as the parse of its gold SQL, which each evaluation of it
        # seeds its parse scope with.  The train pool is read only as
        # demonstrations; keeping its ASTs would cost about 1.6 MB of
        # peak RSS on the full corpus for no parse saved.
        examples = []
        for i, g in enumerate(generated):
            example = Example(
                db_id=spec.db_id,
                question=g.question,
                query=g.sql,
                example_id=f"{spec.db_id}-{i}",
                hardness=hardness(g.query),
            )
            if spec.group == "dev":
                example.keep_gold_ast(g.query)
            examples.append(example)
        if spec.group == "dev":
            dev_schemas.append(schema)
            dev_examples.extend(examples)
        else:
            train_schemas.append(schema)
            train_examples.extend(examples)

    if not train_examples or not dev_examples:
        raise DatasetError("domain restriction produced an empty split")

    train = SpiderDataset(train_examples, train_schemas, name="train")
    dev = SpiderDataset(dev_examples, dev_schemas, name="dev")
    return Corpus(train=train, dev=dev, rows=rows, config=config)


#: Column-word paraphrases used by the Spider-Realistic transform.  The
#: replacements deliberately avoid schema vocabulary so that explicit
#: column mentions disappear from the question (the gold SQL is unchanged).
REALISTIC_SYNONYMS: Dict[str, str] = {
    "name": "label",
    "title": "heading",
    "age": "years lived",
    "salary": "pay",
    "price": "cost",
    "capacity": "size limit",
    "population": "resident count",
    "budget": "funding",
    "rating": "score received",
    "weight": "heaviness",
    "distance": "span",
    "stars": "quality level",
    "balance": "funds held",
    "goals": "times scored",
    "pages": "length in sheets",
    "location": "place",
    "country": "nation",
    "city": "town",
    "year": "point in time",
    "date": "day",
    "grade": "mark",
    "credits": "units",
    "gpa": "academic standing",
    "stock": "units available",
    "quantity": "amount bought",
    "nights": "evenings stayed",
    "cost": "expense",
    "attendance": "crowd size",
    "members": "headcount",
    "seasons": "runs aired",
    "episodes": "installments",
    "elevation": "height above sea",
    "calories": "energy content",
    "hectares": "land extent",
}


def spider_realistic(dataset: SpiderDataset) -> SpiderDataset:
    """Derive the Spider-Realistic variant: remove explicit column mentions.

    Every word of a question that names a column (per the synonym map) is
    replaced by a paraphrase outside the schema vocabulary, so models must
    infer the column from context — the harder setting the paper evaluates
    for robustness.  Gold SQL is unchanged.
    """
    transformed = []
    for example in dataset:
        words = example.question.split()
        rewritten = []
        for word in words:
            stripped = word.strip('.,?!"').lower()
            replacement = REALISTIC_SYNONYMS.get(stripped)
            if replacement is not None:
                trailing = word[len(word.rstrip('.,?!"')):]
                rewritten.append(replacement + trailing)
            else:
                rewritten.append(word)
        paraphrased = Example(
            db_id=example.db_id,
            question=" ".join(rewritten),
            query=example.query,
            example_id=f"{example.example_id}-realistic",
            hardness=example.hardness,
        )
        paraphrased.keep_gold_ast(example.gold_ast)
        transformed.append(paraphrased)
    return SpiderDataset(
        transformed, list(dataset.schemas.values()),
        name=f"{dataset.name}-realistic",
    )
