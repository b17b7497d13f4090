"""Pluggable execution backends.

The paper's EX metric is defined against SQLite; this module opens that
seam.  An :class:`ExecutionBackend` knows how to materialise a database
from a schema + rows recipe, which SQL dialect it speaks
(:class:`~repro.sql.dialect.DialectProfile`), and how its failures
classify (transient vs deterministic).  Three families ship in-tree:

* :class:`SqliteBackend` — the reference implementation, unchanged
  semantics from the original ``sqlite_backend`` module.
* :class:`EmulatedBackend` — Postgres/MySQL/T-SQL *profile* emulation:
  incoming SQL is transpiled from the profile's flavor to the reference
  grammar and executed on SQLite.  This captures the dialect semantics
  that flip query correctness (quoting, ``TOP``, function spellings,
  concat style) without requiring the engines themselves.
* :class:`DuckDBBackend` — executes natively on DuckDB when the optional
  ``duckdb`` package is importable; otherwise :meth:`available` is False
  and :meth:`create` raises a friendly :class:`ExecutionError`.

``DatabasePool`` takes a backend (default SQLite) and folds
``fingerprint_token()`` into every per-database content digest, so
``ArtifactCache`` and ``RunJournal`` namespaces stay disjoint per
backend.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..errors import DialectError, ExecutionError
from ..schema.model import DatabaseSchema
from ..sql.dialect import DialectProfile, get_dialect, reference_dialect
from ..sql.transpile import normalize_to_reference
from .sqlite_backend import MAX_ROWS, Database, ExecuteMetrics, ResultRows

try:  # pragma: no cover - exercised only where duckdb is installed
    import duckdb  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover
    duckdb = None

#: Cap on memoised transpilations per database instance.
_TRANSPILE_MEMO_LIMIT = 1024


class ExecutionBackend(ABC):
    """How to build and talk to databases of one flavor.

    Attributes:
        name: registry key, e.g. ``"postgres"``; also the namespace token
            folded into cache/journal fingerprints.
        profile: the SQL dialect this backend's databases expect.
        max_rows: row cap applied by ``execute``.
    """

    name: str
    profile: DialectProfile
    max_rows: int = MAX_ROWS

    def available(self) -> bool:
        """Whether this backend can execute in the current environment."""
        return True

    @abstractmethod
    def create(
        self,
        schema: DatabaseSchema,
        rows: Dict[str, List[dict]],
        path: Optional[Union[str, Path]] = None,
    ) -> Database:
        """Materialise one database from a schema + rows recipe."""

    def fingerprint_token(self) -> str:
        """Stable token namespacing cache/journal keys per backend."""
        return f"backend:{self.name}"

    def is_transient(self, error: Exception) -> bool:
        """Whether a failure is plausibly temporary (retry could succeed)."""
        return bool(getattr(error, "transient", False))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class SqliteBackend(ExecutionBackend):
    """Reference backend: Spider-convention SQLite."""

    name = "sqlite"

    def __init__(self) -> None:
        self.profile = reference_dialect()

    def create(
        self,
        schema: DatabaseSchema,
        rows: Dict[str, List[dict]],
        path: Optional[Union[str, Path]] = None,
    ) -> Database:
        return Database.build(schema, rows, path)


class EmulatedDatabase(Database):
    """A SQLite database that accepts SQL in a non-reference dialect.

    ``execute`` transpiles the incoming text to the reference grammar
    first (memoised per instance — repeated queries pay the parse cost
    once), then delegates to the reference execution path with all its
    defensive limits intact.
    """

    def __init__(self, connection, db_id: str):
        super().__init__(connection, db_id)
        #: Set by the owning backend right after build().
        self.profile: DialectProfile = reference_dialect()
        self._transpile_memo: Dict[str, str] = {}

    def execute(self, sql: str, max_rows: int = MAX_ROWS) -> ResultRows:
        return Database.execute(self, self._to_reference(sql), max_rows)

    def _to_reference(self, sql: str) -> str:
        cached = self._transpile_memo.get(sql)
        if cached is not None:
            return cached
        start = time.perf_counter()
        text = normalize_to_reference(sql, self.profile)
        # Read the clock before recording: the import and the label
        # canonicalisation below are not transpilation.
        elapsed = time.perf_counter() - start
        if self.metrics is not None:
            from ..obs.metrics import M_SQL_TRANSPILE

            self.metrics.counter_add(
                M_SQL_TRANSPILE, elapsed, {"dialect": self.profile.name}
            )
        if len(self._transpile_memo) < _TRANSPILE_MEMO_LIMIT:
            self._transpile_memo[sql] = text
        return text


class EmulatedBackend(ExecutionBackend):
    """Dialect-profile emulation over the reference SQLite engine."""

    def __init__(self, profile: Union[str, DialectProfile]):
        self.profile = (
            profile
            if isinstance(profile, DialectProfile)
            else get_dialect(profile)
        )
        self.name = self.profile.name

    def create(
        self,
        schema: DatabaseSchema,
        rows: Dict[str, List[dict]],
        path: Optional[Union[str, Path]] = None,
    ) -> Database:
        database = EmulatedDatabase.build(schema, rows, path)
        database.profile = self.profile
        return database


class DuckDBDatabase(ExecuteMetrics):
    """One in-memory DuckDB database; mirrors the ``Database`` contract
    (SELECT whitelist, row cap, transient-error classification)."""

    def __init__(self, connection, db_id: str):
        self._conn = connection
        self.db_id = db_id
        self._closed = False
        self.metrics = None

    @classmethod
    def build(
        cls,
        schema: DatabaseSchema,
        rows: Dict[str, List[dict]],
        path: Optional[Union[str, Path]] = None,
    ) -> "DuckDBDatabase":
        if duckdb is None:  # pragma: no cover - guarded by available()
            raise ExecutionError(
                "the duckdb package is not installed; "
                "install it or pick another backend"
            )
        target = str(path) if path is not None else ":memory:"
        conn = duckdb.connect(target)
        db = cls(conn, schema.db_id)
        try:
            db._load(schema, rows)
        except Exception as exc:
            conn.close()
            raise ExecutionError(
                f"failed to build {schema.db_id}: {exc}"
            ) from exc
        return db

    def _load(self, schema: DatabaseSchema, rows: Dict[str, List[dict]]) -> None:
        for table in schema.tables:
            columns = [
                f'"{column.name}" {column.sqlite_type()}'
                for column in table.columns
            ]
            ddl = f'CREATE TABLE "{table.name}" ({", ".join(columns)})'
            self._conn.execute(ddl)
        for table in schema.tables:
            table_rows = rows.get(table.name, [])
            if not table_rows:
                continue
            names = [c.name for c in table.columns]
            placeholders = ", ".join("?" for _ in names)
            quoted = ", ".join(f'"{n}"' for n in names)
            statement = (
                f'INSERT INTO "{table.name}" ({quoted}) '
                f"VALUES ({placeholders})"
            )
            values = [tuple(row.get(n) for n in names) for row in table_rows]
            self._conn.executemany(statement, values)

    def execute(self, sql: str, max_rows: int = MAX_ROWS) -> ResultRows:
        if self._closed:
            raise ExecutionError("database is closed")
        stripped = sql.lstrip().lower()
        if not (stripped.startswith("select") or stripped.startswith("with")):
            raise ExecutionError("only SELECT statements may be executed")
        start = time.perf_counter()
        try:
            cursor = self._conn.execute(sql)
            result = cursor.fetchmany(max_rows + 1)
        except Exception as exc:
            message = str(exc).lower()
            transient = any(
                fragment in message for fragment in ("lock", "busy", "i/o")
            )
            raise ExecutionError(
                f"execution failed: {exc}", transient=transient
            ) from exc
        finally:
            if self._execute_seconds is not None:
                self._execute_seconds.observe(time.perf_counter() - start)
        if len(result) > max_rows:
            raise ExecutionError(f"query returned more than {max_rows} rows")
        return [tuple(row) for row in result]

    def try_execute(self, sql: str) -> Optional[ResultRows]:
        try:
            return self.execute(sql)
        except ExecutionError:
            return None

    def table_rows(self, table: str) -> ResultRows:
        return self.execute(f'SELECT * FROM "{table}"')

    def close(self) -> None:
        if not self._closed:
            self._conn.close()
            self._closed = True

    def __enter__(self) -> "DuckDBDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class DuckDBBackend(ExecutionBackend):
    """Native DuckDB execution (optional dependency, skip-if-absent)."""

    name = "duckdb"

    def __init__(self) -> None:
        self.profile = get_dialect("duckdb")

    def available(self) -> bool:
        return duckdb is not None

    def create(
        self,
        schema: DatabaseSchema,
        rows: Dict[str, List[dict]],
        path: Optional[Union[str, Path]] = None,
    ) -> Database:
        if duckdb is None:
            raise ExecutionError(
                "the duckdb backend needs the optional 'duckdb' package; "
                "install it or pick another backend"
            )
        return DuckDBDatabase.build(schema, rows, path)  # type: ignore[return-value]


#: Backend factories by name.  Emulated profiles share one factory.
_BACKEND_FACTORIES = {
    "sqlite": SqliteBackend,
    "duckdb": DuckDBBackend,
    "postgres": lambda: EmulatedBackend("postgres"),
    "mysql": lambda: EmulatedBackend("mysql"),
    "tsql": lambda: EmulatedBackend("tsql"),
}


def backend_names() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_BACKEND_FACTORIES)


def get_backend(name: str) -> ExecutionBackend:
    """Instantiate a backend by name.

    Raises:
        DialectError: for unknown backend names.
    """
    try:
        factory = _BACKEND_FACTORIES[name]
    except KeyError:
        known = ", ".join(backend_names())
        raise DialectError(
            f"unknown execution backend {name!r} (known: {known})"
        ) from None
    return factory()


def resolve_backend(
    spec: Union[None, str, ExecutionBackend]
) -> ExecutionBackend:
    """Coerce a backend spec (None / name / instance) to an instance."""
    if spec is None:
        return SqliteBackend()
    if isinstance(spec, ExecutionBackend):
        return spec
    return get_backend(spec)
