"""SQLite execution backend.

Creates real SQLite databases from a schema plus rows, and executes queries
against them with defensive limits (statement whitelist, row cap, timeout).
Execution accuracy in the benchmark is computed on these databases, exactly
as the Spider evaluation executes against its ``database/*.sqlite`` files.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..cache.keys import digest_texts
from ..errors import ExecutionError
from ..schema.model import DatabaseSchema, schema_to_spider_entry

Row = Tuple
ResultRows = List[Row]

#: Hard cap on fetched rows; gold queries in the corpus stay far below this.
MAX_ROWS = 10_000

#: Per-query progress-handler budget (VM steps), a cheap timeout substitute.
MAX_VM_STEPS = 5_000_000


class ExecuteMetrics:
    """The ``metrics`` attribute of a database: an optional
    MetricsRegistry that execute() timings are observed into, as
    ``repro_db_execute_seconds{db}``.  Setting it binds that series
    once, so a query records its timing without building labels."""

    db_id: str

    @property
    def metrics(self):
        return self._metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        from ..obs.metrics import M_DB_EXECUTE

        self._metrics = registry
        self._execute_seconds = (
            registry.bind_histogram(M_DB_EXECUTE, {"db": self.db_id})
            if registry is not None else None
        )


class Database(ExecuteMetrics):
    """One SQLite database built from a schema and row data.

    Use as a context manager or call :meth:`close` explicitly::

        with Database.build(schema, rows) as db:
            result = db.execute("SELECT count(*) FROM singer")
    """

    def __init__(self, connection: sqlite3.Connection, db_id: str):
        self._conn = connection
        self.db_id = db_id
        self._closed = False
        self.metrics = None

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        schema: DatabaseSchema,
        rows: Dict[str, List[dict]],
        path: Optional[Union[str, Path]] = None,
    ) -> "Database":
        """Create a database (in memory by default) and load rows.

        Args:
            schema: the schema to create tables for.
            rows: mapping table name → list of row dicts.
            path: when given, the database is written to this file.

        Raises:
            ExecutionError: if DDL or inserts fail.
        """
        target = str(path) if path is not None else ":memory:"
        # check_same_thread=False lets the owning pool close worker-thread
        # connections at shutdown; each connection is still *used* by a
        # single thread only (DatabasePool hands out per-thread instances).
        conn = sqlite3.connect(target, check_same_thread=False)
        db = cls(conn, schema.db_id)
        try:
            db._create_tables(schema)
            db._insert_rows(schema, rows)
        except sqlite3.Error as exc:
            conn.close()
            raise ExecutionError(f"failed to build {schema.db_id}: {exc}") from exc
        return db

    @classmethod
    def open(cls, path: Union[str, Path], db_id: str = "") -> "Database":
        """Open an existing SQLite file read-only.

        Raises:
            ExecutionError: if the file cannot be opened.
        """
        path = Path(path)
        if not path.exists():
            raise ExecutionError(f"no such database file: {path}")
        try:
            conn = sqlite3.connect(
                f"file:{path}?mode=ro", uri=True, check_same_thread=False
            )
        except sqlite3.Error as exc:
            raise ExecutionError(f"cannot open {path}: {exc}") from exc
        return cls(conn, db_id or path.stem)

    def _create_tables(self, schema: DatabaseSchema) -> None:
        cursor = self._conn.cursor()
        for table in schema.tables:
            columns = []
            for column in table.columns:
                decl = f'"{column.name}" {column.sqlite_type()}'
                columns.append(decl)
            if table.primary_key:
                columns.append(f'PRIMARY KEY ("{table.primary_key}")')
            for fk in schema.foreign_keys:
                if fk.table.lower() == table.name.lower():
                    columns.append(
                        f'FOREIGN KEY ("{fk.column}") REFERENCES '
                        f'"{fk.ref_table}"("{fk.ref_column}")'
                    )
            ddl = f'CREATE TABLE "{table.name}" ({", ".join(columns)})'
            cursor.execute(ddl)
        self._conn.commit()

    def _insert_rows(
        self, schema: DatabaseSchema, rows: Dict[str, List[dict]]
    ) -> None:
        cursor = self._conn.cursor()
        for table in schema.tables:
            table_rows = rows.get(table.name, [])
            if not table_rows:
                continue
            names = [c.name for c in table.columns]
            placeholders = ", ".join("?" for _ in names)
            quoted = ", ".join(f'"{n}"' for n in names)
            statement = (
                f'INSERT INTO "{table.name}" ({quoted}) VALUES ({placeholders})'
            )
            values = [tuple(row.get(n) for n in names) for row in table_rows]
            cursor.executemany(statement, values)
        self._conn.commit()

    # -- execution -------------------------------------------------------------

    def execute(self, sql: str, max_rows: int = MAX_ROWS) -> ResultRows:
        """Run one SELECT and return its rows.

        Raises:
            ExecutionError: for non-SELECT statements, SQL errors, or
                queries exceeding the row/step budget.
        """
        if self._closed:
            raise ExecutionError("database is closed")
        stripped = sql.lstrip().lower()
        if not (stripped.startswith("select") or stripped.startswith("with")):
            raise ExecutionError("only SELECT statements may be executed")
        steps = {"n": 0}

        def guard():
            steps["n"] += 1
            if steps["n"] > MAX_VM_STEPS // 1000:
                return 1
            return 0

        self._conn.set_progress_handler(guard, 1000)
        start = time.perf_counter()
        try:
            cursor = self._conn.execute(sql)
            rows = cursor.fetchmany(max_rows + 1)
        except sqlite3.Error as exc:
            # A locked/busy database is a retryable condition, not a bad
            # query — flag it so resilience wrappers can tell the two
            # apart (SQLITE_BUSY / SQLITE_LOCKED surface as
            # OperationalError with these message fragments).
            message = str(exc)
            transient = isinstance(exc, sqlite3.OperationalError) and (
                "locked" in message or "busy" in message
            )
            raise ExecutionError(
                f"execution failed: {exc}", transient=transient
            ) from exc
        finally:
            self._conn.set_progress_handler(None, 0)
            if self._execute_seconds is not None:
                self._execute_seconds.observe(time.perf_counter() - start)
        if len(rows) > max_rows:
            raise ExecutionError(f"query returned more than {max_rows} rows")
        return [tuple(row) for row in rows]

    def try_execute(self, sql: str) -> Optional[ResultRows]:
        """Like :meth:`execute` but returns ``None`` on any failure."""
        try:
            return self.execute(sql)
        except ExecutionError:
            return None

    def table_rows(self, table: str) -> ResultRows:
        """All rows of one table (used by tests and the value sampler)."""
        return self.execute(f'SELECT * FROM "{table}"')

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            self._conn.close()
            self._closed = True

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class DatabasePool:
    """Lazily built, per-thread cached databases for a whole dataset.

    The evaluation harness executes thousands of queries; building each
    database once per thread and keeping the connection open makes EX
    evaluation fast.  SQLite connections must not be shared between
    threads, so the pool stores the *recipe* (schema + rows) for every
    database and materialises one connection per (thread, db_id) on first
    use — the parallel evaluation engine's workers each get their own
    connection and never contend on a progress handler or cursor.

    The pool is backend-parameterized: databases are materialised by an
    :class:`~repro.db.backends.ExecutionBackend` (SQLite by default) and
    the backend's identity is folded into every content fingerprint, so
    ``ArtifactCache``/``RunJournal`` namespaces stay disjoint per backend.
    """

    def __init__(self, backend=None):
        from .backends import resolve_backend

        #: The execution backend materialising databases (never None).
        self.backend = resolve_backend(backend)
        #: db_id → (schema, rows): how to (re)build the database.
        self._recipes: Dict[str, Tuple[DatabaseSchema, Dict[str, List[dict]]]] = {}
        #: thread ident → db_id → materialised database.
        self._instances: Dict[int, Dict[str, Database]] = {}
        #: db_id → content digest of (schema, rows), computed lazily.
        self._fingerprints: Dict[str, str] = {}
        self._lock = threading.Lock()
        self._metrics = None

    @property
    def backend_name(self) -> str:
        """The owning backend's registry name (e.g. ``"postgres"``)."""
        return self.backend.name

    @property
    def profile(self):
        """The SQL dialect profile this pool's databases expect."""
        return self.backend.profile

    def set_metrics(self, registry) -> None:
        """Attach a MetricsRegistry: execute() timings on every database
        (existing and future) plus a live open-connection gauge."""
        with self._lock:
            self._metrics = registry
            databases = [
                db
                for per_thread in self._instances.values()
                for db in per_thread.values()
            ]
        for database in databases:
            database.metrics = registry
        self._update_connection_gauge()

    def _update_connection_gauge(self) -> None:
        if self._metrics is None:
            return
        from ..obs.metrics import M_DB_CONNECTIONS

        self._metrics.gauge_set(M_DB_CONNECTIONS, self.connection_count())

    def add(self, schema: DatabaseSchema, rows: Dict[str, List[dict]]) -> Database:
        """Register (or replace) the database for ``schema.db_id``.

        Returns the calling thread's instance, built eagerly so DDL
        errors surface here rather than at first query.
        """
        self.register(schema, rows)
        return self.get(schema.db_id)

    def register(
        self, schema: DatabaseSchema, rows: Dict[str, List[dict]]
    ) -> None:
        """Register (or replace) the recipe for ``schema.db_id``; its
        database is built on the first :meth:`get`."""
        with self._lock:
            stale = [
                per_thread.pop(schema.db_id)
                for per_thread in self._instances.values()
                if schema.db_id in per_thread
            ]
            self._recipes[schema.db_id] = (schema, rows)
            self._fingerprints.pop(schema.db_id, None)
        for database in stale:
            database.close()

    def fingerprint(self, db_id: str) -> str:
        """Stable content digest of one database's schema and rows.

        Execution artifacts (gold and predicted result rows) are cached
        under this digest, so results computed against one database
        build never leak onto a database with different content.  The
        backend's identity token is part of the digest: the same corpus
        served by two backends yields disjoint cache/journal namespaces.

        Raises:
            ExecutionError: if the database was never added.
        """
        with self._lock:
            cached = self._fingerprints.get(db_id)
            if cached is not None:
                return cached
            try:
                schema, rows = self._recipes[db_id]
            except KeyError as exc:
                raise ExecutionError(f"no database {db_id!r} in pool") from exc
        digest = digest_texts(
            (
                db_id,
                json.dumps(schema_to_spider_entry(schema), sort_keys=True),
                json.dumps(rows, sort_keys=True, default=str),
                self.backend.fingerprint_token(),
            )
        )
        with self._lock:
            return self._fingerprints.setdefault(db_id, digest)

    def get(self, db_id: str) -> Database:
        """The calling thread's database for ``db_id`` (built on first use).

        Raises:
            ExecutionError: if the database was never added.
        """
        ident = threading.get_ident()
        with self._lock:
            per_thread = self._instances.setdefault(ident, {})
            database = per_thread.get(db_id)
            if database is not None:
                return database
            try:
                schema, rows = self._recipes[db_id]
            except KeyError as exc:
                raise ExecutionError(f"no database {db_id!r} in pool") from exc
        # Build outside the lock: other threads keep serving cache hits
        # while this connection loads its rows.
        database = self.backend.create(schema, rows)
        with self._lock:
            database.metrics = self._metrics
            existing = self._instances.setdefault(ident, {}).setdefault(
                db_id, database
            )
        if existing is not database:  # lost a (same-thread re-entrant) race
            database.close()
        else:
            self._update_connection_gauge()
        return existing

    def __contains__(self, db_id: str) -> bool:
        with self._lock:
            return db_id in self._recipes

    def db_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._recipes)

    def connection_count(self) -> int:
        """Open connections across all threads (telemetry/tests)."""
        with self._lock:
            return sum(len(per_thread) for per_thread in self._instances.values())

    def close(self) -> None:
        with self._lock:
            databases = [
                db
                for per_thread in self._instances.values()
                for db in per_thread.values()
            ]
            self._instances.clear()
            self._recipes.clear()
        for database in databases:
            database.close()
        self._update_connection_gauge()

    def __enter__(self) -> "DatabasePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
