"""Template-based question/SQL pair generation.

Each template instantiates one (natural-language question, gold SQL AST)
pair over a populated domain: it samples tables, columns and *real cell
values* (so gold queries return meaningful results), phrases a question
using the schema's natural-language names, and builds the gold query as an
AST (unparsed to text at the end).

Templates span the full Spider hardness spectrum — simple projections up to
nested NOT IN, set operations and multi-hop joins — so the generated corpus
exercises every code path of the SQL toolkit, evaluator and the prompt
pipeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...db.sqlite_backend import Database
from ...schema.model import Column, DatabaseSchema, Table
from ...sql.ast_nodes import (
    AndCondition,
    BetweenCondition,
    ColumnRef,
    Comparison,
    FromClause,
    FuncCall,
    InCondition,
    Join,
    LikeCondition,
    Literal,
    OrCondition,
    OrderItem,
    Query,
    SelectCore,
    SelectItem,
    TableRef,
)
from ...sql.unparse import unparse
from ...utils.rng import rng_from

Rows = Dict[str, List[dict]]


@dataclass
class GeneratedExample:
    """One generated (question, SQL) pair, before packaging.

    ``sql`` is unparsed from the AST on first read and kept: the
    generator reads it for its duplicate check and its execution check,
    and the corpus reads it again for the packaged example.
    """

    question: str
    query: Query

    @cached_property
    def sql(self) -> str:
        return unparse(self.query)


class TemplateContext:
    """Sampling helpers shared by all templates."""

    def __init__(self, schema: DatabaseSchema, data: Rows, rng: random.Random):
        self.schema = schema
        self.data = data
        self.rng = rng

    # -- schema sampling ------------------------------------------------------

    def pick_table(self) -> Table:
        return self.rng.choice(list(self.schema.tables))

    def text_columns(self, table: Table) -> List[Column]:
        return [
            c for c in table.columns
            if c.ctype == "text" and not _is_id(c.name)
        ]

    def numeric_columns(self, table: Table) -> List[Column]:
        return [
            c for c in table.columns
            if c.ctype == "number" and not _is_id(c.name)
        ]

    def plain_columns(self, table: Table) -> List[Column]:
        """Columns suitable for projection (no ids)."""
        return [c for c in table.columns if not _is_id(c.name)]

    def name_column(self, table: Table) -> Optional[Column]:
        """The most human-readable text column (name/title first)."""
        texts = self.text_columns(table)
        for preferred in ("name", "title", "code", "model"):
            for col in texts:
                if preferred in col.name.lower():
                    return col
        return texts[0] if texts else None

    def fk_pairs(self) -> List[Tuple[Table, str, Table, str]]:
        """(child table, child col, parent table, parent col) for every FK."""
        pairs = []
        for fk in self.schema.foreign_keys:
            pairs.append(
                (
                    self.schema.table(fk.table),
                    fk.column,
                    self.schema.table(fk.ref_table),
                    fk.ref_column,
                )
            )
        return pairs

    # -- value sampling ----------------------------------------------------------

    def values(self, table: Table, column: Column) -> List[object]:
        rows = self.data.get(table.name, [])
        return [row[column.name] for row in rows if row.get(column.name) is not None]

    def sample_value(self, table: Table, column: Column) -> Optional[object]:
        values = self.values(table, column)
        if not values:
            return None
        return self.rng.choice(values)

    def threshold(self, table: Table, column: Column) -> Optional[object]:
        """A numeric threshold near the median, so filters select some rows."""
        values = sorted(self.values(table, column))
        if len(values) < 4:
            return None
        lo, hi = len(values) // 4, 3 * len(values) // 4
        return values[self.rng.randrange(lo, hi + 1)]

    def word_from(self, table: Table, column: Column) -> Optional[str]:
        """A single word occurring in some value of a text column."""
        values = [str(v) for v in self.values(table, column)]
        words = [w for v in values for w in v.split() if len(w) >= 4 and w.isalpha()]
        if not words:
            return None
        return self.rng.choice(words)


def _phrase(ctx: TemplateContext, options) -> str:
    """Pick one phrasing variant.

    Templates offer several phrasings, some deliberately colliding across
    templates once masked ("Which <m> has the most <m>?" can be a GROUP BY
    argmax or a join-count argmax) — real questions are ambiguous like
    this, which is what gives skeleton-aware selection (DAIL_S) its edge
    over pure question similarity.
    """
    return ctx.rng.choice(options)


def _is_id(name: str) -> bool:
    return name.lower().endswith("id") or name.lower() == "id"


def _plural(name: str) -> str:
    if name.endswith("s"):
        return name
    if name.endswith("y"):
        return name[:-1] + "ies"
    return name + "s"


def _table_phrase(table: Table, plural: bool = True) -> str:
    words = table.natural_name or table.name.replace("_", " ")
    return _plural(words) if plural else words


def _col_phrase(column: Column) -> str:
    return column.natural_name or column.name.replace("_", " ")


def _lit(value: object) -> Literal:
    if isinstance(value, bool):
        return Literal(str(int(value)), "number")
    if isinstance(value, (int, float)):
        text = repr(value)
        return Literal(text, "number")
    return Literal(str(value), "string")


def _col(table: Table, column: Column, qualify: bool = False) -> ColumnRef:
    return ColumnRef(column=column.name, table=table.name if qualify else None)


def _select(table: Table, items: Sequence[SelectItem], **kwargs) -> Query:
    return Query(
        core=SelectCore(
            items=tuple(items),
            from_clause=FromClause(source=TableRef(name=table.name)),
            **kwargs,
        )
    )


def _join_query(
    child: Table,
    child_col: str,
    parent: Table,
    parent_col: str,
    items: Sequence[SelectItem],
    **kwargs,
) -> Query:
    on = Comparison(
        op="=",
        left=ColumnRef(column=child_col, table=child.name),
        right=ColumnRef(column=parent_col, table=parent.name),
    )
    return Query(
        core=SelectCore(
            items=tuple(items),
            from_clause=FromClause(
                source=TableRef(name=child.name),
                joins=(Join(source=TableRef(name=parent.name), condition=on),),
            ),
            **kwargs,
        )
    )


TemplateFn = Callable[[TemplateContext], Optional[GeneratedExample]]


# ---------------------------------------------------------------------------
# Easy templates
# ---------------------------------------------------------------------------


def t_list_column(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    cols = ctx.plain_columns(table)
    if not cols:
        return None
    col = ctx.rng.choice(cols)
    question = _phrase(ctx, [
        f"List the {_col_phrase(col)} of all {_table_phrase(table)}.",
        f"Show the {_col_phrase(col)} for every "
        f"{_table_phrase(table, plural=False)}.",
        f"What are the {_col_phrase(col)} values of {_table_phrase(table)}?",
    ])
    query = _select(table, [SelectItem(_col(table, col))])
    return GeneratedExample(question, query)


def t_two_columns(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    cols = ctx.plain_columns(table)
    if len(cols) < 2:
        return None
    a, b = ctx.rng.sample(cols, 2)
    question = (
        f"What are the {_col_phrase(a)} and {_col_phrase(b)} of each "
        f"{_table_phrase(table, plural=False)}?"
    )
    query = _select(table, [SelectItem(_col(table, a)), SelectItem(_col(table, b))])
    return GeneratedExample(question, query)


def t_count_all(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    question = _phrase(ctx, [
        f"How many {_table_phrase(table)} are there?",
        f"Count the number of {_table_phrase(table)}.",
        f"What is the total number of {_table_phrase(table)}?",
    ])
    query = _select(table, [SelectItem(FuncCall("COUNT", ColumnRef("*")))])
    return GeneratedExample(question, query)


def t_distinct(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    cols = ctx.text_columns(table)
    if not cols:
        return None
    col = ctx.rng.choice(cols)
    question = f"List the distinct {_col_phrase(col)} of {_table_phrase(table)}."
    query = _select(table, [SelectItem(_col(table, col))], distinct=True)
    return GeneratedExample(question, query)


def t_count_distinct(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    cols = ctx.text_columns(table)
    if not cols:
        return None
    col = ctx.rng.choice(cols)
    question = (
        f"How many different {_col_phrase(col)} values appear among "
        f"{_table_phrase(table)}?"
    )
    query = _select(
        table,
        [SelectItem(FuncCall("COUNT", _col(table, col), distinct=True))],
    )
    return GeneratedExample(question, query)


def t_simple_agg(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    cols = ctx.numeric_columns(table)
    if not cols:
        return None
    col = ctx.rng.choice(cols)
    agg, phrase = ctx.rng.choice(
        [("AVG", "average"), ("MIN", "minimum"), ("MAX", "maximum"),
         ("SUM", "total")]
    )
    question = (
        f"What is the {phrase} {_col_phrase(col)} of all {_table_phrase(table)}?"
    )
    query = _select(table, [SelectItem(FuncCall(agg, _col(table, col)))])
    return GeneratedExample(question, query)


# ---------------------------------------------------------------------------
# Medium templates
# ---------------------------------------------------------------------------


def t_filter_numeric(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    num_cols = ctx.numeric_columns(table)
    out_cols = ctx.plain_columns(table)
    if not num_cols or not out_cols:
        return None
    num = ctx.rng.choice(num_cols)
    out = ctx.rng.choice(out_cols)
    value = ctx.threshold(table, num)
    if value is None:
        return None
    op, phrase = ctx.rng.choice([(">", "greater than"), ("<", "less than")])
    question = _phrase(ctx, [
        f"List the {_col_phrase(out)} of {_table_phrase(table)} whose "
        f"{_col_phrase(num)} is {phrase} {value}.",
        f"Which {_table_phrase(table)} have a {_col_phrase(num)} "
        f"{phrase} {value}? Give their {_col_phrase(out)}.",
        f"Show the {_col_phrase(out)} of {_table_phrase(table)} with "
        f"{_col_phrase(num)} {phrase} {value}.",
    ])
    where = Comparison(op=op, left=_col(table, num), right=_lit(value))
    query = _select(table, [SelectItem(_col(table, out))], where=where)
    return GeneratedExample(question, query)


def t_filter_text(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    text_cols = ctx.text_columns(table)
    out_cols = ctx.plain_columns(table)
    if not text_cols or not out_cols:
        return None
    tcol = ctx.rng.choice(text_cols)
    out = ctx.rng.choice([c for c in out_cols if c.name != tcol.name] or out_cols)
    value = ctx.sample_value(table, tcol)
    if value is None:
        return None
    question = (
        f"Show the {_col_phrase(out)} of the {_table_phrase(table)} whose "
        f"{_col_phrase(tcol)} is \"{value}\"."
    )
    where = Comparison(op="=", left=_col(table, tcol), right=_lit(value))
    query = _select(table, [SelectItem(_col(table, out))], where=where)
    return GeneratedExample(question, query)


def t_order_limit(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    num_cols = ctx.numeric_columns(table)
    out_cols = ctx.plain_columns(table)
    if not num_cols or not out_cols:
        return None
    num = ctx.rng.choice(num_cols)
    out = ctx.rng.choice(out_cols)
    k = ctx.rng.randint(1, 5)
    direction, phrase = ctx.rng.choice(
        [("DESC", "highest"), ("ASC", "lowest")]
    )
    noun = _table_phrase(table) if k > 1 else _table_phrase(table, plural=False)
    question = _phrase(ctx, [
        f"List the {_col_phrase(out)} of the {k} {noun} with the "
        f"{phrase} {_col_phrase(num)}.",
        f"Which {k} {noun} have the {phrase} {_col_phrase(num)}? "
        f"Give their {_col_phrase(out)}.",
    ])
    query = _select(
        table,
        [SelectItem(_col(table, out))],
        order_by=(OrderItem(_col(table, num), direction=direction),),
        limit=k,
    )
    return GeneratedExample(question, query)


def t_order_all(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    num_cols = ctx.numeric_columns(table)
    out_cols = ctx.plain_columns(table)
    if not num_cols or not out_cols:
        return None
    num = ctx.rng.choice(num_cols)
    out = ctx.rng.choice(out_cols)
    direction, phrase = ctx.rng.choice(
        [("DESC", "descending"), ("ASC", "ascending")]
    )
    question = (
        f"List the {_col_phrase(out)} of all {_table_phrase(table)} in "
        f"{phrase} order of {_col_phrase(num)}."
    )
    query = _select(
        table,
        [SelectItem(_col(table, out))],
        order_by=(OrderItem(_col(table, num), direction=direction),),
    )
    return GeneratedExample(question, query)


def t_group_count(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    text_cols = ctx.text_columns(table)
    if not text_cols:
        return None
    col = ctx.rng.choice(text_cols)
    question = (
        f"How many {_table_phrase(table)} are there for each "
        f"{_col_phrase(col)}?"
    )
    query = _select(
        table,
        [SelectItem(_col(table, col)), SelectItem(FuncCall("COUNT", ColumnRef("*")))],
        group_by=(_col(table, col),),
    )
    return GeneratedExample(question, query)


def t_agg_filtered(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    num_cols = ctx.numeric_columns(table)
    text_cols = ctx.text_columns(table)
    if not num_cols or not text_cols:
        return None
    num = ctx.rng.choice(num_cols)
    tcol = ctx.rng.choice(text_cols)
    value = ctx.sample_value(table, tcol)
    if value is None:
        return None
    agg, phrase = ctx.rng.choice([("AVG", "average"), ("MAX", "maximum"),
                                  ("SUM", "total")])
    question = (
        f"What is the {phrase} {_col_phrase(num)} of {_table_phrase(table)} "
        f"whose {_col_phrase(tcol)} is \"{value}\"?"
    )
    where = Comparison(op="=", left=_col(table, tcol), right=_lit(value))
    query = _select(table, [SelectItem(FuncCall(agg, _col(table, num)))], where=where)
    return GeneratedExample(question, query)


def t_like(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    text_cols = ctx.text_columns(table)
    out_cols = ctx.plain_columns(table)
    if not text_cols or not out_cols:
        return None
    tcol = ctx.rng.choice(text_cols)
    out = ctx.rng.choice(out_cols)
    word = ctx.word_from(table, tcol)
    if word is None:
        return None
    question = (
        f"List the {_col_phrase(out)} of {_table_phrase(table)} whose "
        f"{_col_phrase(tcol)} contains the word \"{word}\"."
    )
    where = LikeCondition(expr=_col(table, tcol), pattern=Literal(f"%{word}%", "string"))
    query = _select(table, [SelectItem(_col(table, out))], where=where)
    return GeneratedExample(question, query)


def t_count_filtered(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    num_cols = ctx.numeric_columns(table)
    if not num_cols:
        return None
    num = ctx.rng.choice(num_cols)
    value = ctx.threshold(table, num)
    if value is None:
        return None
    question = _phrase(ctx, [
        f"How many {_table_phrase(table)} have a {_col_phrase(num)} greater "
        f"than {value}?",
        f"Count the {_table_phrase(table)} whose {_col_phrase(num)} is "
        f"greater than {value}.",
    ])
    where = Comparison(op=">", left=_col(table, num), right=_lit(value))
    query = _select(table, [SelectItem(FuncCall("COUNT", ColumnRef("*")))], where=where)
    return GeneratedExample(question, query)


def t_between(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    num_cols = ctx.numeric_columns(table)
    out_cols = ctx.plain_columns(table)
    if not num_cols or not out_cols:
        return None
    num = ctx.rng.choice(num_cols)
    out = ctx.rng.choice(out_cols)
    values = sorted(ctx.values(table, num))
    if len(values) < 6:
        return None
    low = values[len(values) // 4]
    high = values[3 * len(values) // 4]
    if low == high:
        return None
    question = (
        f"List the {_col_phrase(out)} of {_table_phrase(table)} whose "
        f"{_col_phrase(num)} is between {low} and {high}."
    )
    where = BetweenCondition(expr=_col(table, num), low=_lit(low), high=_lit(high))
    query = _select(table, [SelectItem(_col(table, out))], where=where)
    return GeneratedExample(question, query)


def t_join_filter(ctx: TemplateContext) -> Optional[GeneratedExample]:
    pairs = ctx.fk_pairs()
    if not pairs:
        return None
    child, child_col, parent, parent_col = ctx.rng.choice(pairs)
    child_out = ctx.name_column(child) or (ctx.plain_columns(child) or [None])[0]
    parent_name = ctx.name_column(parent)
    if child_out is None or parent_name is None:
        return None
    value = ctx.sample_value(parent, parent_name)
    if value is None:
        return None
    question = (
        f"List the {_col_phrase(child_out)} of {_table_phrase(child)} of the "
        f"{_table_phrase(parent, plural=False)} whose "
        f"{_col_phrase(parent_name)} is \"{value}\"."
    )
    where = Comparison(
        op="=",
        left=ColumnRef(column=parent_name.name, table=parent.name),
        right=_lit(value),
    )
    query = _join_query(
        child, child_col, parent, parent_col,
        [SelectItem(ColumnRef(column=child_out.name, table=child.name))],
        where=where,
    )
    return GeneratedExample(question, query)


# ---------------------------------------------------------------------------
# Hard templates
# ---------------------------------------------------------------------------


def t_group_having(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    text_cols = ctx.text_columns(table)
    if not text_cols:
        return None
    col = ctx.rng.choice(text_cols)
    n = ctx.rng.randint(1, 3)
    question = (
        f"Which {_col_phrase(col)} values appear more than {n} times among "
        f"{_table_phrase(table)}?"
    )
    having = Comparison(
        op=">", left=FuncCall("COUNT", ColumnRef("*")), right=_lit(n)
    )
    query = _select(
        table,
        [SelectItem(_col(table, col))],
        group_by=(_col(table, col),),
        having=having,
    )
    return GeneratedExample(question, query)


def t_argmax_group(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    text_cols = ctx.text_columns(table)
    if not text_cols:
        return None
    col = ctx.rng.choice(text_cols)
    question = _phrase(ctx, [
        f"Which {_col_phrase(col)} has the most {_table_phrase(table)}?",
        f"Which {_col_phrase(col)} is most common among "
        f"{_table_phrase(table)}?",
    ])
    query = _select(
        table,
        [SelectItem(_col(table, col))],
        group_by=(_col(table, col),),
        order_by=(OrderItem(FuncCall("COUNT", ColumnRef("*")), direction="DESC"),),
        limit=1,
    )
    return GeneratedExample(question, query)


def t_above_average(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    num_cols = ctx.numeric_columns(table)
    out_cols = ctx.plain_columns(table)
    if not num_cols or not out_cols:
        return None
    num = ctx.rng.choice(num_cols)
    out = ctx.rng.choice(out_cols)
    question = _phrase(ctx, [
        f"List the {_col_phrase(out)} of {_table_phrase(table)} whose "
        f"{_col_phrase(num)} is above the average {_col_phrase(num)}.",
        f"Show the {_col_phrase(out)} of {_table_phrase(table)} with "
        f"{_col_phrase(num)} above average.",
    ])
    sub = _select(table, [SelectItem(FuncCall("AVG", _col(table, num)))])
    where = Comparison(op=">", left=_col(table, num), right=sub)
    query = _select(table, [SelectItem(_col(table, out))], where=where)
    return GeneratedExample(question, query)


def t_eq_extreme(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    num_cols = ctx.numeric_columns(table)
    out_cols = ctx.plain_columns(table)
    if not num_cols or not out_cols:
        return None
    num = ctx.rng.choice(num_cols)
    out = ctx.rng.choice(out_cols)
    agg, phrase = ctx.rng.choice([("MAX", "highest"), ("MIN", "lowest")])
    question = _phrase(ctx, [
        f"List the {_col_phrase(out)} of the "
        f"{_table_phrase(table, plural=False)} with the {phrase} "
        f"{_col_phrase(num)}.",
        f"Which {_table_phrase(table, plural=False)} has the {phrase} "
        f"{_col_phrase(num)}? Give its {_col_phrase(out)}.",
    ])
    sub = _select(table, [SelectItem(FuncCall(agg, _col(table, num)))])
    where = Comparison(op="=", left=_col(table, num), right=sub)
    query = _select(table, [SelectItem(_col(table, out))], where=where)
    return GeneratedExample(question, query)


def t_join_group_count(ctx: TemplateContext) -> Optional[GeneratedExample]:
    pairs = ctx.fk_pairs()
    if not pairs:
        return None
    child, child_col, parent, parent_col = ctx.rng.choice(pairs)
    parent_name = ctx.name_column(parent)
    if parent_name is None:
        return None
    question = (
        f"For each {_table_phrase(parent, plural=False)}, show its "
        f"{_col_phrase(parent_name)} and the number of "
        f"{_table_phrase(child)} it has."
    )
    query = _join_query(
        child, child_col, parent, parent_col,
        [
            SelectItem(ColumnRef(column=parent_name.name, table=parent.name)),
            SelectItem(FuncCall("COUNT", ColumnRef("*"))),
        ],
        group_by=(ColumnRef(column=parent_name.name, table=parent.name),),
    )
    return GeneratedExample(question, query)


def t_two_conditions(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    num_cols = ctx.numeric_columns(table)
    text_cols = ctx.text_columns(table)
    out_cols = ctx.plain_columns(table)
    if not num_cols or not text_cols or not out_cols:
        return None
    num = ctx.rng.choice(num_cols)
    tcol = ctx.rng.choice(text_cols)
    out = ctx.rng.choice(out_cols)
    threshold = ctx.threshold(table, num)
    value = ctx.sample_value(table, tcol)
    if threshold is None or value is None:
        return None
    question = (
        f"List the {_col_phrase(out)} of {_table_phrase(table)} whose "
        f"{_col_phrase(num)} is greater than {threshold} and whose "
        f"{_col_phrase(tcol)} is \"{value}\"."
    )
    where = AndCondition(
        operands=(
            Comparison(op=">", left=_col(table, num), right=_lit(threshold)),
            Comparison(op="=", left=_col(table, tcol), right=_lit(value)),
        )
    )
    query = _select(table, [SelectItem(_col(table, out))], where=where)
    return GeneratedExample(question, query)


def t_or_conditions(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    text_cols = ctx.text_columns(table)
    out_cols = ctx.plain_columns(table)
    if not text_cols or not out_cols:
        return None
    tcol = ctx.rng.choice(text_cols)
    out = ctx.rng.choice(out_cols)
    values = list(dict.fromkeys(ctx.values(table, tcol)))
    if len(values) < 2:
        return None
    v1, v2 = ctx.rng.sample(values, 2)
    question = (
        f"List the {_col_phrase(out)} of {_table_phrase(table)} whose "
        f"{_col_phrase(tcol)} is \"{v1}\" or \"{v2}\"."
    )
    where = OrCondition(
        operands=(
            Comparison(op="=", left=_col(table, tcol), right=_lit(v1)),
            Comparison(op="=", left=_col(table, tcol), right=_lit(v2)),
        )
    )
    query = _select(table, [SelectItem(_col(table, out))], where=where)
    return GeneratedExample(question, query)


def t_join_agg(ctx: TemplateContext) -> Optional[GeneratedExample]:
    pairs = ctx.fk_pairs()
    candidates = []
    for child, child_col, parent, parent_col in pairs:
        nums = ctx.numeric_columns(child)
        parent_name = ctx.name_column(parent)
        if nums and parent_name is not None:
            candidates.append((child, child_col, parent, parent_col, nums, parent_name))
    if not candidates:
        return None
    child, child_col, parent, parent_col, nums, parent_name = ctx.rng.choice(candidates)
    num = ctx.rng.choice(nums)
    value = ctx.sample_value(parent, parent_name)
    if value is None:
        return None
    agg, phrase = ctx.rng.choice([("SUM", "total"), ("AVG", "average"),
                                  ("MAX", "maximum")])
    question = (
        f"What is the {phrase} {_col_phrase(num)} of {_table_phrase(child)} "
        f"of the {_table_phrase(parent, plural=False)} whose "
        f"{_col_phrase(parent_name)} is \"{value}\"?"
    )
    where = Comparison(
        op="=",
        left=ColumnRef(column=parent_name.name, table=parent.name),
        right=_lit(value),
    )
    query = _join_query(
        child, child_col, parent, parent_col,
        [SelectItem(FuncCall(agg, ColumnRef(column=num.name, table=child.name)))],
        where=where,
    )
    return GeneratedExample(question, query)


def t_most_children(ctx: TemplateContext) -> Optional[GeneratedExample]:
    pairs = ctx.fk_pairs()
    if not pairs:
        return None
    child, child_col, parent, parent_col = ctx.rng.choice(pairs)
    parent_name = ctx.name_column(parent)
    if parent_name is None:
        return None
    question = _phrase(ctx, [
        f"What is the {_col_phrase(parent_name)} of the "
        f"{_table_phrase(parent, plural=False)} with the most "
        f"{_table_phrase(child)}?",
        f"Which {_table_phrase(parent, plural=False)} has the most "
        f"{_table_phrase(child)}? Give its {_col_phrase(parent_name)}.",
    ])
    query = _join_query(
        child, child_col, parent, parent_col,
        [SelectItem(ColumnRef(column=parent_name.name, table=parent.name))],
        group_by=(ColumnRef(column=parent_name.name, table=parent.name),),
        order_by=(OrderItem(FuncCall("COUNT", ColumnRef("*")), direction="DESC"),),
        limit=1,
    )
    return GeneratedExample(question, query)


# ---------------------------------------------------------------------------
# Extra-hard templates
# ---------------------------------------------------------------------------


def t_not_in(ctx: TemplateContext) -> Optional[GeneratedExample]:
    pairs = ctx.fk_pairs()
    if not pairs:
        return None
    child, child_col, parent, parent_col = ctx.rng.choice(pairs)
    parent_name = ctx.name_column(parent)
    if parent_name is None:
        return None
    question = _phrase(ctx, [
        f"List the {_col_phrase(parent_name)} of {_table_phrase(parent)} "
        f"that have no {_table_phrase(child)}.",
        f"Which {_table_phrase(parent)} have no {_table_phrase(child)}? "
        f"Give their {_col_phrase(parent_name)}.",
    ])
    sub = _select(child, [SelectItem(ColumnRef(column=child_col))])
    where = InCondition(
        expr=ColumnRef(column=parent_col), values=sub, negated=True
    )
    query = _select(parent, [SelectItem(ColumnRef(column=parent_name.name))],
                    where=where)
    return GeneratedExample(question, query)


def t_in_subquery(ctx: TemplateContext) -> Optional[GeneratedExample]:
    pairs = ctx.fk_pairs()
    candidates = []
    for child, child_col, parent, parent_col in pairs:
        nums = ctx.numeric_columns(child)
        parent_name = ctx.name_column(parent)
        if nums and parent_name is not None:
            candidates.append((child, child_col, parent, parent_col, nums, parent_name))
    if not candidates:
        return None
    child, child_col, parent, parent_col, nums, parent_name = ctx.rng.choice(candidates)
    num = ctx.rng.choice(nums)
    threshold = ctx.threshold(child, num)
    if threshold is None:
        return None
    question = (
        f"List the {_col_phrase(parent_name)} of {_table_phrase(parent)} "
        f"that have at least one {_table_phrase(child, plural=False)} with "
        f"{_col_phrase(num)} greater than {threshold}."
    )
    sub_where = Comparison(op=">", left=ColumnRef(column=num.name),
                           right=_lit(threshold))
    sub = _select(child, [SelectItem(ColumnRef(column=child_col))], where=sub_where)
    where = InCondition(expr=ColumnRef(column=parent_col), values=sub)
    query = _select(parent, [SelectItem(ColumnRef(column=parent_name.name))],
                    where=where)
    return GeneratedExample(question, query)


def t_intersect(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    num_cols = ctx.numeric_columns(table)
    text_cols = ctx.text_columns(table)
    if len(num_cols) < 1 or len(text_cols) < 1:
        return None
    num = ctx.rng.choice(num_cols)
    tcol = ctx.rng.choice(text_cols)
    out = ctx.name_column(table)
    if out is None or out.name == tcol.name:
        return None
    values = sorted(ctx.values(table, num))
    if len(values) < 4:
        return None
    threshold = values[len(values) // 2]
    tvalue = ctx.sample_value(table, tcol)
    if tvalue is None:
        return None
    question = (
        f"List the {_col_phrase(out)} of {_table_phrase(table)} whose "
        f"{_col_phrase(num)} is greater than {threshold} and that also have "
        f"a {_col_phrase(tcol)} of \"{tvalue}\"."
    )
    left = _select(
        table,
        [SelectItem(_col(table, out))],
        where=Comparison(op=">", left=_col(table, num), right=_lit(threshold)),
    )
    right = _select(
        table,
        [SelectItem(_col(table, out))],
        where=Comparison(op="=", left=_col(table, tcol), right=_lit(tvalue)),
    )
    query = Query(core=left.core, set_op="INTERSECT", set_query=right)
    return GeneratedExample(question, query)


def t_union(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    num_cols = ctx.numeric_columns(table)
    text_cols = ctx.text_columns(table)
    out = ctx.name_column(table)
    if not num_cols or not text_cols or out is None:
        return None
    num = ctx.rng.choice(num_cols)
    tcol = ctx.rng.choice(text_cols)
    threshold = ctx.threshold(table, num)
    tvalue = ctx.sample_value(table, tcol)
    if threshold is None or tvalue is None:
        return None
    question = (
        f"List the {_col_phrase(out)} of {_table_phrase(table)} that have a "
        f"{_col_phrase(num)} above {threshold} or a {_col_phrase(tcol)} of "
        f"\"{tvalue}\"."
    )
    left = _select(
        table,
        [SelectItem(_col(table, out))],
        where=Comparison(op=">", left=_col(table, num), right=_lit(threshold)),
    )
    right = _select(
        table,
        [SelectItem(_col(table, out))],
        where=Comparison(op="=", left=_col(table, tcol), right=_lit(tvalue)),
    )
    query = Query(core=left.core, set_op="UNION", set_query=right)
    return GeneratedExample(question, query)


def t_except(ctx: TemplateContext) -> Optional[GeneratedExample]:
    table = ctx.pick_table()
    text_cols = ctx.text_columns(table)
    out = ctx.name_column(table)
    if out is None:
        return None
    others = [c for c in text_cols if c.name != out.name]
    if not others:
        return None
    tcol = ctx.rng.choice(others)
    tvalue = ctx.sample_value(table, tcol)
    if tvalue is None:
        return None
    question = (
        f"List the {_col_phrase(out)} of all {_table_phrase(table)} except "
        f"those whose {_col_phrase(tcol)} is \"{tvalue}\"."
    )
    left = _select(table, [SelectItem(_col(table, out))])
    right = _select(
        table,
        [SelectItem(_col(table, out))],
        where=Comparison(op="=", left=_col(table, tcol), right=_lit(tvalue)),
    )
    query = Query(core=left.core, set_op="EXCEPT", set_query=right)
    return GeneratedExample(question, query)


def t_join_having(ctx: TemplateContext) -> Optional[GeneratedExample]:
    pairs = ctx.fk_pairs()
    if not pairs:
        return None
    child, child_col, parent, parent_col = ctx.rng.choice(pairs)
    parent_name = ctx.name_column(parent)
    if parent_name is None:
        return None
    n = ctx.rng.randint(1, 3)
    question = _phrase(ctx, [
        f"List the {_col_phrase(parent_name)} of "
        f"{_table_phrase(parent)} that have more than {n} "
        f"{_table_phrase(child)}.",
        f"Which {_table_phrase(parent)} have more than {n} "
        f"{_table_phrase(child)}? Give their {_col_phrase(parent_name)}.",
    ])
    having = Comparison(op=">", left=FuncCall("COUNT", ColumnRef("*")), right=_lit(n))
    query = _join_query(
        child, child_col, parent, parent_col,
        [SelectItem(ColumnRef(column=parent_name.name, table=parent.name))],
        group_by=(ColumnRef(column=parent_name.name, table=parent.name),),
        having=having,
    )
    return GeneratedExample(question, query)


def t_join3(ctx: TemplateContext) -> Optional[GeneratedExample]:
    """Three-table join along an FK chain (child → mid → top)."""
    pairs = ctx.fk_pairs()
    chains = []
    for child, child_col, mid, mid_col in pairs:
        for mid2, mid2_col, top, top_col in pairs:
            if mid2.name == mid.name and top.name not in (child.name, mid.name):
                chains.append(
                    (child, child_col, mid, mid_col, mid2_col, top, top_col)
                )
    if not chains:
        return None
    child, child_col, mid, mid_col, mid2_col, top, top_col = ctx.rng.choice(chains)
    top_name = ctx.name_column(top)
    nums = ctx.numeric_columns(child)
    if top_name is None or not nums:
        return None
    num = ctx.rng.choice(nums)
    threshold = ctx.threshold(child, num)
    if threshold is None:
        return None
    question = (
        f"List the {_col_phrase(top_name)} of {_table_phrase(top)} whose "
        f"{_table_phrase(mid)} have {_table_phrase(child)} with "
        f"{_col_phrase(num)} greater than {threshold}."
    )
    on_mid = Comparison(
        op="=",
        left=ColumnRef(column=child_col, table=child.name),
        right=ColumnRef(column=mid_col, table=mid.name),
    )
    on_top = Comparison(
        op="=",
        left=ColumnRef(column=mid2_col, table=mid.name),
        right=ColumnRef(column=top_col, table=top.name),
    )
    where = Comparison(
        op=">", left=ColumnRef(column=num.name, table=child.name),
        right=_lit(threshold),
    )
    query = Query(
        core=SelectCore(
            items=(SelectItem(
                ColumnRef(column=top_name.name, table=top.name)),),
            from_clause=FromClause(
                source=TableRef(name=child.name),
                joins=(
                    Join(source=TableRef(name=mid.name), condition=on_mid),
                    Join(source=TableRef(name=top.name), condition=on_top),
                ),
            ),
            where=where,
            distinct=True,
        )
    )
    return GeneratedExample(question, query)


def t_year_filter(ctx: TemplateContext) -> Optional[GeneratedExample]:
    """Filter a date column to one year via LIKE 'YYYY%'."""
    table = ctx.pick_table()
    time_cols = [c for c in table.columns if c.ctype == "time"]
    out_cols = ctx.plain_columns(table)
    if not time_cols or not out_cols:
        return None
    tcol = ctx.rng.choice(time_cols)
    out = ctx.rng.choice([c for c in out_cols if c.name != tcol.name] or out_cols)
    values = [str(v) for v in ctx.values(table, tcol)]
    if not values:
        return None
    year = ctx.rng.choice(values)[:4]
    question = _phrase(ctx, [
        f"List the {_col_phrase(out)} of {_table_phrase(table)} whose "
        f"{_col_phrase(tcol)} is in {year}.",
        f"Show the {_col_phrase(out)} of {_table_phrase(table)} with a "
        f"{_col_phrase(tcol)} in the year {year}.",
    ])
    where = LikeCondition(expr=_col(table, tcol),
                          pattern=Literal(f"{year}%", "string"))
    query = _select(table, [SelectItem(_col(table, out))], where=where)
    return GeneratedExample(question, query)


#: All templates, tagged with a difficulty weight (heavier = sampled more).
TEMPLATES: List[Tuple[TemplateFn, int]] = [
    (t_list_column, 2),
    (t_two_columns, 2),
    (t_count_all, 2),
    (t_distinct, 1),
    (t_count_distinct, 1),
    (t_simple_agg, 2),
    (t_filter_numeric, 3),
    (t_filter_text, 3),
    (t_order_limit, 5),
    (t_order_all, 3),
    (t_group_count, 3),
    (t_agg_filtered, 4),
    (t_like, 3),
    (t_count_filtered, 3),
    (t_between, 2),
    (t_join_filter, 6),
    (t_group_having, 4),
    (t_argmax_group, 4),
    (t_above_average, 4),
    (t_eq_extreme, 4),
    (t_join_group_count, 4),
    (t_two_conditions, 3),
    (t_or_conditions, 2),
    (t_join_agg, 4),
    (t_most_children, 4),
    (t_not_in, 4),
    (t_in_subquery, 3),
    (t_intersect, 3),
    (t_union, 3),
    (t_except, 3),
    (t_join_having, 3),
    (t_join3, 3),
    (t_year_filter, 2),
]


def generate_examples(
    schema: DatabaseSchema,
    data: Rows,
    count: int,
    seed: int = 0,
    database: Optional[Database] = None,
) -> List[GeneratedExample]:
    """Generate up to ``count`` distinct examples for one database.

    Every gold query is executed against ``database`` (the caller's
    build of ``schema`` and ``data``; a temporary one is built and
    closed when it is ``None``) and discarded if it fails (a structural
    bug) — empty results are allowed for a small fraction, mirroring
    Spider.
    """
    rng = rng_from("questions", schema.db_id, str(seed))
    ctx = TemplateContext(schema, data, rng)
    weighted = [fn for fn, weight in TEMPLATES for _ in range(weight)]

    owned = database is None
    if owned:
        database = Database.build(schema, data)
    seen = set()
    out: List[GeneratedExample] = []
    empty_allowed = max(2, count // 8)
    empties = 0
    attempts = 0
    max_attempts = count * 60
    try:
        while len(out) < count and attempts < max_attempts:
            attempts += 1
            template = rng.choice(weighted)
            example = template(ctx)
            if example is None:
                continue
            key = (example.question, example.sql)
            if key in seen:
                continue
            rows = database.try_execute(example.sql)
            if rows is None:
                continue
            if not rows:
                if empties >= empty_allowed:
                    continue
                empties += 1
            seen.add(key)
            out.append(example)
    finally:
        if owned:
            database.close()
    return out
