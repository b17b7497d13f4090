"""SQL toolkit: tokenizer, parser, AST, unparser, canonical forms and alias
resolution, skeletons, and the Spider hardness rubric."""

from .ast_nodes import (
    AndCondition,
    BetweenCondition,
    BinaryExpr,
    CaseExpr,
    ColumnRef,
    Comparison,
    Condition,
    ExistsCondition,
    Expr,
    FromClause,
    FuncCall,
    InCondition,
    IsNullCondition,
    Join,
    LikeCondition,
    Literal,
    NotCondition,
    OrCondition,
    OrderItem,
    Query,
    SelectCore,
    SelectItem,
    SubqueryTable,
    TableRef,
    iter_column_refs,
    iter_conditions,
    iter_subqueries,
)
from .canonical import (
    canonical_fingerprint,
    canonicalize,
    canonicalize_condition,
    condition_keys,
    core_components,
    expr_key,
    leaf_key,
    query_key,
    resolve_aliases,
)
from .dialect import (
    REFERENCE_DIALECT,
    DialectProfile,
    dialect_names,
    get_dialect,
    reference_dialect,
    register_dialect,
)
from .hardness import HARDNESS_LEVELS, hardness
from .parser import parse, parse_scope, try_parse
from .skeleton import (
    query_signature,
    skeleton_similarity,
    skeleton_tokens,
    sql_skeleton,
)
from .tokens import Token, TokenType, tokenize
from .transpile import (
    normalize_to_reference,
    parse_dialect,
    render,
    transpile,
)
from .unparse import unparse

__all__ = [
    "AndCondition", "BetweenCondition", "BinaryExpr", "CaseExpr", "ColumnRef",
    "Comparison", "Condition", "ExistsCondition", "Expr", "FromClause",
    "FuncCall", "InCondition", "IsNullCondition", "Join", "LikeCondition",
    "Literal", "NotCondition", "OrCondition", "OrderItem", "Query",
    "SelectCore", "SelectItem", "SubqueryTable", "TableRef",
    "iter_column_refs", "iter_conditions", "iter_subqueries",
    "HARDNESS_LEVELS", "hardness", "parse", "parse_scope", "try_parse",
    "query_signature", "skeleton_similarity", "skeleton_tokens", "sql_skeleton",
    "Token", "TokenType", "tokenize", "unparse",
    "DialectProfile", "REFERENCE_DIALECT", "dialect_names", "get_dialect",
    "reference_dialect", "register_dialect", "normalize_to_reference",
    "parse_dialect", "render", "transpile",
    "canonical_fingerprint", "canonicalize", "canonicalize_condition",
    "condition_keys", "core_components", "expr_key", "leaf_key", "query_key",
    "resolve_aliases",
]
