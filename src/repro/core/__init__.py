"""The DAIL-SQL pipeline, baselines and rule-based parser."""

from .baselines import LeaderboardEntry, leaderboard_entries
from .dail_sql import DailSQL, DailSQLResult
from .rule_parser import ParseResult, RuleBasedParser

__all__ = [
    "LeaderboardEntry", "leaderboard_entries", "DailSQL", "DailSQLResult",
    "ParseResult", "RuleBasedParser",
]
