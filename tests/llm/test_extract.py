"""SQL extraction tests (post-processing of raw model output)."""

from repro.llm.extract import extract_sql


class TestExtraction:
    def test_plain_sql(self):
        assert extract_sql("SELECT a FROM t") == "SELECT a FROM t"

    def test_code_fence(self):
        text = "Here is the SQL query:\n```sql\nSELECT a FROM t\n```"
        assert extract_sql(text) == "SELECT a FROM t"

    def test_bare_fence(self):
        text = "```\nSELECT a FROM t\n```"
        assert extract_sql(text) == "SELECT a FROM t"

    def test_prose_prefix(self):
        text = "Sure! The answer is SELECT a FROM t"
        assert extract_sql(text) == "SELECT a FROM t"

    def test_trailing_explanation_line_dropped(self):
        text = "SELECT a FROM t\nThis query selects column a."
        assert extract_sql(text) == "SELECT a FROM t"

    def test_semicolon_truncates(self):
        assert extract_sql("SELECT a FROM t; extra garbage") == "SELECT a FROM t"

    def test_lead_in_completion(self):
        # The prompt ended with "SELECT"; the model continues the query.
        assert extract_sql("name FROM singer", response_prefix="SELECT") == \
            "SELECT name FROM singer"

    def test_statement_answer_is_not_prefixed(self):
        for text in ("DROP TABLE singer", "delete FROM singer",
                     "INSERT INTO t VALUES (1)", "UPDATE t SET a = 1",
                     "CREATE TABLE t (a)", "ALTER TABLE t ADD b",
                     "-- why\nPRAGMA table_info(t)"):
            assert extract_sql(text, response_prefix="SELECT") == text

    def test_keyword_called_as_function_is_a_completion(self):
        assert extract_sql("replace(name, 'a', 'b') FROM t") == \
            "SELECT replace(name, 'a', 'b') FROM t"

    def test_no_prefix_passthrough(self):
        assert extract_sql("name FROM t", response_prefix="") == "name FROM t"

    def test_empty(self):
        assert extract_sql("") == ""
        assert extract_sql("   \n  ") == ""

    def test_case_insensitive_select(self):
        assert extract_sql("select a from t") == "select a from t"

    def test_multiline_sql_kept(self):
        text = "SELECT a\nFROM t\nWHERE x = 1"
        assert extract_sql(text) == text

    def test_fenced_with_surrounding_prose(self):
        text = (
            "The following query works.\n```sql\nSELECT a FROM t\n```\n"
            "It uses table t."
        )
        assert extract_sql(text) == "SELECT a FROM t"


class TestMultiStatementHardening:
    """Fenced blocks with several statements and quoted semicolons."""

    def test_fenced_multi_statement_returns_first(self):
        text = "```sql\nSELECT name FROM singer;\nDROP TABLE singer;\n```"
        assert extract_sql(text) == "SELECT name FROM singer"

    def test_two_selects_returns_first(self):
        text = "```sql\nSELECT 1;\nSELECT 2\n```"
        assert extract_sql(text) == "SELECT 1"

    def test_semicolon_inside_literal_not_a_boundary(self):
        sql = "SELECT name FROM singer WHERE note = 'a;b' ORDER BY name"
        assert extract_sql(sql) == sql

    def test_semicolon_inside_double_quotes_not_a_boundary(self):
        sql = 'SELECT name FROM singer WHERE note = "x;y"'
        assert extract_sql(sql) == sql

    def test_doubled_quote_escape_respected(self):
        sql = "SELECT name FROM singer WHERE note = 'it''s;ok'"
        assert extract_sql(sql) == sql

    def test_trailing_semicolon_only(self):
        assert extract_sql("SELECT a FROM t;") == "SELECT a FROM t"
