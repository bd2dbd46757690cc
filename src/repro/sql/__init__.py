"""SQL front-end: tokenizer, AST, parser, evaluation and text features.

This subpackage implements the SQL subset needed by the reproduction:
single-block SELECT queries with joins, conjunctive/disjunctive predicates,
grouping, aggregation, ordering, limits and nested subqueries (``IN`` /
``EXISTS``).  The parser produces an AST (:mod:`repro.sql.ast`) consumed by
the optimizer, and :mod:`repro.sql.text_features` derives the SQL-text
feature vector evaluated (and rejected) in Section VI-D.1 of the paper.
"""
