"""Unit tests for schemas, constraint enforcement, and table access paths."""

import pytest

from repro.relational import (
    Column,
    ConstraintViolation,
    Database,
    DataType,
    ForeignKey,
    SchemaError,
    Table,
    TableSchema,
    UniqueConstraint,
)


def protein_schema() -> TableSchema:
    return TableSchema(
        name="protein",
        columns=[
            Column("protein_id", DataType.INTEGER, nullable=False),
            Column("accession", DataType.TEXT),
            Column("name", DataType.TEXT),
            Column("length", DataType.INTEGER),
        ],
        primary_key=("protein_id",),
        unique_constraints=[UniqueConstraint(("accession",))],
    )


class TestSchemaValidation:
    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a"), Column("a")])

    def test_pk_must_reference_existing_column(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a")], primary_key=("missing",))

    def test_identifiers_are_lowercased(self):
        schema = TableSchema("MyTable", [Column("MyCol")])
        assert schema.name == "mytable"
        assert schema.column_names == ["mycol"]

    def test_bad_identifier_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("1table", [Column("a")])
        with pytest.raises(SchemaError):
            Column("has space")

    def test_fk_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            ForeignKey(("a", "b"), "t", ("x",))

    def test_declared_unique_columns(self):
        schema = protein_schema()
        assert schema.declared_unique_columns() == ["protein_id", "accession"]

    def test_without_constraints_strips_everything(self):
        stripped = protein_schema().without_constraints()
        assert stripped.primary_key is None
        assert stripped.unique_constraints == []
        assert stripped.foreign_keys == []
        assert stripped.column_names == protein_schema().column_names


class TestTableInsert:
    def test_insert_and_read_back(self):
        table = Table(protein_schema())
        table.insert({"protein_id": 1, "accession": "P12345", "name": "p53", "length": 393})
        rows = list(table.rows())
        assert rows == [
            {"protein_id": 1, "accession": "P12345", "name": "p53", "length": 393}
        ]

    def test_missing_columns_become_null(self):
        table = Table(protein_schema())
        table.insert({"protein_id": 1})
        assert table.row_at(0)["accession"] is None

    def test_primary_key_duplicate_rejected(self):
        table = Table(protein_schema())
        table.insert({"protein_id": 1, "accession": "P1"})
        with pytest.raises(ConstraintViolation):
            table.insert({"protein_id": 1, "accession": "P2"})

    def test_unique_constraint_enforced(self):
        table = Table(protein_schema())
        table.insert({"protein_id": 1, "accession": "P1"})
        with pytest.raises(ConstraintViolation):
            table.insert({"protein_id": 2, "accession": "P1"})

    def test_nulls_do_not_collide_in_unique_index(self):
        table = Table(protein_schema())
        table.insert({"protein_id": 1, "accession": None})
        table.insert({"protein_id": 2, "accession": None})
        assert len(table) == 2

    def test_not_null_enforced(self):
        table = Table(protein_schema())
        with pytest.raises(ConstraintViolation):
            table.insert({"protein_id": None, "accession": "P1"})

    def test_unknown_column_rejected(self):
        table = Table(protein_schema())
        with pytest.raises(KeyError):
            table.insert({"protein_id": 1, "bogus": 1})

    def test_values_coerced_from_strings(self):
        table = Table(protein_schema())
        table.insert({"protein_id": "7", "length": "100"})
        row = table.row_at(0)
        assert row["protein_id"] == 7
        assert row["length"] == 100


class TestTableAccess:
    def make_table(self) -> Table:
        table = Table(protein_schema())
        table.insert_many(
            [
                {"protein_id": 1, "accession": "P1", "name": "alpha", "length": 10},
                {"protein_id": 2, "accession": "P2", "name": "beta", "length": 20},
                {"protein_id": 3, "accession": "P3", "name": "alpha", "length": None},
            ]
        )
        return table

    def test_values_and_distinct(self):
        table = self.make_table()
        assert table.values("name") == ["alpha", "beta", "alpha"]
        assert table.distinct_values("name") == ["alpha", "beta"]
        assert table.non_null_values("length") == [10, 20]

    def test_is_unique_matches_sql_semantics(self):
        table = self.make_table()
        assert table.is_unique("accession")
        assert not table.is_unique("name")
        # NULLs are ignored: length has two distinct non-null values.
        assert table.is_unique("length")

    def test_lookup_unique_uses_index(self):
        table = self.make_table()
        row = table.lookup_unique("accession", "P2")
        assert row is not None and row["name"] == "beta"
        assert table.lookup_unique("accession", "NOPE") is None

    def test_lookup_unique_without_index_scans(self):
        table = self.make_table()
        row = table.lookup_unique("name", "beta")
        assert row is not None and row["protein_id"] == 2

    def test_find_where(self):
        table = self.make_table()
        assert len(table.find_where("name", "alpha")) == 2

    def test_delete_where_reindexes(self):
        table = self.make_table()
        deleted = table.delete_where(lambda r: r["name"] == "alpha")
        assert deleted == 2
        assert len(table) == 1
        # The index must be rebuilt: inserting a previously used key works.
        table.insert({"protein_id": 1, "accession": "P1"})
        assert len(table) == 2


class TestDatabase:
    def test_create_and_fetch(self):
        db = Database("src")
        db.create_table(protein_schema())
        assert db.table_names() == ["protein"]
        assert db.has_table("PROTEIN")

    def test_duplicate_table_rejected(self):
        db = Database("src")
        db.create_table(protein_schema())
        with pytest.raises(SchemaError):
            db.create_table(protein_schema())

    def test_foreign_key_check_reports_violations(self):
        db = Database("src")
        db.create_table(protein_schema())
        db.create_table(
            TableSchema(
                "feature",
                [Column("feature_id", DataType.INTEGER), Column("protein_id", DataType.INTEGER)],
                primary_key=("feature_id",),
                foreign_keys=[ForeignKey(("protein_id",), "protein", ("protein_id",))],
            )
        )
        db.insert("protein", {"protein_id": 1, "accession": "P1"})
        db.insert("feature", {"feature_id": 1, "protein_id": 1})
        db.insert("feature", {"feature_id": 2, "protein_id": 99})
        violations = db.check_foreign_keys()
        assert len(violations) == 1
        assert "99" in violations[0]

    def test_fk_nulls_are_not_violations(self):
        db = Database("src")
        db.create_table(protein_schema())
        db.create_table(
            TableSchema(
                "feature",
                [Column("feature_id", DataType.INTEGER), Column("protein_id", DataType.INTEGER)],
                foreign_keys=[ForeignKey(("protein_id",), "protein", ("protein_id",))],
            )
        )
        db.insert("feature", {"feature_id": 1, "protein_id": None})
        assert db.check_foreign_keys() == []

    def test_strip_constraints_keeps_data(self):
        db = Database("src")
        db.create_table(protein_schema())
        db.insert("protein", {"protein_id": 1, "accession": "P1"})
        stripped = db.strip_constraints()
        assert stripped.table("protein").schema.primary_key is None
        assert len(stripped.table("protein")) == 1

    def test_total_rows(self):
        db = Database("src")
        db.create_table(protein_schema())
        db.insert("protein", {"protein_id": 1})
        db.insert("protein", {"protein_id": 2})
        assert db.total_rows() == 2
