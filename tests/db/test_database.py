"""Integration tests for the Database facade and catalog."""

import pytest

from repro.db.database import Database
from repro.errors import QueryError

EMPLOYEES = [
    ("production", "part-time", 24, 32, 0),
    ("marketing", "director", 12, 31, 1),
    ("management", "worker1", 29, 21, 2),
    ("marketing", "worker2", 30, 42, 3),
    ("management", "supervisor", 27, 27, 4),
    ("production", "secretary", 23, 25, 5),
    ("production", "secretary", 34, 28, 6),
    ("production", "worker1", 32, 37, 7),
    ("marketing", "worker2", 39, 37, 8),
    ("production", "executive", 31, 25, 9),
]
COLUMNS = ["department", "job", "years", "hours", "empno"]


@pytest.fixture
def db():
    database = Database(block_size=512)
    database.create_table(
        "emp", EMPLOYEES, columns=COLUMNS, secondary_on=["years", "empno"]
    )
    return database


class TestCreateAndQuery:
    def test_full_pipeline_round_trip(self, db):
        rows, result = db.select_values("emp", "years", 0, 99)
        assert sorted(rows, key=lambda r: r[4]) == sorted(
            EMPLOYEES, key=lambda r: r[4]
        )

    def test_range_query_with_application_values(self, db):
        rows, result = db.select_values("emp", "years", 30, 35)
        expected = [r for r in EMPLOYEES if 30 <= r[2] <= 35]
        assert sorted(rows, key=lambda r: r[4]) == sorted(
            expected, key=lambda r: r[4]
        )
        assert result.access_path == "secondary:years"

    def test_query_on_clustered_attribute(self, db):
        rows, result = db.select_values("emp", "department",
                                        "management", "management")
        assert result.access_path == "primary"
        assert all(r[0] == "management" for r in rows)
        assert len(rows) == 2

    def test_inverted_value_range_rejected(self, db):
        # categorical order: management < marketing < production
        with pytest.raises(QueryError):
            db.select_values("emp", "department", "production", "management")

    def test_range_outside_the_domain_selects_nothing(self, db):
        # years spans 12..39; a clamp per bound would return the rows
        # at the edges (12 and 39).
        for lo, hi in ((50, 60), (0, 5)):
            rows, result = db.select_values("emp", "years", lo, hi)
            assert rows == []
            assert result.blocks_read == 0
        rows, _ = db.select_values("emp", "years", 35, 99)
        assert sorted(r[2] for r in rows) == [39]

    def test_unknown_table_rejected(self, db):
        with pytest.raises(QueryError):
            db.table("nope")

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(QueryError):
            db.create_table("emp", EMPLOYEES, columns=COLUMNS)

    def test_drop_table(self, db):
        db.drop_table("emp")
        assert "emp" not in db.catalog
        with pytest.raises(QueryError):
            db.drop_table("emp")


class TestMutationThroughFacade:
    def test_insert_values(self, db):
        db.insert_values("emp", ("production", "worker1", 25, 25, 9))
        rows, _ = db.select_values("emp", "empno", 9, 9)
        assert len(rows) == 2

    def test_delete_values(self, db):
        assert db.delete_values("emp", ("marketing", "director", 12, 31, 1))
        rows, _ = db.select_values("emp", "empno", 1, 1)
        assert rows == []

    def test_delete_missing_values(self, db):
        assert not db.delete_values(
            "emp", ("marketing", "director", 12, 31, 0)
        )


class TestStorageReport:
    def test_report_shape(self, db):
        (report,) = db.storage_report()
        assert report["table"] == "emp"
        assert report["compressed"] is True
        assert report["tuples"] == len(EMPLOYEES)
        assert report["blocks"] >= 1
        assert report["bytes"] == report["blocks"] * 512

    def test_compressed_smaller_than_uncompressed(self):
        db = Database(block_size=512)
        rows = EMPLOYEES * 100
        db.create_table("coded", rows, columns=COLUMNS)
        db.create_table("plain", rows, columns=COLUMNS, compressed=False)
        report = {r["table"]: r for r in db.storage_report()}
        assert report["coded"]["blocks"] < report["plain"]["blocks"]
