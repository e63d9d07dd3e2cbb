"""Shared fixtures."""

import pytest

import repro


@pytest.fixture
def db() -> repro.Database:
    """A fresh in-memory database per test."""
    return repro.Database()


def _load_people(db: repro.Database) -> repro.Database:
    db.execute(
        "CREATE TABLE people (id INTEGER, name VARCHAR, age INTEGER, "
        "city VARCHAR)"
    )
    db.insert_rows(
        "people",
        [
            (1, "alice", 34, "munich"),
            (2, "bob", 28, "venice"),
            (3, "carol", 41, "munich"),
            (4, "dave", None, "oslo"),
            (5, "erin", 28, None),
        ],
    )
    db.execute(
        "CREATE TABLE orders (order_id INTEGER, person_id INTEGER, "
        "amount FLOAT)"
    )
    db.insert_rows(
        "orders",
        [
            (100, 1, 25.0),
            (101, 1, 75.0),
            (102, 2, 10.0),
            (103, 3, 99.5),
            (104, 9, 1.0),  # dangling person_id
        ],
    )
    return db


@pytest.fixture
def people_db(db: repro.Database) -> repro.Database:
    """A small schema used across relational tests."""
    return _load_people(db)


@pytest.fixture
def people_db_fullsort() -> repro.Database:
    """The people schema with top-N sort fusion disabled, so ORDER BY +
    LIMIT keeps the separate Sort and Limit operators."""
    return _load_people(repro.Database(topn=False))
