import copy
import csv

import pytest
import yaml

from reltree.schema import catalog_from_dict
from reltree.storage import build_database

# Hand-built five-table school database.  Lupin teaches two courses whose
# enrollments reach students with grades {8, 10, 12}; Snape's single course
# reaches one missing grade and one 8; Binns has a dangling movie reference
# and no courses; Sprout has a movie but no courses either.
SCHOOL_DOC = {
    "target": "Professor.popular",
    "tables": [
        {
            "name": "Professor",
            "file": "professor.csv",
            "columns": [{"PID": "pk"}, {"MID": "fk(Movie.MID)"}, {"popular": "cat"}],
        },
        {
            "name": "Course",
            "file": "course.csv",
            "columns": [{"CID": "pk"}, {"PID": "fk(Professor.PID)"}, {"credits": "num"}],
        },
        {
            "name": "Enrolled",
            "file": "enrolled.csv",
            "columns": [{"EID": "pk"}, {"CID": "fk(Course.CID)"}, {"SID": "fk(Student.SID)"}],
        },
        {"name": "Student", "file": "student.csv", "columns": [{"SID": "pk"}, {"grade": "num"}]},
        {"name": "Movie", "file": "movie.csv", "columns": [{"MID": "pk"}, {"genre": "cat"}]},
    ],
}

SCHOOL_ROWS = {
    "Professor": [
        {"PID": "p_lupin", "MID": "m1", "popular": "yes"},
        {"PID": "p_snape", "MID": "m2", "popular": "no"},
        {"PID": "p_binns", "MID": "m_gone", "popular": "no"},
        {"PID": "p_sprout", "MID": "m2", "popular": "yes"},
    ],
    "Course": [
        {"CID": "c1", "PID": "p_lupin", "credits": "3"},
        {"CID": "c2", "PID": "p_lupin", "credits": "6"},
        {"CID": "c3", "PID": "p_snape", "credits": "3"},
    ],
    "Enrolled": [
        {"EID": "e1", "CID": "c1", "SID": "s1"},
        {"EID": "e2", "CID": "c1", "SID": "s2"},
        {"EID": "e3", "CID": "c2", "SID": "s3"},
        {"EID": "e4", "CID": "c3", "SID": "s4"},
        {"EID": "e5", "CID": "c3", "SID": "s1"},
    ],
    "Student": [
        {"SID": "s1", "grade": "8"},
        {"SID": "s2", "grade": "10"},
        {"SID": "s3", "grade": "12"},
        {"SID": "s4", "grade": ""},
    ],
    "Movie": [
        {"MID": "m1", "genre": "comedy"},
        {"MID": "m2", "genre": "drama"},
    ],
}


def school_doc():
    return copy.deepcopy(SCHOOL_DOC)


def school_rows():
    return copy.deepcopy(SCHOOL_ROWS)


@pytest.fixture
def school_catalog():
    return catalog_from_dict(school_doc())


@pytest.fixture
def school_db(school_catalog):
    return build_database(school_catalog, school_rows())


def write_school_files(directory):
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "schema.yaml", "w", encoding="utf-8") as fh:
        yaml.safe_dump(school_doc(), fh, sort_keys=False)
    for entry in SCHOOL_DOC["tables"]:
        cols = [next(iter(c)) for c in entry["columns"]]
        with open(directory / entry["file"], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for row in SCHOOL_ROWS[entry["name"]]:
                writer.writerow([row[c] for c in cols])
    return directory / "schema.yaml"


@pytest.fixture
def school_dir(tmp_path):
    write_school_files(tmp_path / "school")
    return tmp_path / "school"
