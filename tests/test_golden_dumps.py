"""The four dumps of scripts/ match the SHA-256 pinned in golden_dumps.json.

The dumps (dump_verify, dump_reduce, dump_solve and dump_certification)
carry no timings and are identical from run to run, so a changed hash is a
changed result.  A change that means to change a dump updates its pin in
the same commit: write the four dumps with the scripts into one directory,
as DIR/dump_verify.json and so on, and run

    PYTHONPATH=src python tests/test_golden_dumps.py DIR

On a mismatch the test writes the new dump to a temporary path and names
its first record whose digest differs from the pinned one.  A record is an
item of a list of objects, down to items that hold no such list; the rest
of an object that holds one is a record of its own.  The pins were taken
with Python 3.11 and mpmath 1.3, and the failure message gives the
versions of the run.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import pathlib
import platform
import sys

import mpmath
import pytest

PINS = pathlib.Path(__file__).with_name("golden_dumps.json")
SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
NAMES = ("dump_verify", "dump_reduce", "dump_solve", "dump_certification")


def load_script(name: str):
    """The module scripts/<name>.py."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _is_table(value) -> bool:
    """A nonempty list of objects."""
    return isinstance(value, list) and bool(value) and all(isinstance(v, dict) for v in value)


def _holds_table(value) -> bool:
    return _is_table(value) or (isinstance(value, dict)
                                and any(map(_holds_table, value.values())))


def records(obj, path: str = "$"):
    """The (path, record) pairs of a parsed dump, in document order."""
    if _is_table(obj):
        for i, item in enumerate(obj):
            yield from records(item, f"{path}[{i}]")
    elif isinstance(obj, dict) and any(map(_holds_table, obj.values())):
        yield path, {k: v for k, v in obj.items() if not _holds_table(v)}
        for key, value in sorted(obj.items()):
            if _holds_table(value):
                yield from records(value, f"{path}.{key}")
    else:
        yield path, obj


def _digest(record) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:8]


def pin(text: str) -> dict:
    """The SHA-256 of a dump's text and the digest of each of its records."""
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "records": " ".join(_digest(r) for _, r in records(json.loads(text)))}


def check(name: str, text: str, tmp_path, pins: pathlib.Path = PINS) -> None:
    pinned = json.loads(pins.read_text())[name]
    if hashlib.sha256(text.encode()).hexdigest() == pinned["sha256"]:
        return
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    old = pinned["records"].split()
    new = list(records(json.loads(text)))
    first = next((p for (p, r), d in zip(new, old) if _digest(r) != d), None)
    if first is None:
        first = (f"record {min(len(new), len(old))}: the dump has {len(new)} records,"
                 f" the pin {len(old)}" if len(new) != len(old)
                 else "no record: the text's layout")
    pytest.fail(f"{name} differs from its pin from {first} on; the new dump is at"
                f" {path} (Python {platform.python_version()}, mpmath"
                f" {mpmath.__version__}; pinned with Python 3.11, mpmath 1.3)")


@pytest.mark.parametrize("name", NAMES[:3])
def test_dump_matches_its_pin(name, tmp_path):
    check(name, load_script(name).dump_text(), tmp_path)


def test_certification_dump_matches_its_pin(certification_reports, tmp_path):
    """The reports are criterion 6's, certified once per session."""
    check("dump_certification",
          load_script("dump_certification").dump_text(certification_reports), tmp_path)


def test_records_name_the_first_difference(tmp_path):
    text = json.dumps({"a": 1, "ops": [{"x": 1}, {"x": 2, "r": {"cells": [{"y": 3}]}}]})
    assert [p for p, _ in records(json.loads(text))] == [
        "$", "$.ops[0]", "$.ops[1]", "$.ops[1].r", "$.ops[1].r.cells[0]"]
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps({"toy": pin(text)}))
    check("toy", text, tmp_path, pins)
    with pytest.raises(pytest.fail.Exception, match=r"from \$\.ops\[1\]\.r\.cells\[0\] on"):
        check("toy", text.replace('"y": 3', '"y": 4'), tmp_path, pins)


if __name__ == "__main__":
    directory = pathlib.Path(sys.argv[1])
    PINS.write_text(json.dumps(
        {name: pin((directory / f"{name}.json").read_text()) for name in NAMES},
        indent=1, sort_keys=True) + "\n")
