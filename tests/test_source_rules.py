"""Rules on the package source, checked by reading its files."""

from __future__ import annotations

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sospgrid"

# A float() on the way to a rational drops a >= 128-bit value to 53 bits.
FLOAT_TO_RATIONAL = re.compile(r"(Fraction|_frac|to_fraction)\(float\(")


def test_no_float_round_trip_to_rational():
    """High-precision values become rational only through to_fraction, which
    is exact, and user text only through Fraction(text), which parses every
    decimal, exponent and p/q form."""
    hits = [f"{path.name}:{lineno}"
            for path in sorted(SRC.glob("*.py"))
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if FLOAT_TO_RATIONAL.search(line)]
    assert hits == []


# A click option read through float.
FLOAT_OPTION = re.compile(r"\bFloatRange\b|\btype\s*=\s*float\b")


def test_cli_reads_no_option_as_float():
    """cli.py reads every number from user text with Fraction(text): no
    option is a click.FloatRange or has type=float."""
    path = SRC / "cli.py"
    hits = [f"{path.name}:{lineno}"
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if FLOAT_OPTION.search(line)]
    assert hits == []


# A float() call on anything but the "inf" literal.
FLOAT_CALL = re.compile(r'\bfloat\((?!"inf"\))')


def test_exact_modules_make_no_float():
    """The solver, the stationarity tests and the reduction hold rational
    and high-precision values only: snap_solver.py, stationarity.py and
    localopt_reduction.py call float() only to spell infinity."""
    names = ("snap_solver.py", "stationarity.py", "localopt_reduction.py")
    hits = [f"{name}:{lineno}" for name in names
            for lineno, line in enumerate((SRC / name).read_text().splitlines(), 1)
            if FLOAT_CALL.search(line)]
    assert hits == []


HP_BACKEND_IMPORT = re.compile(r"^\s*(import|from)\s+(mpmath|gmpy2)\b")


def test_hp_backend_imported_only_by_precision():
    """The high-precision backend stays behind _precision.py: no other module
    of the package imports mpmath or gmpy2."""
    hits = [f"{path.name}:{lineno}"
            for path in sorted(SRC.glob("*.py")) if path.name != "_precision.py"
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if HP_BACKEND_IMPORT.search(line)]
    assert hits == []


# The fields of an mpf: its (mantissa, exponent) pair or its raw tuple.
MPF_INTERNALS = re.compile(r"\b(man_exp|_mpf_)\b")


def test_mpf_internals_read_only_by_precision():
    """Only _precision.py reads an mpf's mantissa and exponent (to_ratio):
    every other module turns an hp value into integers through it."""
    hits = [f"{path.name}:{lineno}"
            for path in sorted(SRC.glob("*.py")) if path.name != "_precision.py"
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if MPF_INTERNALS.search(line)]
    assert hits == []
    assert MPF_INTERNALS.search((SRC / "_precision.py").read_text())


# hp(0.06) is the 53-bit double nearest 0.06, not 0.06.
HP_FLOAT_LITERAL = re.compile(r"\bhp\(\s*[-+]?(\d+\.\d*|\.\d+|\d+[eE])")


def test_no_hp_of_a_float_literal():
    """A constant that feeds high-precision arithmetic is written as a
    Fraction, so that hp() rounds its exact value once."""
    hits = [f"{path.name}:{lineno}"
            for path in sorted(SRC.glob("*.py"))
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if HP_FLOAT_LITERAL.search(line)]
    assert hits == []


def test_instance_data_cached_only_by_the_patch_lru():
    """HardInstance's patch LRU is the one cache of instance data, and each
    polytope's own _frames the one store of face frames: no module uses
    lru_cache, only hard_instance.py names _cache, and only stationarity.py
    names _frames."""
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert "hard_instance.py" in sources and "stationarity.py" in sources

    def naming(pattern):
        return [name for name, text in sources.items() if re.search(pattern, text)]

    assert naming(r"lru_cache") == []
    assert naming(r"\b_cache\b") == ["hard_instance.py"]
    assert naming(r"\b_frames\b") == ["stationarity.py"]


# A high-precision helper, or a patch evaluated in high precision.
HP_IN_CERTIFIER = re.compile(r"\bhp\(|\bhp_sqrt\b|\bhp_quotient\b|exact=False")


def test_box_certifier_computes_in_integers_and_rationals():
    """The certifier decides samples and locates points in integers and
    rationals: box_certifier.py names no high-precision helper and
    evaluates no patch in high precision."""
    path = SRC / "box_certifier.py"
    hits = [f"{path.name}:{lineno}"
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if HP_IN_CERTIFIER.search(line)]
    assert hits == []


# The eigen solver, tolerance and projector names the package no longer has,
# and the definition of any eigen solver but eigen_2x2.
NOT_EIGEN_2X2 = re.compile(
    r"\b(_jacobi_eigen|symmetric_eigen|delta_eig|projector_from_rows)\b"
    r"|\bdef (?!eigen_2x2\()\w*eigen\w*\(")


def test_eigen_2x2_is_the_only_eigen_solver():
    """Curvature is read on a null space of dimension at most 2, so the
    closed-form eigen_2x2 is the package's one eigen solver: no Jacobi
    sweep, eigen tolerance or null-space projector appears in the source."""
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert "def eigen_2x2(" in sources["stationarity.py"]
    hits = [f"{name}:{lineno}" for name, text in sources.items()
            for lineno, line in enumerate(text.splitlines(), 1)
            if NOT_EIGEN_2X2.search(line)]
    assert hits == []


# The names of the second and third face builders and of a second PSD
# test, which the face frame and _psd_ratios replaced.
NOT_FACE_FRAME = re.compile(r"\b(independent_rows|tangent_frame|ActiveSet|is_psd)\b")


def test_face_frame_is_the_only_face_builder():
    """The active set, the lattice face and the affine projection all read
    stationarity.face_frame: no second null-space or rank routine appears
    in the source, and the one PSD test is stationarity._psd_ratios."""
    hits = [f"{path.name}:{lineno}"
            for path in sorted(SRC.glob("*.py"))
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if NOT_FACE_FRAME.search(line)]
    assert hits == []


SUBSET_ENUMERATION = re.compile(r"\bcombinations\b")


def test_no_subset_enumeration():
    """The projection walks its active set and the PSD test eliminates, so
    no module enumerates row or index subsets: itertools.combinations
    appears nowhere in the source (its brute-force uses are the tests'
    references)."""
    hits = [f"{path.name}:{lineno}"
            for path in sorted(SRC.glob("*.py"))
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if SUBSET_ENUMERATION.search(line)]
    assert hits == []


NUMPY_IMPORT = re.compile(r"^\s*(import|from)\s+numpy\b")


def test_package_imports_no_numpy():
    """Every patch number is a Python integer and every sample grid a list
    of rows, so no module of the package imports numpy."""
    hits = [f"{path.name}:{lineno}"
            for path in sorted(SRC.glob("*.py"))
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if NUMPY_IMPORT.search(line)]
    assert hits == []


# A Fraction, a high-precision helper or backend, or a float() call.
NOT_INTEGERS = re.compile(
    r"\bfractions?\b|\bFraction\b|\b(hp|hp_sqrt|hp_quotient|_precision|mpmath|gmpy2)\b"
    r"|\bfloat\(")


def test_bernstein_computes_in_integers_only():
    """The enclosure engine holds Python integers only: bernstein.py imports
    no Fraction, names no high-precision helper and calls no float().  A
    Fraction basis change took 85 % of an earlier prototype's time."""
    path = SRC / "bernstein.py"
    hits = [f"{path.name}:{lineno}"
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if NOT_INTEGERS.search(line)]
    assert hits == []


SCRIPTS = SRC.parents[1] / "scripts"
# The Fraction twins of steps that are decided, and read, as integer ratios.
RETIRED_TWINS = ("tangent_hessian", "slacks", "lattice_steps", "_ceil_sqrt_rational",
                 "_fraction_rows")
TWIN_DEF_OR_CALL = re.compile(r"\b(%s)\s*\(" % "|".join(RETIRED_TWINS))


def test_each_step_has_one_form():
    """R = B^T H B, the slacks, the lattice steps and the square-root bound
    each exist once, as the integer ratios that decide them: no module of
    the package defines a Fraction twin of them, and neither the package
    nor the scripts call one."""
    paths = sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    assert len(paths) > len(list(SRC.glob("*.py")))
    hits = [f"{path.name}:{lineno}"
            for path in paths
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if TWIN_DEF_OR_CALL.search(line)]
    assert hits == []


# A frozenset or set built by a call or a set comprehension.
BUILT_SET = re.compile(r"\b(frozenset|set)\(|\{[^{}:]*\bfor\b[^{}:]*\}")


def test_color_field_builds_no_node_set():
    """The node sets are views of one table of C, so that a build keeps one
    entry per node: color_field.py builds no frozenset or set, each of
    which would hold O(2^n) nodes."""
    path = SRC / "color_field.py"
    hits = [f"{path.name}:{lineno}"
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if BUILT_SET.search(line)]
    assert hits == []


# A coordinate k/1000 with k drawn from 1..999: the solve start's draw.
SOLVE_START = re.compile(r"randrange\(1,\s*1000\),\s*1000\)")


def test_solve_start_is_written_once():
    """The start point of `sospgrid solve --seed s` is cli.solve_start: no
    other file of the package, the scripts or the tests draws it again."""
    paths = (sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
             + sorted(pathlib.Path(__file__).parent.glob("*.py")))
    hits = [path.name for path in paths if SOLVE_START.search(path.read_text())]
    assert hits == ["cli.py"]


# The ITER rule "C(v) < v, or C(v) > v and ...", with any names for v, C(v).
ITER_RULE = re.compile(r"\b(\w+) < (\w+) or \(\1 > \2\b")


def test_iter_rule_is_written_once():
    """iter_problems.solves is the one statement of the ITER rule: the
    solution view of color_field and iter_is_solution both read it."""
    hits = [path.name for path in sorted(SRC.glob("*.py"))
            if ITER_RULE.search(path.read_text())]
    assert hits == ["iter_problems.py"]


# The second cell lookup and grid geometry that the integer lookup replaced.
SECOND_LOOKUP = re.compile(r"\bGridGeometry\b|\bdecode_solution\b|\bdef locate\b")


def test_one_cell_lookup():
    """A point's cell is found once, in integers (HardInstance._cell_point),
    for evaluate, value and decode_scaled alike: hard_instance.py takes no
    floor, and no file of the package or the scripts defines or calls a
    second lookup or a second statement of N."""
    assert "floor(" not in (SRC / "hard_instance.py").read_text()
    hits = [f"{path.name}:{lineno}"
            for path in sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if SECOND_LOOKUP.search(line)]
    assert hits == []
