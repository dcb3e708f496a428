"""Command-line tools under tools/: the CSV byte contract, the CSV
comparison and the finder of statements that a traffic never runs; and
source checks of the package for module-level state."""

import ast
import importlib.util
import platform
import textwrap
from pathlib import Path

import numpy as np
import pytest


def load_tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


csv_digest = load_tool("csv_digest")
csv_reldiff = load_tool("csv_reldiff")
traffic_lines = load_tool("traffic_lines")


@pytest.mark.skipif(
    np.__version__ != csv_digest.RECORDED_NUMPY
    or platform.machine() not in ("x86_64", "AMD64"),
    reason=f"tools/fixed.sha256 was recorded with NumPy "
           f"{csv_digest.RECORDED_NUMPY} on x86-64; this is NumPy "
           f"{np.__version__} on {platform.machine()}, which may round differently")
def test_fixed_spec_csvs_match_committed_digests(tmp_path):
    # The byte contract of a refactor: the eight CSVs of tools/fixed.spec.
    lines = [csv_digest.digest_line(path) for path in csv_digest.write_csvs(tmp_path)]
    assert lines == csv_digest.DIGESTS.read_text().splitlines()

HEADER = "# comment line\nname,gain_db,value\n"


def write_dirs(tmp_path, before, after):
    """Two directories holding one CSV each (None leaves the file out)."""
    dirs = []
    for side, body in (("a", before), ("b", after)):
        path = tmp_path / side
        path.mkdir()
        if body is not None:
            (path / "out.csv").write_text(HEADER + body)
        dirs.append(str(path))
    return dirs


def test_identical_directories_exit_zero(tmp_path, capsys):
    body = "x,-inf,1.5\ny,nan,2.0\n"
    assert csv_reldiff.main(write_dirs(tmp_path, body, body)) == 0
    assert "numeric cells differing 0 of 2, worst relative change 0.00e+00" \
        in capsys.readouterr().out


def test_rounding_difference_is_reported_with_exit_zero(tmp_path, capsys):
    dirs = write_dirs(tmp_path, "x,-3.0,1.0\n", "x,-3.0,1.0000000000000002\n")
    assert csv_reldiff.main(dirs) == 0
    out = capsys.readouterr().out
    assert "numeric cells differing 1 of 2" in out
    assert "worst relative change 2.22e-16" in out


@pytest.mark.parametrize("before, after", [("1.0", "-inf"), ("2.0", "nan"),
                                           ("-inf", "inf"), ("nan", "1.0")])
def test_change_to_or_from_non_finite_exits_one(tmp_path, capsys, before, after):
    # max(0.0, nan) is 0.0, so these once read as "worst relative change 0".
    dirs = write_dirs(tmp_path, f"x,{before},1.0\n", f"x,{after},1.0\n")
    assert csv_reldiff.main(dirs) == 1
    assert "non-numeric or non-finite cells differing 1" in capsys.readouterr().out


def test_first_differing_non_numeric_cell_is_shown(tmp_path, capsys):
    # Rows count from the comment line; later differences are only counted.
    dirs = write_dirs(tmp_path, "x,1.0,2.0\ny,nan,3.0\n", "z,1.0,2.0\ny,inf,3.0\n")
    assert csv_reldiff.main(dirs) == 1
    assert ("non-numeric or non-finite cells differing 2, first at row 3 "
            "column 1: 'x' != 'z'" in capsys.readouterr().out)


def test_row_count_mismatch_names_each_side_and_compares_shared_rows(tmp_path, capsys):
    # The counts once printed as a bare "rows 3 != 4", easy to read backwards.
    a, b = write_dirs(tmp_path, "x,1.0,2.0\n", "x,1.0,2.5\ny,3.0,4.0\n")
    assert csv_reldiff.main([a, b]) == 1
    assert capsys.readouterr().out == (
        f"out.csv: rows {a}/ 3, {b}/ 4, numeric cells differing 1 of 2, "
        f"worst relative change 2.00e-01, rows only in {b}/ 1, first row 4\n")


def test_rows_pair_by_identifying_columns(tmp_path, capsys):
    # One more map mid-file once shifted every later row against another
    # (L, trial, iteration), reading as a relative change of 1 or more.
    header = "# comment line\nalgorithm,L,trial,iteration,objective,elapsed_ms\n"
    rows = [f"lc,{l},0,{it},{l + it}.5,0\n" for l in (10, 20) for it in range(3)]
    extra = "lc,10,0,3,13.5,0\n"
    a, b = tmp_path / "a", tmp_path / "b"
    for path, body in ((a, rows), (b, rows[:3] + [extra] + rows[3:])):
        path.mkdir()
        (path / "conv.csv").write_text(header + "".join(body))
    assert csv_reldiff.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == (
        f"conv.csv: rows {a}/ 8, {b}/ 9, numeric cells differing 0 of 30, "
        f"worst relative change 0.00e+00, rows only in {b}/ 1, first row 6 "
        f"(algorithm=lc L=10 trial=0 iteration=3)\n")


def test_missing_file_exits_one(tmp_path, capsys):
    assert csv_reldiff.main(write_dirs(tmp_path, "x,1.0,2.0\n", None)) == 1
    assert "out.csv: missing on one side" in capsys.readouterr().out


SOURCE = textwrap.dedent('''\
    """Module docstring."""


    @staticmethod
    def f(x, y=(1,
                2)):
        """Function docstring."""
        global G
        try:
            if x > 0:
                pass
            else:
                raise ValueError(
                    "negative")
        except ValueError:
            return None
        return [i
                for i in range(x)]
    ''')


def test_statement_finder_keeps_statements_that_compile_to_code():
    # The docstring of f and `global` compile to nothing; `else:` and
    # `except ...:` are parts of statements, not statements.
    found = dict(traffic_lines.statements(SOURCE))
    assert sorted(found) == [1, 4, 9, 10, 11, 13, 16, 17]
    assert found[4] == {4, 5}             # decorator and def header
    assert found[13] == {13, 14}          # both lines of the raise
    assert found[17] == {17, 18}


def test_statement_finder_reports_statements_with_no_line_run():
    # The lines a call f(1) at import runs, minus line 18 of the return:
    # one line of a statement is enough to count it as run.
    ran = {1, 4, 5, 9, 10, 11, 17}
    assert traffic_lines.missed(SOURCE, ran) == [13, 16]
    assert traffic_lines.missed(SOURCE, ran | {14, 16}) == []


def test_package_modules_hold_no_global_statement():
    # A module-level value that a call rebinds is state shared by every run
    # in the process; the package keeps a run's state in its arguments.
    package = Path(__file__).resolve().parents[1] / "src" / "iswpt"
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert found == []


MUTATORS = {"append", "clear", "extend", "insert", "pop", "popitem",
            "setdefault", "update"}


def _root_name(node):
    """The name an attribute or item chain starts from, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _outer_functions(node):
    """The functions under `node` that no other function encloses."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        else:
            yield from _outer_functions(child)


def module_state_mutations(source):
    """Lines where a function mutates a module-level name: a mutating method
    call (`MUTATORS`) on a value the module assigns, or an item or attribute
    assignment or deletion through it or through an imported name.  A name
    that a function binds itself, or that the function around it binds, is
    local there and is not checked."""
    tree = ast.parse(source)
    values = {target.id for node in tree.body
              if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
              for target in (node.targets if isinstance(node, ast.Assign)
                             else [node.target])
              if isinstance(target, ast.Name)}
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    found = []
    for outer in _outer_functions(tree):
        inner = list(ast.walk(outer))
        local = {node.id for node in inner
                 if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)}
        local |= {arg.arg for node in inner if isinstance(node, ast.arguments)
                  for arg in (*node.posonlyargs, *node.args, *node.kwonlyargs,
                              node.vararg, node.kwarg) if arg is not None}
        for node in inner:
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                names = values if node.func.attr in MUTATORS else set()
                targets = [node.func.value]
            elif isinstance(node, (ast.Assign, ast.Delete)):
                names, targets = values | imported, node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                names, targets = values | imported, [node.target]
            else:
                continue
            for target in targets:
                through = isinstance(node, ast.Call) or isinstance(
                    target, (ast.Attribute, ast.Subscript))
                name = _root_name(target)
                if through and name in names and name not in local:
                    found.append(node.lineno)
    return sorted(set(found))


def test_module_state_mutations_are_found():
    source = textwrap.dedent("""\
        import numpy as np
        COUNTS = {}
        LIMIT = 3

        def count(name, seen):
            COUNTS.setdefault(name, 0)
            COUNTS[name] += 1
            seen.append(name)
            np.seterr = None
            return np.append(seen, LIMIT)

        def reset():
            COUNTS.clear()

        def local(COUNTS):
            COUNTS.clear()

        def shadow():
            LIMIT = {}
            LIMIT.update(a=1)

            def inner():
                LIMIT.clear()
            return LIMIT.get("a")
        """)
    assert module_state_mutations(source) == [6, 7, 9, 13]


def test_package_functions_mutate_no_module_state():
    # A module-level value that a call mutates in place (a counter dict, a
    # list of results) is state shared by every run in the process, as a
    # rebound `global` is.  A `functools.lru_cache` memo is out of scope:
    # its cache lives in the decorator, not in a module-level name, and it
    # memoizes a pure function, so no call's result depends on it.
    package = Path(__file__).resolve().parents[1] / "src" / "iswpt"
    found = [f"{path.name}:{line}" for path in sorted(package.rglob("*.py"))
             for line in module_state_mutations(path.read_text())]
    assert found == []


def representation_reads(module, source):
    """Lines where `module` works on a phase profile's angles: an attribute
    `.alpha` outside objective.py, or `np.angle` or `np.exp` in sdp.py."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute)
                   and (node.attr == "alpha" and module != "objective.py"
                        or node.attr in ("angle", "exp") and module == "sdp.py"
                        and isinstance(node.value, ast.Name) and node.value.id == "np")})


def test_representation_reads_are_found():
    source = textwrap.dedent("""\
        import numpy as np
        def f(phases, PhaseProfile):
            keep = PhaseProfile(alpha=np.zeros(2))
            turn = np.angle(phases.v)
            return phases.alpha, keep.v, np.exp(1j * turn)
        """)
    assert representation_reads("ao.py", source) == [5]
    assert representation_reads("sdp.py", source) == [4, 5]
    assert representation_reads("objective.py", source) == []


def test_only_objective_reads_a_profile_as_angles():
    # A phase profile is its unit vector; objective.PhaseProfile derives the
    # angles, and every other module works on v.  The sdp extractions turn
    # and project vectors, with no angle round trip.
    package = Path(__file__).resolve().parents[1] / "src" / "iswpt"
    found = [f"{path.name}:{line}" for path in sorted(package.rglob("*.py"))
             for line in representation_reads(path.name, path.read_text())]
    assert found == []
