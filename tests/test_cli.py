"""End-to-end command-line tests over the shipped fixture models."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import identkit
from identkit import census
from identkit.cli import build_parser, main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestAnalyze:
    def test_full_leaks_expected_dimension(self, capsys):
        code, out = run(
            capsys,
            "analyze", "--model", fixture("cascade_exchange.json"),
            "--leaks", "all", "--seed", "1",
        )
        assert code == 0
        assert "verdict: expected-dimension" in out
        assert "jacobian rank: 7" in out
        assert "seed=1" in out

    def test_io_leaks_identifiable(self, capsys):
        code, out = run(
            capsys,
            "analyze", "--model", fixture("cascade_exchange.json"), "--leaks", "1,2",
        )
        assert code == 0 and "verdict: locally-identifiable" in out

    def test_json_format_is_schema_stable(self, capsys):
        code, out = run(
            capsys,
            "analyze", "--model", fixture("cascade_exchange.json"),
            "--format", "json", "--seed", "5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 5 and doc["verdict"] == "expected-dimension"
        assert {"version", "model", "jacobian_rank", "necessary_conditions"} <= set(doc)

    def test_determinism_byte_for_byte(self, capsys):
        args = ("analyze", "--model", fixture("star_prime.json"), "--leaks", "1,2",
                "--format", "json", "--seed", "7")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("IDENTKIT_SEED", "123")
        code, out = run(capsys, "analyze", "--model", fixture("fan_in.json"))
        assert code == 0 and "seed=123" in out

    @pytest.mark.parametrize("raw", ["abc", "1.5"])
    def test_malformed_env_seed_is_an_error(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("IDENTKIT_SEED", raw)
        code, out = run(capsys, "analyze", "--model", fixture("fan_in.json"), "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["error"] == "ModelError" and "IDENTKIT_SEED" in doc["message"]
        code, out = run(capsys, "analyze", "--model", fixture("fan_in.json"), "--seed", "4")
        assert code == 0 and "seed=4" in out

    def test_missing_file_is_reported(self, capsys):
        code, _ = run(capsys, "analyze", "--model", "no_such_model.json")
        assert code == 1

    def test_error_json(self, capsys):
        code, out = run(
            capsys, "analyze", "--model", "no_such_model.json", "--format", "json"
        )
        assert code == 1
        assert "error" in json.loads(out)

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])  # --model missing
        assert exc.value.code == 2

    def test_diag_mode_needs_full_leaks(self, capsys):
        code, out = run(
            capsys,
            "analyze", "--model", fixture("fan_in.json"), "--mode", "diag", "--format", "json",
        )
        assert code == 1
        assert json.loads(out) == {
            "error": "ModeRequiresFullLeaks",
            "message": "diag mode requires a leak in every compartment",
        }


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--n", "3", "--m", "abc"],
        ["census", "--n", "3", "--m", "2..x"],
        ["transform", "--model", fixture("loop_with_tail.json"), "--attach-path", "1,2"],
        ["transform", "--model", fixture("loop_with_tail.json"), "--remove-leaks", "a"],
    ],
    ids=["m-not-int", "m-range-not-int", "attach-path-two-ints", "remove-leaks-not-int"],
)
def test_malformed_arguments_give_error_document(capsys, argv):
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 1
    assert json.loads(out)["error"] == "ModelError"
    code, out = run(capsys, *argv)
    assert code == 1 and out == ""


def test_import_loads_only_the_standard_library():
    src = os.path.dirname(os.path.dirname(identkit.__file__))
    # Modules loaded at interpreter start-up (site hooks) are not identkit's;
    # __mp_main__ is multiprocessing's alias of __main__.
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import identkit.cli\n"
        "tops = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(tops - set(sys.stdlib_module_names) - {'identkit', '__mp_main__'}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_analyze_loads_only_the_modules_it_runs():
    src = os.path.dirname(os.path.dirname(identkit.__file__))
    unused = ["identkit.census", "identkit.transforms", "identkit.cyclespace", "multiprocessing", "csv"]
    probe = (
        "import contextlib, io, json, sys\n"
        "import identkit\n"
        "bare = sorted(name for name in sys.modules if name.startswith('identkit.'))\n"
        "from identkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['analyze', '--model', sys.argv[1], '--format', 'json'])\n"
        "print(json.dumps([code, bare, sorted(set(sys.argv[2:]) & set(sys.modules))]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, fixture("fan_in.json"), *unused],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(proc.stdout) == [0, [], []]


class TestIoeq:
    def test_text_output(self, capsys):
        code, out = run(capsys, "ioeq", "--model", fixture("cascade_exchange.json"))
        assert code == 0
        assert "y2^(4)" in out and "(a21)*u1''" in out

    def test_json_output(self, capsys):
        code, out = run(
            capsys, "ioeq", "--model", fixture("cascade_exchange.json"), "--format", "json"
        )
        doc = json.loads(out)
        eq = doc["equations"][0]
        assert eq["output"] == 2 and eq["order"] == 4
        assert eq["lhs"][0] == "-a11 - a22 - a33 - a44"

    def test_output_zero_is_not_ignored(self, capsys):
        code, out = run(
            capsys, "ioeq", "--model", fixture("cascade_exchange.json"),
            "--output", "0", "--format", "json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["error"] == "PreconditionViolated"
        assert doc["message"] == "vertex 0 is not an output"


@pytest.mark.parametrize("command", ["ioeq", "cyclespace"])
def test_commands_without_random_points_take_no_seed(capsys, tmp_path, command):
    """ioeq and cyclespace take neither --seed nor --trials; no command takes
    --trials, since the seed alone picks the prime and the point."""
    model = fixture("cascade_exchange.json")
    code, out = run(capsys, command, "--model", model)
    assert code == 0 and "seed=n/a" in out
    usage_errors = [[command, "--model", model, flag, "1"] for flag in ("--seed", "--trials")]
    for valid in (
        ["analyze", "--model", model],
        ["transform", "--model", fixture("fan_in.json"), "--remove-leaks", "1"],
        ["construct", "--script", fixture("construct_loop_with_tail.json")],
        ["census", "--n", "3", "--m", "3", "--out", str(tmp_path / "rows.csv")],
    ):
        build_parser().parse_args(valid)
        usage_errors.append(valid + ["--trials", "3"])
    for argv in usage_errors:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


class TestCyclespace:
    def test_cascade_report(self, capsys):
        code, out = run(capsys, "cyclespace", "--model", fixture("cascade_exchange.json"))
        assert code == 0
        assert "independent paths/cycles: 7" in out

    def test_dual_io_hub_json(self, capsys):
        code, out = run(
            capsys, "cyclespace", "--model", fixture("dual_io_hub.json"), "--format", "json"
        )
        doc = json.loads(out)
        assert doc["independent_count"] == 10
        assert len(doc["monomials"]) == 11

    def test_negative_cap_is_a_model_error(self, capsys):
        argv = ("cyclespace", "--model", fixture("cascade_exchange.json"), "--cap", "-5")
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["error"] == "ModelError" and "cap must be at least 0" in doc["message"]

    def test_zero_cap_with_cycles_is_exceeded(self, capsys):
        argv = ("cyclespace", "--model", fixture("cascade_exchange.json"), "--cap", "0")
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 1 and json.loads(out)["error"] == "CapExceeded"


class TestTransform:
    def test_remove_leaks_with_certificate(self, capsys, tmp_path):
        out_path = str(tmp_path / "restricted.json")
        code, out = run(
            capsys,
            "transform", "--model", fixture("cascade_exchange.json"),
            "--remove-leaks", "1,2", "--out", out_path,
        )
        assert code == 0
        assert "certificate:" in out and "locally identifiable" in out
        doc = json.load(open(out_path))
        assert doc["leak"] == [1, 2]

    def test_add_leak(self, capsys):
        code, out = run(
            capsys, "transform", "--model", fixture("fan_in.json"), "--add-leak", "3",
            "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0 and doc["model"]["leak"] == [1, 2, 3]
        assert doc["certificate"] is not None

    def test_attach_path(self, capsys):
        code, out = run(
            capsys,
            "transform", "--model", fixture("loop_with_tail.json"),
            "--attach-path", "3,1,1", "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0 and doc["model"]["n"] == 6

    def test_exactly_one_transform_required(self, capsys):
        code, _ = run(
            capsys,
            "transform", "--model", fixture("fan_in.json"),
            "--add-leak", "3", "--remove-leaks", "1",
        )
        assert code == 1


class TestConstruct:
    def test_loop_with_tail_script(self, capsys, tmp_path):
        out_path = str(tmp_path / "built.json")
        code, out = run(
            capsys,
            "construct", "--script", fixture("construct_loop_with_tail.json"),
            "--out", out_path,
        )
        assert code == 0
        doc = json.load(open(out_path))
        assert doc["n"] == 5 and doc["leak"] == [5]
        assert "locally identifiable" in out


@pytest.mark.parametrize(
    "text",
    [
        '{"steps": [[1, 1]], "final_leak": 1}',
        '{"final_leak": 1}',
        '{"steps": [[1, 1, 1]]',
        '[{"steps": [[1, 1, 1]], "final_leak": 1}]',
    ],
    ids=["two-int-step", "no-steps", "invalid-json", "top-level-list"],
)
def test_malformed_construction_script_gives_error_document(capsys, tmp_path, text):
    script = tmp_path / "script.json"
    script.write_text(text)
    code, out = run(capsys, "construct", "--script", str(script), "--format", "json")
    assert code == 1
    assert json.loads(out)["error"] == "ModelError"


# Fuzz inputs stay small, so that a document that is accepted is cheap to analyse.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 4) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["n", "edges", "in", "out", "leak", "steps", "final_leak"])
        | st.text(max_size=3),
        inner,
        max_size=5,
    ),
    max_leaves=12,
)
_SCRIPTS = st.fixed_dictionaries(
    {
        "steps": st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 3)), max_size=2
        ),
        "final_leak": st.integers(0, 5),
    }
)


@st.composite
def _models(draw):
    """Model documents of the right shape; some break a model rule."""
    n = draw(st.integers(1, 4))
    vertices = st.lists(st.integers(1, n), min_size=1, max_size=2)
    slots = [[i, j] for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    doc = {
        "n": n,
        "edges": draw(st.lists(st.sampled_from(slots), max_size=5)) if slots else [],
        "in": draw(vertices),
        "out": draw(vertices),
    }
    if draw(st.booleans()):
        doc["leak"] = draw(st.lists(st.integers(0, n), max_size=n))
    return doc


@pytest.mark.parametrize(
    "command, flag, shaped, extra",
    [
        ("construct", "--script", _SCRIPTS, ()),
        ("analyze", "--model", _models(), ()),
        ("ioeq", "--model", _models(), ()),
        ("cyclespace", "--model", _models(), ()),
        ("transform", "--model", _models(), ("--add-leak", "2")),
    ],
    ids=["construct", "analyze", "ioeq", "cyclespace", "transform"],
)
def test_any_json_input_gives_exit_code_0_or_1(capsys, tmp_path, command, flag, shaped, extra):
    """Arbitrary text, arbitrary JSON and well-shaped documents with wrong
    values all end in a result or an error document, never a traceback."""

    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.text(max_size=20) | _JSON.map(json.dumps) | shaped.map(json.dumps))
    def check(text):
        path = tmp_path / "input.json"
        path.write_text(text)
        code, out = run(capsys, command, flag, str(path), *extra, "--format", "json")
        assert code in (0, 1)
        assert ("error" in json.loads(out)) == (code == 1)

    check()


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("construct", "--script", '{"steps": [[1, 1, Infinity]], "final_leak": 1}'),
        ("analyze", "--model", '{"n": Infinity, "edges": [], "in": [1], "out": [1]}'),
    ],
    ids=["construct", "analyze"],
)
def test_non_finite_number_gives_error_document(capsys, tmp_path, command, flag, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out = run(capsys, command, flag, str(path), "--format", "json")
    assert code == 1
    assert "integer" in json.loads(out)["message"]


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("analyze", "--model", '{"n": 2.7, "edges": [[1, 2]], "in": [1], "out": [2]}'),
        ("analyze", "--model", '{"n": 2, "edges": [[1, 2]], "in": "12", "out": [2]}'),
        ("analyze", "--model", '{"n": 2, "edges": [["1", "2"]], "in": [1], "out": [2]}'),
        ("analyze", "--model", '{"n": 2, "edges": [[1, 2]], "in": [true], "out": [2]}'),
        ("construct", "--script", '{"steps": [[1, 1, 2.0]], "final_leak": 1}'),
        ("construct", "--script", '{"steps": [[1, 1, 2]], "final_leak": "1"}'),
    ],
    ids=["float-n", "string-in", "string-edge", "bool-input", "float-step", "string-leak"],
)
def test_values_that_are_not_json_integers_give_error_document(capsys, tmp_path, command, flag, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out = run(capsys, command, flag, str(path), "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == ("BadModelFile" if command == "analyze" else "ModelError")
    assert "integer" in doc["message"]


def test_vertex_count_above_cap_gives_error_document(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"n": 10000000, "edges": [], "in": [1], "out": [1]}')
    code, out = run(capsys, "analyze", "--model", str(path), "--format", "json")
    assert code == 1
    assert json.loads(out)["error"] == "VertexOutOfRange"


@pytest.mark.parametrize(
    "command, model, step",
    [("transform", '{"n": 1, "edges": [], "in": [1], "out": [1], "leak": [1]}', None),
     ("construct", None, '{"steps": [[1, 1, 100000000]], "final_leak": 1}')],
    ids=["transform", "construct"],
)
def test_path_beyond_vertex_cap_gives_error_document(capsys, tmp_path, command, model, step):
    """A path of 10^8 new vertices is refused before any vertex list is built."""
    path = tmp_path / "input.json"
    path.write_text(model or step)
    if command == "transform":
        argv = ["transform", "--model", str(path), "--attach-path", "1,1,100000000"]
    else:
        argv = ["construct", "--script", str(path)]
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 1
    assert json.loads(out)["error"] == "VertexOutOfRange"


@pytest.mark.parametrize("data", [b"\xff\xfe{\x00}\x00", b"[" * 200_000], ids=["utf16", "deep"])
@pytest.mark.parametrize(
    "reader, error",
    [("model", "BadModelFile"), ("script", "ModelError"), ("checkpoint", "ModelError")],
)
def test_unreadable_json_file_gives_error_document(capsys, tmp_path, reader, error, data):
    """A file that is not UTF-8, or nests deeper than the parser goes,
    gives an error document from every reader of JSON files."""
    path = tmp_path / "census_3_3_0.json"  # the checkpoint name of row (3,3) at seed 0
    path.write_bytes(data)
    argv = {
        "model": ["analyze", "--model", str(path)],
        "script": ["construct", "--script", str(path)],
        "checkpoint": [
            "census", "--n", "3", "--m", "3", "--seed", "0",
            "--checkpoint-dir", str(tmp_path), "--out", str(tmp_path / "rows.csv"),
        ],
    }[reader]
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 1
    assert json.loads(out)["error"] == error


class TestCensusCommand:
    def test_verbose_progress_counts_classes(self, capsys, tmp_path):
        code = main(["census", "--n", "3", "--m", "3", "--out", str(tmp_path / "rows.csv"), "--verbose"])
        assert code == 0
        assert "(3,3): 4/4 classes" in capsys.readouterr().err

    def test_small_census_csv(self, capsys, tmp_path):
        out_path = str(tmp_path / "rows.csv")
        code, out = run(
            capsys,
            "census", "--n", "3", "--m", "2..3", "--seed", "42", "--out", out_path,
        )
        assert code == 0
        lines = open(out_path).read().strip().splitlines()
        assert lines[1].startswith("3,2,15,NA,NA,NA,1,1,3,3")
        assert lines[2].startswith("3,3,20,2,2,2,7,4,10,8")
        meta = json.load(open(out_path + ".meta.json"))
        assert meta["seed"] == 42 and "runtime_seconds" in meta

    def test_missing_out_dir_fails_before_the_first_row(self, capsys, tmp_path, monkeypatch):
        """An --out that is a directory, or whose directory is missing or
        read-only, gives the error document that writing the CSV would give,
        before any row is counted."""

        def no_rows(*args, **kwargs):
            raise AssertionError("census_table called")

        monkeypatch.setattr(census, "census_table", no_rows)
        directory = str(tmp_path)
        code, out = run(capsys, "census", "--n", "3", "--m", "3", "--out", directory, "--format", "json")
        assert code == 1
        assert json.loads(out) == {
            "error": "IsADirectoryError",
            "message": f"[Errno 21] Is a directory: {directory!r}",
        }
        missing = str(tmp_path / "nonexistent" / "x.csv")
        code, out = run(capsys, "census", "--n", "3", "--m", "3", "--out", missing, "--format", "json")
        assert code == 1
        assert json.loads(out) == {
            "error": "FileNotFoundError",
            "message": f"[Errno 2] No such file or directory: {missing!r}",
        }
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        read_only = str(tmp_path / "x.csv")
        code, out = run(capsys, "census", "--n", "3", "--m", "3", "--out", read_only, "--format", "json")
        assert code == 1
        assert json.loads(out) == {
            "error": "PermissionError",
            "message": f"[Errno 13] Permission denied: {read_only!r}",
        }

    @pytest.mark.parametrize("n, m", [("0", "0"), ("3", "99"), ("3", "-1"), ("8", "0")])
    def test_impossible_row_rejected(self, capsys, tmp_path, n, m):
        out_path = str(tmp_path / "rows.csv")
        code, out = run(
            capsys, "census", "--n", n, "--m", m, "--out", out_path, "--format", "json"
        )
        assert code == 1
        assert json.loads(out)["error"] == "ModelError"
        assert not os.path.exists(out_path)

    def test_impossible_row_makes_no_checkpoint_dir(self, capsys, tmp_path):
        for row in (["--n", "0", "--m", "0"], ["--n", "3", "--m", "3", "--jobs", "0"]):
            ck = tmp_path / "ck"
            code, out = run(
                capsys,
                "census", *row, "--checkpoint-dir", str(ck),
                "--out", str(tmp_path / "rows.csv"), "--format", "json",
            )
            assert code == 1
            assert json.loads(out)["error"] == "ModelError"
            assert not ck.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, capsys, tmp_path, jobs):
        out_path = str(tmp_path / "rows.csv")
        ck = tmp_path / "ck"
        code, out = run(
            capsys,
            "census", "--n", "3", "--m", "3", "--jobs", jobs, "--checkpoint-dir", str(ck),
            "--out", out_path, "--format", "json",
        )
        assert code == 1
        assert json.loads(out)["error"] == "ModelError"
        assert not os.path.exists(out_path)
        assert not ck.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "garbage",
            "[1, 2]",
            json.dumps({"format": census.CHECKPOINT_FORMAT, "n": 3, "m": 3, "seed": 0}),
        ],
        ids=["not-json", "not-an-object", "no-counts"],
    )
    def test_corrupt_checkpoint_gives_error_document(self, capsys, tmp_path, text):
        ck = tmp_path / "ck"
        ck.mkdir()
        (ck / "census_3_3_0.json").write_text(text)
        code, out = run(
            capsys,
            "census", "--n", "3", "--m", "3", "--seed", "0", "--checkpoint-dir", str(ck),
            "--out", str(tmp_path / "rows.csv"), "--format", "json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["error"] == "ModelError" and "checkpoint" in doc["message"]

    def test_empty_m_range_rejected(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        ck = tmp_path / "ck"
        code, out = run(
            capsys,
            "census", "--n", "3", "--m", "5..3", "--checkpoint-dir", str(ck),
            "--out", str(out_path), "--format", "json",
        )
        assert code == 1
        assert json.loads(out)["error"] == "ModelError"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "n, m",
        [("3", "0..99999999999999999999"), ("3", "2..7"), ("99999999999", "0..99999999999999999999")],
    )
    def test_m_range_bounds_checked_before_the_list_is_built(self, capsys, tmp_path, n, m):
        code, out = run(
            capsys,
            "census", "--n", n, "--m", m, "--out", str(tmp_path / "rows.csv"), "--format", "json",
        )
        assert code == 1
        assert json.loads(out)["error"] == "ModelError"
        assert list(tmp_path.iterdir()) == []

    def test_single_m_value(self, capsys, tmp_path):
        out_path = str(tmp_path / "one.csv")
        code, _ = run(capsys, "census", "--n", "3", "--m", "2", "--out", out_path)
        assert code == 0
        assert len(open(out_path).read().strip().splitlines()) == 2
