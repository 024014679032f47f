"""Command-line surface: exit codes, JSON output, and determinism."""

import importlib.util
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

from support import default_digit_limit, long_sum_graph, random_minmax
from tropcone import cli
from tropcone.cli import SECTION_MAX_CELLS, main
from tropcone.fixtures import TWO_PI, example_graph
from tropcone.graph import Edge, GameGraph, eval_operator, graph_from_minmax, subfixed
from tropcone.pencil import MetzlerPencil, synthesize_cone
from tropcone.sampling import rng_for
from tropcone.scalars import Trop, rational_to_str
from tropcone.transforms import first_transformation, pipeline, second_transformation, zwick_paterson
from tropcone.verify import verify_graph

F = Fraction
ZERO = {"sign": 0, "abs": "-inf"}
NEG = {"sign": -1, "abs": "0/1"}
Z2 = [[ZERO, ZERO], [ZERO, ZERO]]


def dense(*matrices):
    return {"m": 2, "n": len(matrices) - 1, "matrices": list(matrices)}


def sparse(*cells):
    return {"m": 2, "n": 1, "entries": list(cells)}


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(json.dumps(example_graph().to_json()))
    return str(path)


@pytest.fixture
def bad_graph_file(tmp_path):
    g = GameGraph(
        (1, 2), (3,), (),
        (
            Edge(1, 1, 2, payoff=F(0)),
            Edge(2, 2, 3, payoff=F(0)),
            Edge(3, 3, 1, payoff=F(0)),
        ),
    )
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(g.to_json()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestExitCodes:
    def test_validate_ok(self, capsys, graph_file):
        code, out = run(capsys, "validate", graph_file)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_validate_failure_exits_one(self, capsys, bad_graph_file):
        code, out = run(capsys, "validate", bad_graph_file)
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert report["failures"]

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _ = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 2

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, _ = run(capsys, "validate", str(path))
        assert code == 2

    def test_bad_point_exits_two(self, capsys, graph_file):
        code, _ = run(capsys, "eval", graph_file, "--point", "1,zebra,3")
        assert code == 2

    def test_wrong_length_eval_point_exits_two(self, capsys, graph_file):
        code, out = run(capsys, "eval", graph_file, "--point", "0,0")
        assert (code, out) == (2, "")

    def test_wrong_length_subfixed_point_exits_two(self, capsys, graph_file):
        code, out = run(capsys, "subfixed", graph_file, "--point", "0,0,0,0")
        assert (code, out) == (2, "")

    def test_wrong_length_lift_point_exits_two(self, capsys, graph_file):
        code, out = run(capsys, "lift", graph_file, "--point", "0")
        assert (code, out) == (2, "")

    def test_wrong_length_member_point_exits_two(self, capsys, tmp_path):
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps(synthesize_cone(pipeline(example_graph())[0]).to_json()))
        code, out = run(capsys, "member", str(path), "--point", "0,0,0")
        assert (code, out) == (2, "")

    def test_t2_requires_edge(self, capsys, graph_file):
        code, _ = run(capsys, "transform", "t2", graph_file)
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value", [("--samples", "-3"), ("--denom", "0"), ("--denom", "-4"), ("--box", "-1")]
    )
    def test_bad_sampling_arguments_exit_two(self, capsys, graph_file, flag, value):
        code = main(["verify", graph_file, flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("command", [["validate"], ["member", "--point", "0"]])
    def test_deeply_nested_json_exits_two(self, capsys, tmp_path, command):
        # json.load raises RecursionError on deep nesting; it is malformed input.
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        code = main([command[0], str(path), *command[1:]])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("value", [0.1, 1.0, True, "1/0", "1e100000"])
    def test_non_rational_json_exits_two(self, capsys, tmp_path, value):
        obj = example_graph().to_json()
        obj["edges"][3]["payoff"] = value
        path = tmp_path / "bad_value.json"
        path.write_text(json.dumps(obj))
        code, out = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["eval", "--point", "1e100000,0,0"],
            ["subfixed", "--point", "0,1E5,0"],
            ["lift", "--point", "0,0,2.5e-3"],
            ["section", "--fix", "3=1e100000", "--lo", "0", "--hi", "1", "--step", "1"],
            ["section", "--fix", "3=0", "--lo", "0", "--hi", "1", "--step", "1e-1"],
        ],
    )
    def test_exponent_notation_exits_two(self, capsys, graph_file, args):
        # Fraction("1e10000000") alone takes seconds and builds a
        # 33-million-bit integer, so no rational is read in this notation.
        code, out = run(capsys, args[0], graph_file, *args[1:])
        assert code == 2
        assert out == ""

    def test_integer_json_accepted(self, capsys, tmp_path):
        obj = example_graph().to_json()
        obj["edges"][3]["payoff"] = 1
        path = tmp_path / "int_value.json"
        path.write_text(json.dumps(obj))
        code, out = run(capsys, "validate", str(path))
        assert code == 0
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize(
        "pencil",
        [
            # The dense form of earlier versions is not read, even well formed.
            pytest.param(
                {
                    "m": 1,
                    "n": 1,
                    "matrices": [[[{"sign": 0, "abs": "-inf"}]], [[{"sign": 1, "abs": "0/1"}]]],
                },
                id="dense-form",
            ),
            # Nor is a malformed one: no matrices, a 1x2 matrix, a float
            # entry, and a lower triangle that differs from the upper.
            pytest.param({"m": 2, "n": 3, "matrices": []}, id="matrices0-3"),
            pytest.param(dense(Z2, [[ZERO, ZERO]]), id="matrices1-1"),
            pytest.param(
                dense(Z2, [[ZERO, ZERO], [ZERO, {"sign": 1, "abs": 0.5}]]), id="matrices2-1"
            ),
            pytest.param(
                dense([[ZERO, NEG], [ZERO, ZERO]], [[ZERO, ZERO], [ZERO, ZERO]]),
                id="dense-asymmetric",
            ),
            # Sparse form.
            pytest.param(sparse([0, 2, 1, 1, "0"]), id="sparse-index-out-of-range"),
            pytest.param(sparse([0, 0, 2, 1, "0"]), id="sparse-variable-out-of-range"),
            pytest.param(sparse([1, 0, 1, -1, "0"]), id="sparse-i-above-j"),
            pytest.param(sparse([0, 0, 1, 1, "0"], [0, 0, 1, 1, "1"]), id="sparse-duplicate"),
            pytest.param(sparse([0, 0, 1, 1, 0.5]), id="sparse-float-modulus"),
            pytest.param(sparse([0, 0, 1, True, "0"]), id="sparse-bool-sign"),
            pytest.param(sparse([0, 0, 1.0, 1, "0"]), id="sparse-float-index"),
            pytest.param(sparse([0, 1, 1, 1, "0"]), id="sparse-positive-off-diagonal"),
            pytest.param(sparse([0, 0, 1, 1, "-inf"]), id="sparse-inf-modulus"),
            pytest.param(sparse([0, 0, 1, 0, "-inf"]), id="sparse-zero-sign"),
            pytest.param(sparse([0, 0, 1, 1]), id="sparse-short-entry"),
            pytest.param(
                {**sparse([0, 0, 1, 1, "0"]), "matrices": []}, id="both-keys"
            ),
            pytest.param({"m": 2, "n": 1}, id="neither-key"),
            pytest.param({**sparse(), "m": "2"}, id="string-size"),
        ],
    )
    def test_malformed_pencil_exits_two(self, capsys, tmp_path, pencil):
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps(pencil))
        point = ",".join(["0"] * pencil["n"])
        code, out = run(capsys, "member", str(path), "--point", point)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("value", [1.7, "2", True])
    def test_non_integer_id_exits_two(self, capsys, tmp_path, value):
        # Each value is put where int() would read it as an id the graph
        # already has, so only a strict reader tells it apart.
        obj = example_graph().to_json()
        edge = next(e for e in obj["edges"] if e["id"] == int(value))
        edge["id"] = value
        path = tmp_path / "bad_id.json"
        path.write_text(json.dumps(obj))
        code, out = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""

    def test_domain_error_exits_one(self, capsys, graph_file):
        # Edge 1 is not a Random-to-Random edge.
        code, _ = run(capsys, "transform", "t2", graph_file, "--edge", "1")
        assert code == 1


class TestCommands:
    def test_eval_at_origin(self, capsys, graph_file):
        code, out = run(capsys, "eval", graph_file, "--point", "0,0,0")
        assert code == 0
        assert json.loads(out) == [
            rational_to_str(F(4, 3)),
            rational_to_str(TWO_PI),
            rational_to_str(F(0)),
        ]

    def test_subfixed(self, capsys, graph_file):
        assert json.loads(run(capsys, "subfixed", graph_file, "--point", "0,0,0")[1]) == {
            "subfixed": True
        }
        assert json.loads(run(capsys, "subfixed", graph_file, "--point", "2,0,0")[1]) == {
            "subfixed": False
        }

    def test_subfixed_and_eval_read_minus_infinity(self, capsys, graph_file):
        # --point is read as `member` reads it: -inf is a coordinate, and a
        # -inf coordinate of F(x) is written "-inf".
        g, answers, written = example_graph(), set(), set()
        for point in ("0,0,0", "2,0,0", "0,-inf,0", "2,-inf,0", "-1/3,-inf,5/2", "-inf,-inf,-inf", "-inf,1,0"):
            x = tuple(Trop.from_str(v) for v in point.split(","))
            code, out = run(capsys, "eval", graph_file, "--point=" + point)
            want = ["-inf" if v is None else rational_to_str(v) for v in eval_operator(g, x)]
            assert (code, json.loads(out)) == (0, want), point
            code, out = run(capsys, "subfixed", graph_file, "--point=" + point)
            assert (code, json.loads(out)) == (0, {"subfixed": subfixed(g, x)}), point
            answers.add(subfixed(g, x))
            written.update(want)
        assert answers == {True, False} and "-inf" in written
        assert run(capsys, "subfixed", graph_file, "--point=0,-inf,0")[1] == '{\n  "subfixed": true\n}\n'
        assert run(capsys, "subfixed", graph_file, "--point=2,-inf,0")[1] == '{\n  "subfixed": false\n}\n'

    def test_transform_pipeline(self, capsys, graph_file):
        code, out = run(capsys, "transform", "pipeline", graph_file)
        assert code == 0
        obj = json.loads(out)
        assert obj["witness"]["kind"] == "pipeline"
        assert set(obj["graph"]) == {"min", "max", "random", "edges"}

    def test_transform_t2(self, capsys, tmp_path):
        g = first_transformation(zwick_paterson(example_graph()))[0]
        path = tmp_path / "t1.json"
        path.write_text(json.dumps(g.to_json()))
        randoms = set(g.random_vertices)
        edge = next(e for e in g.edges if e.tail in randoms and e.head in randoms)
        assert edge.id == 53
        code, out = run(capsys, "transform", "t2", str(path), "--edge", str(edge.id))
        assert code == 0
        graph, witness = second_transformation(g, edge.id)
        assert json.loads(out) == {"graph": graph.to_json(), "witness": witness.descriptor()}

    def test_synthesize(self, capsys, graph_file):
        code, out = run(capsys, "synthesize", graph_file)
        assert code == 0
        obj = json.loads(out)
        assert obj["visible"] == 3
        expected = synthesize_cone(pipeline(example_graph())[0])
        assert obj["m"] == expected.m
        assert obj["n"] == expected.n
        assert obj["entries"] == expected.to_json()["entries"]
        assert MetzlerPencil.from_json(obj).entries == expected.entries

    def test_member(self, capsys, tmp_path):
        pencil = synthesize_cone(pipeline(example_graph())[0])
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps(pencil.to_json()))
        lifted = pipeline(example_graph())[1].lift((F(0), F(0), F(0)))
        point = ",".join(rational_to_str(v) for v in lifted)
        code, out = run(capsys, "member", str(path), "--point", point)
        assert code == 0
        assert json.loads(out) == {"member": True}
        inf_point = ",".join(["-inf"] * pencil.n)
        assert json.loads(run(capsys, "member", str(path), "--point=" + inf_point)[1]) == {
            "member": True
        }

    @pytest.mark.parametrize(
        "cells, member",
        [([], True), ([[0, 10**12 - 1, 1, -1, "0"]], False)],
        ids=["no-entries", "off-diagonal-only"],
    )
    def test_member_work_bounded_by_entries(self, capsys, tmp_path, cells, member):
        # A declared size of 10^12 rows costs nothing: rows without a
        # diagonal entry are -inf, so an off-diagonal entry over them fails.
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps({"m": 10**12, "n": 1, "entries": cells}))
        code, out = run(capsys, "member", str(path), "--point", "0")
        assert code == 0
        assert json.loads(out) == {"member": member}

    def test_lift_reads_minus_infinity(self, capsys, graph_file):
        # --point is read as `member` reads it, and the lift writes "-inf"
        # exactly where the Python lift is None.
        witness, written = pipeline(example_graph())[1], set()
        for point in ("0,-inf,0", "-inf,0,0", "2,-inf,-1/3", "-inf,-inf,5/2", "-inf,-inf,-inf"):
            lifted = witness.lift(tuple(Trop.from_str(v) for v in point.split(",")))
            code, out = run(capsys, "lift", graph_file, "--point=" + point)
            want = ["-inf" if v is None else rational_to_str(v) for v in lifted]
            assert (code, json.loads(out)) == (0, want), point
            written.update(v == "-inf" for v in want[3:])
        assert written == {True, False}

    def test_lift_refuses_plus_infinity(self, capsys, graph_file):
        code = main(["lift", graph_file, "--point=0,inf,0"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_eval_and_lift_finite_output_unchanged(self, capsys, graph_file):
        # At finite points each coordinate is written "N/D" by
        # `rational_to_str`, in the JSON layout of `_emit_json`.
        g, witness = example_graph(), pipeline(example_graph())[1]
        for point in ("0,0,0", "2,0,0", "-1/3,5/7,5/2"):
            x = tuple(F(v) for v in point.split(","))
            for command, value in (("eval", eval_operator(g, x)), ("lift", witness.lift(x))):
                want = json.dumps([rational_to_str(v) for v in value], indent=2, sort_keys=True) + "\n"
                assert run(capsys, command, graph_file, "--point=" + point) == (0, want)

    def test_lift(self, capsys, graph_file):
        code, out = run(capsys, "lift", graph_file, "--point", "1,0,-2")
        assert code == 0
        lifted = json.loads(out)
        assert lifted[:3] == ["1/1", "0/1", "-2/1"]
        witness = pipeline(example_graph())[1]
        assert len(lifted) == witness.source_dim + len(witness.rows)

    def test_out_flag_writes_file(self, capsys, graph_file, tmp_path):
        target = tmp_path / "report.json"
        code, out = run(capsys, "validate", graph_file, "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["ok"] is True


class TestVerifyCommand:
    def test_full_agreement(self, capsys, graph_file):
        code, out = run(capsys, "verify", graph_file, "--samples", "50", "--seed", "3")
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["counterexample"] is None
        assert report["forward_agreements"] == report["subfixed"]
        assert report["backward_agreements"] == report["complement"]
        assert report["subfixed"] + report["complement"] == 50

    def test_zero_samples_vacuous(self, capsys, graph_file):
        code, out = run(capsys, "verify", graph_file, "--samples", "0")
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["subfixed"] == 0
        assert report["complement"] == 0

    @pytest.mark.parametrize(
        "samples, seed, counts",
        [("0", "0", (0, 0)), ("5", "8", (0, 5))],
        ids=["no-samples", "none-inside"],
    )
    def test_one_sided_samples_warn(self, capsys, graph_file, samples, seed, counts):
        code = main(["verify", graph_file, "--samples", samples, "--seed", seed])
        captured = capsys.readouterr()
        assert code == 0
        report = verify_graph(example_graph(), samples=int(samples), seed=int(seed), instance=graph_file)
        assert (report.subfixed_count, report.complement_count) == counts
        assert captured.out == json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
        assert captured.err.startswith("warning: no subfixed or no complement sample")

    def test_two_sided_samples_do_not_warn(self, capsys, graph_file):
        assert main(["verify", graph_file, "--samples", "50", "--seed", "3"]) == 0
        assert capsys.readouterr().err == ""

    def test_disagreement_exits_one(self, capsys, graph_file, monkeypatch):
        # A membership test that always answers False disagrees at every
        # subfixed sample; the report is still printed.
        monkeypatch.setattr("tropcone.verify.pencil_member_integers", lambda pencil, d, y: False)
        code, out = run(capsys, "verify", graph_file, "--samples", "20", "--seed", "3")
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert report["counterexample"] is not None
        assert report["forward_agreements"] == 0 < report["subfixed"]

    def test_byte_determinism(self, capsys, graph_file):
        _, first = run(capsys, "verify", graph_file, "--samples", "40", "--seed", "11")
        _, second = run(capsys, "verify", graph_file, "--samples", "40", "--seed", "11")
        assert first == second


class TestSectionCommand:
    def test_known_cells(self, capsys, graph_file):
        code, out = run(
            capsys, "section", graph_file,
            "--fix", "3=0", "--lo", "-3", "--hi", "2", "--step", "1",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")]
        assert len(rows) == 6 and len(rows[0]) == 6
        # Columns sweep x1 from -3 to 2; rows sweep x2 from 2 down to -3.
        assert rows[2][3] == "1"  # (0, 0)
        assert rows[2][0] == "1"  # (-3, 0)
        assert rows[2][5] == "0"  # (2, 0)

    def test_byte_stable(self, capsys, graph_file):
        args = ("section", graph_file, "--fix", "3=0", "--lo=-9/2", "--hi", "5/2", "--step", "1/4")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_all_fixed_single_cell(self, capsys, graph_file):
        _, out = run(
            capsys, "section", graph_file,
            "--fix", "1=0", "--fix", "2=0", "--fix", "3=0",
            "--lo", "0", "--hi", "0", "--step", "1",
        )
        assert out.strip() == "1"

    def test_step_larger_than_range(self, capsys, graph_file):
        _, out = run(
            capsys, "section", graph_file,
            "--fix", "3=0", "--lo", "0", "--hi", "2", "--step", "5",
        )
        rows = [line.split(",") for line in out.strip().split("\n")]
        assert len(rows) == 1 and len(rows[0]) == 1

    def test_fix_value_read_as_a_point_coordinate(self, capsys, graph_file):
        # A --fix value is read as a --point coordinate, spaces around it too.
        grid = ("--fix", "3=0", "--lo=-2", "--hi", "2", "--step", "1")
        want = run(capsys, "section", graph_file, "--fix", "1=-inf", *grid)
        assert want[0] == 0
        assert run(capsys, "section", graph_file, "--fix", "1= -inf ", *grid) == want

    def test_bad_fix_exits_two(self, capsys, graph_file):
        code, _ = run(
            capsys, "section", graph_file,
            "--fix", "zebra", "--lo", "0", "--hi", "1", "--step", "1",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "fix",
        [["3=0", "4=1"], ["3=0", "0=5"], ["3=0", "3=1"]],
        ids=["above-n", "zero", "twice"],
    )
    def test_fix_outside_coordinates_exits_two(self, capsys, graph_file, fix):
        fixes = [arg for value in fix for arg in ("--fix", value)]
        code, out = run(capsys, "section", graph_file, *fixes,
                        "--lo", "0", "--hi", "1", "--step", "1")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "fix, hi, step",
        [
            (["3=0"], str(math.isqrt(SECTION_MAX_CELLS)), "1"),
            (["2=0", "3=0"], "1000", "1/1000"),
        ],
    )
    def test_oversized_grid_exits_two(self, capsys, graph_file, monkeypatch, fix, hi, step):
        # One tick past the cell bound; no cell may be evaluated. Each cell
        # runs the integer kernel, so patching `subfixed` alone would guard
        # nothing.
        def no_cells(*_):
            raise AssertionError("section evaluated a cell")

        monkeypatch.setattr(cli, "subfixed_integers", no_cells)
        monkeypatch.setattr(cli, "subfixed", no_cells)
        fixes = [arg for value in fix for arg in ("--fix", value)]
        code, out = run(capsys, "section", graph_file, *fixes,
                        "--lo", "0", "--hi", hi, "--step", step)
        assert code == 2
        assert out == ""

    def test_too_many_free_coordinates(self, capsys, graph_file):
        code, _ = run(capsys, "section", graph_file, "--lo", "0", "--hi", "1", "--step", "1")
        assert code == 2


def section_oracle(g, fixed: dict, lo: Fraction, hi: Fraction, step: Fraction) -> str:
    """The section grid by `subfixed` on one Fraction point per cell."""
    free = [k for k in range(g.n) if k not in fixed]
    col, row = (free + [None, None])[:2]
    ticks = [lo + t * step for t in range((hi - lo) // step + 1)]
    lines = []
    for y in reversed(ticks) if row is not None else [None]:
        cells = []
        for x in ticks if col is not None else [None]:
            point = [fixed.get(k) for k in range(g.n)]
            if col is not None:
                point[col] = x
            if row is not None:
                point[row] = y
            cells.append("1" if subfixed(g, point) else "0")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class TestSectionDifferential:
    """`section` scales its grid once and runs the integer kernel per cell;
    every grid must equal per-cell `subfixed`."""

    def grid(self, capsys, tmp_path, g, fixed, lo, hi, step):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(g.to_json()))
        fixes = [arg for k, v in fixed.items() for arg in ("--fix", f"{k + 1}={Trop(v).to_str()}")]
        code, out = run(capsys, "section", str(path), *fixes, f"--lo={rational_to_str(lo)}",
                        f"--hi={rational_to_str(hi)}", f"--step={rational_to_str(step)}")
        assert code == 0
        assert out == section_oracle(g, fixed, lo, hi, step)
        return out

    @pytest.mark.parametrize(
        "fixed, lo, hi, step",
        [
            ({2: F(2, 7)}, F(-3), F(2), F(1, 3)),
            ({0: F(-1, 5)}, F(-5, 2), F(7, 3), F(1, 6)),
            ({1: F(3, 4)}, F(-4), F(3), F(2, 5)),
        ],
        ids=["fix-x3", "fix-x1", "fix-x2"],
    )
    def test_example_two_free_axes(self, capsys, tmp_path, fixed, lo, hi, step):
        out = self.grid(capsys, tmp_path, example_graph(), fixed, lo, hi, step)
        assert "0" in out and "1" in out

    def test_random_minmax_graphs(self, capsys, tmp_path):
        # Some seeded operators have no finite subfixed point in the box;
        # every grid is still compared, and most show both bits.
        two_sided = 0
        for seed in range(6):
            g = graph_from_minmax(random_minmax(rng_for(71, seed), n=3, denom=12))
            out = self.grid(capsys, tmp_path, g, {2: F(2, 7)}, F(-6), F(6), F(1, 3))
            two_sided += "0" in out and "1" in out
            one_free = self.grid(capsys, tmp_path, g, {0: F(1, 9), 2: F(-3, 7)}, F(-6), F(6), F(1, 4))
            assert len(one_free.split(",")) == 49
            self.grid(capsys, tmp_path, g, {0: F(1, 9), 1: F(5, 11), 2: F(-3, 7)}, F(0), F(0), F(1))
        assert two_sided >= 3

    def test_minus_infinity_fixed(self, capsys, tmp_path):
        # --fix 1=-inf is read as `subfixed` reads a -inf coordinate (None
        # in the oracle's point), on two free axes and on one.
        bits = set()
        graphs = [example_graph()] + [graph_from_minmax(random_minmax(rng_for(73, s), n=3, denom=12)) for s in range(4)]
        for g in graphs:
            bits.update(self.grid(capsys, tmp_path, g, {0: None}, F(-5), F(5), F(1, 2)))
            bits.update(self.grid(capsys, tmp_path, g, {0: None, 2: F(1, 3)}, F(-5), F(5), F(1, 4)))
        assert {"0", "1"} <= bits


def test_help_says_where_minus_infinity_is_read():
    # Every command that reads a point reads it by `Trop.from_str`, and so
    # does `section --fix`; the help says so.
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    helps = {(name, a.dest): a.help for name, p in sub.choices.items() for a in p._actions}
    points = {key: text for key, text in helps.items() if key[1] == "point"}
    assert points == {(c, "point"): "comma-separated rationals or -inf" for c in ("eval", "subfixed", "member", "lift")}
    assert helps[("section", "fix")].endswith("a rational or -inf")


class TestParserReuse:
    """`main` builds its parser once per process; no call may see the
    arguments or the defaults of an earlier one."""

    def calls(self, capsys, argvs):
        results = []
        for argv in argvs:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_outputs_match_fresh_parsers(self, capsys, graph_file, monkeypatch):
        grid = ["--lo", "-2", "--hi", "2", "--step", "1/2"]
        argvs = [
            ["nonsense", graph_file],
            ["subfixed", graph_file, "--point", "0,0,0"],
            ["section", graph_file, "--fix", "3=0", *grid],
            ["section", graph_file, "--fix", "2=0", *grid],
            ["section", graph_file, "--fix"],
            ["verify", graph_file, "--samples", "5", "--seed", "3"],
            ["verify", graph_file],
        ]
        reused = self.calls(capsys, argvs)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert reused == self.calls(capsys, argvs)
        assert [code for code, _, _ in reused] == [2, 0, 0, 0, 2, 0, 0]
        assert reused[2][1] != reused[3][1]
        report = json.loads(reused[6][1])
        assert report["subfixed"] + report["complement"] == 200

    def test_many_calls_build_one_parser(self, capsys, graph_file, monkeypatch):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        with pytest.raises(SystemExit):
            main(["nonsense"])
        for _ in range(5):
            assert main(["subfixed", graph_file, "--point", "0,0,0"]) == 0
        assert main(["validate", graph_file]) == 0
        assert len(built) == 1


def load_section_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "section_example.py"
    spec = importlib.util.spec_from_file_location("section_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSectionScript:
    def test_default_grid(self, capsys, graph_file):
        load_section_script().main([])
        script_out = capsys.readouterr().out
        rows = script_out.strip().split("\n")
        assert len(rows) == 29 and all(len(row.split(",")) == 29 for row in rows)
        args = ["--fix", "3=0", "--lo=-9/2", "--hi", "5/2", "--step", "1/4"]
        code, cli_out = run(capsys, "section", graph_file, *args)
        assert code == 0
        assert cli_out == script_out

    @pytest.mark.parametrize(
        "args",
        [
            ["--step", "0"],
            ["--step", "-1/4"],
            ["--lo", "1", "--hi", "0"],
            ["--lo", "0", "--hi", str(math.isqrt(SECTION_MAX_CELLS)), "--step", "1"],
            ["--step", "1e-1"],
        ],
    )
    def test_bad_grid_exits_two(self, capsys, monkeypatch, args):
        # The ticks are checked before any is built; no cell may be evaluated.
        script = load_section_script()

        def no_cells(*_):
            raise AssertionError("section script evaluated a cell")

        monkeypatch.setattr(script, "subfixed", no_cells)
        with pytest.raises(SystemExit) as exc:
            script.main(args)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


@default_digit_limit
class TestDigitLimit:
    """Past Python's 4300-digit limit on writing an integer, a command
    exits with its code and one `error:` line or a report, never a
    traceback."""

    @staticmethod
    def _write(tmp_path, g):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(g.to_json()))
        return str(path)

    def test_validate_reports_a_long_sum(self, capsys, tmp_path):
        code = main(["validate", self._write(tmp_path, long_sum_graph())])
        captured = capsys.readouterr()
        assert (code, captured.err) == (1, "")
        (failure,) = json.loads(captured.out)["failures"]
        assert failure == {
            "code": "prob-sum",
            "message": "probabilities out of 3 sum to a rational with a 9510-bit numerator and a 18510-bit denominator",
        }

    def test_subfixed_on_a_long_sum_is_one_error_line(self, capsys, tmp_path):
        code = main(["subfixed", self._write(tmp_path, long_sum_graph()), "--point", "0"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("error: prob-sum: probabilities out of 3 sum to a rational with")
        assert captured.err.count("\n") == 1

    @staticmethod
    def _payoff_graph(payoff):
        # F(x) = 2 * payoff + x: Min 1 -> Max 2 -> Min 1.
        return GameGraph((1,), (2,), (), (Edge(1, 1, 2, payoff=payoff), Edge(2, 2, 1, payoff=payoff)))

    def test_eval_result_past_the_limit_is_one_error_line(self, capsys, tmp_path):
        big = 10 ** 4300 - 1
        code = main(["eval", self._write(tmp_path, self._payoff_graph(F(big))), "--point", str(big)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == (
            "error: a rational with a 14286-bit numerator and a 1-bit denominator has too many digits to print\n"
        )

    def test_eval_result_at_the_limit_prints(self, capsys, tmp_path):
        half = 10 ** 4299
        code, out = run(capsys, "eval", self._write(tmp_path, self._payoff_graph(F(half))), "--point", str(half))
        assert code == 0
        assert json.loads(out) == [f"{3 * half}/1"]

    def test_fresh_id_past_the_limit_is_one_error_line(self, capsys, tmp_path):
        # The first transformation numbers its new vertices from the largest
        # id up, so one past 4300 nines has 4301 digits.
        big = 10 ** 4300 - 1
        g = GameGraph((1,), (big,), (), (Edge(1, 1, big, payoff=F(0)), Edge(2, big, 1, payoff=F(0))))
        code = main(["transform", "t1", self._write(tmp_path, g)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: the result holds an integer with too many digits to print\n"


# Replacements for one value of a mutated file: wrong types, numbers JSON
# allows but the formats do not, bad and oversized rational strings.
MUTANTS = (
    True, None, 0, -1, 1.5, 10 ** 4000, [], {}, "", "x", "1/0", "0/1", "-7/2", "-inf", "1e9",
    "3/-4", "9" * 5000, "1/" + "7" * 80, [0, 0], {"sign": 1},
)

# The commands that read a graph, the mutated file taking the place of FILE;
# `member` reads a mutated pencil.
GRAPH_COMMANDS = (
    ("validate", "FILE"),
    ("eval", "FILE", "--point", "0,0,0"),
    ("subfixed", "FILE", "--point=-3,0,0"),
    ("transform", "zp", "FILE"),
    ("transform", "t1", "FILE"),
    ("transform", "pipeline", "FILE"),
    ("lift", "FILE", "--point", "2,0,0"),
    ("verify", "FILE", "--samples", "2"),
    ("section", "FILE", "--fix", "3=0", "--lo=-1", "--hi", "1", "--step", "1"),
)


def _paths(obj, path=()):
    """Every path into a JSON value, the value itself first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


def _at(obj, path):
    for step in path:
        obj = obj[step]
    return obj


def _write_json(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _mutate(rng, obj):
    """A deep copy of obj with one or two values replaced, deleted or
    duplicated at seeded paths."""
    obj = json.loads(json.dumps(obj))
    for _ in range(rng.randint(1, 2)):
        paths = list(_paths(obj))[1:]
        *head, key = rng.choice(paths)
        parent = _at(obj, head)
        how = rng.random()
        if how < 0.15:
            del parent[key]
        elif how < 0.25 and isinstance(parent, list):
            parent.append(parent[key])
        elif how < 0.6:
            # A number, string or null from elsewhere in the file:
            # well-formed, mostly, but in the wrong place.
            leaves = [v for v in (_at(obj, p) for p in paths) if not isinstance(v, (dict, list))]
            parent[key] = rng.choice(leaves)
        else:
            parent[key] = rng.choice(MUTANTS)
    return obj


@default_digit_limit
class TestFuzzGuard:
    """Seeded mutations of the example graph and pencil files: every command
    exits 0, 1 or 2 with at most one `error:` line and no traceback."""

    def test_mutated_files(self, capsys, tmp_path):
        graph = example_graph().to_json()
        base = tmp_path / "pencil.json"
        assert main(["synthesize", _write_json(tmp_path / "graph.json", graph), "--out", str(base)]) == 0
        pencil = json.loads(base.read_text())
        lifted = ",".join(["0"] * pencil["n"])
        codes = {0: 0, 1: 0, 2: 0}
        for i in range(300):
            rng = rng_for(331, i)
            if i % 5 == 4:
                command, mutant = ("member", "FILE", "--point", lifted), _mutate(rng, pencil)
            else:
                command, mutant = GRAPH_COMMANDS[i % len(GRAPH_COMMANDS)], _mutate(rng, graph)
            path = _write_json(tmp_path / "mutant.json", mutant)
            argv = [path if arg == "FILE" else arg for arg in command]
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            err = capsys.readouterr().err
            assert code in codes, (argv, code)
            assert err.count("error:") <= 1 and "Traceback" not in err, (argv, err)
            # A missing key or a wrong JSON type is named as such, not by
            # Python's bare text, which for a KeyError is the quoted key alone.
            assert not re.search(rf"JSON in {re.escape(path)}: '[^']*'$", err, re.MULTILINE), (argv, err)
            codes[code] += 1
        assert all(codes.values()), codes

    @pytest.mark.parametrize(
        "mutate, said",
        [
            (lambda obj: obj["edges"][0].pop("tail"), "missing key 'tail'"),
            (lambda obj: obj.pop("random"), "missing key 'random'"),
            (lambda obj: obj.update(edges=[7]), "wrong JSON type: 'int' object is not subscriptable"),
        ],
        ids=["edge-key", "class-key", "edge-type"],
    )
    def test_loader_names_the_fault(self, capsys, tmp_path, mutate, said):
        graph = example_graph().to_json()
        mutate(graph)
        path = _write_json(tmp_path / "graph.json", graph)
        assert main(["validate", path]) == 2
        assert capsys.readouterr().err == f"error: bad GameGraph JSON in {path}: {said}\n"
