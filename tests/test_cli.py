import csv
import json
import os
import re
import subprocess
import sys

import pytest
from click.testing import CliRunner

import suffixfree
from suffixfree.atoms import AtomRow
from suffixfree.automata import Dfa
from suffixfree.cli import main, run
from suffixfree import semigroups
from suffixfree.langops import is_suffix_free, star
from suffixfree.semigroups import BSF, VSF, WSF, transition_semigroup
from suffixfree.verify import ALIASES, MEASURES
from suffixfree.witnesses import d5, d6

from helpers import is_isomorphic, reference_is_subsemigroup_of


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    return runner.invoke(main, list(args), **kwargs)


def run_module(*args):
    """Run `python -m suffixfree.cli` in a fresh interpreter that imports
    the same suffixfree package as this test, installed or not."""
    src = os.path.dirname(os.path.dirname(suffixfree.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "suffixfree.cli", *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))


# ---------------------------------------------------------------------------
# witness

def test_witness_d5_json(runner):
    result = invoke(runner, "witness", "d5", "--n", "6")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert Dfa.from_dict(doc) == d5(6)


def test_witness_d6_dialect_text(runner):
    result = invoke(runner, "witness", "d6", "--n", "5",
                    "--dialect", "a,-,c,-,e", "--format", "text")
    assert result.exit_code == 0
    assert "alphabet: a c e" in result.output


def test_witness_dot_output(runner):
    result = invoke(runner, "witness", "d6", "--n", "4", "--dot")
    assert result.exit_code == 0
    assert result.output.startswith("digraph")


def test_witness_product_binary(runner):
    result = invoke(runner, "witness", "product-binary", "--m", "6", "--n", "7")
    assert result.exit_code == 0
    left, right = (Dfa.from_dict(doc) for doc in json.loads(result.output))
    assert left.state_count == 6 and right.state_count == 7


def test_witness_out_file(runner, tmp_path):
    path = tmp_path / "d5.json"
    result = invoke(runner, "witness", "d5", "--n", "6", "--out", str(path))
    assert result.exit_code == 0
    assert Dfa.from_dict(json.loads(path.read_text())) == d5(6)


# ---------------------------------------------------------------------------
# op

def write_dfa(tmp_path, name, d):
    path = tmp_path / name
    path.write_text(json.dumps(d.to_dict()))
    return str(path)


def test_op_star(runner, tmp_path):
    src = write_dfa(tmp_path, "in.json", d5(6, "a,b,-"))
    result = invoke(runner, "op", "star", src)
    assert result.exit_code == 0
    out = Dfa.from_dict(json.loads(result.output))
    assert out.state_count == 17
    assert is_isomorphic(out, star(d5(6, "a,b,-")))


def test_op_union(runner, tmp_path):
    a = write_dfa(tmp_path, "a.json", d5(6, "a,b,-"))
    b = write_dfa(tmp_path, "b.json", d5(6, "-,b,a"))
    result = invoke(runner, "op", "union", a, b)
    assert result.exit_code == 0
    assert json.loads(result.output)["states"] == 26


def test_op_wrong_arity(runner, tmp_path):
    src = write_dfa(tmp_path, "in.json", d6(4))
    result = invoke(runner, "op", "concat", src)
    assert result.exit_code != 0


def test_op_budget_states(runner, tmp_path):
    src = write_dfa(tmp_path, "in.json", d5(8, "a,b,-"))
    result = invoke(runner, "op", "star", src, "--budget-states", "10")
    assert result.exit_code != 0


# ---------------------------------------------------------------------------
# semigroup

def test_semigroup_generate(runner, tmp_path):
    src = write_dfa(tmp_path, "in.json", d6(5))
    result = invoke(runner, "semigroup", "generate", src, "--format", "json")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc == {"degree": 5, "cardinality": 67}


def test_semigroup_generate_elements(runner, tmp_path):
    src = write_dfa(tmp_path, "in.json", d6(4))
    result = invoke(runner, "semigroup", "generate", src,
                    "--format", "json", "--elements")
    doc = json.loads(result.output)
    assert doc["cardinality"] == 11
    assert len(doc["elements"]) == 11
    assert doc["elements"] == sorted(doc["elements"])


def test_semigroup_classify(runner, tmp_path):
    src = write_dfa(tmp_path, "in.json", d6(5))
    result = invoke(runner, "semigroup", "classify", src, "--format", "json")
    doc = json.loads(result.output)
    assert doc["suffix_free"] is True
    assert doc["in_bsf"] is True and doc["in_wsf"] is True
    assert doc["in_vsf"] is False


def test_semigroup_collisions(runner, tmp_path):
    src = write_dfa(tmp_path, "in.json", d6(5))
    result = invoke(runner, "semigroup", "collisions", src, "--format", "json")
    doc = json.loads(result.output)
    assert doc["colliding"] == []
    assert doc["focused"] == [[1, 2], [1, 3], [2, 3]]


def test_semigroup_generate_counts_d6_9_without_listing(runner, tmp_path):
    # Listing the 2,097,159 elements took 5.2 s and 308 MB.
    src = write_dfa(tmp_path, "in.json", d6(9))
    result = invoke(runner, "semigroup", "generate", src, "--format", "json")
    assert result.exit_code == 0
    assert json.loads(result.output) == {"degree": 9, "cardinality": 2097159}


def test_semigroup_classify_d6_10_past_the_default_budget(runner, tmp_path):
    # |wsf(10)| = 43,046,729: listing it exceeds the default budget, and
    # the count, the generators and the wsf rule need no listing.
    src = write_dfa(tmp_path, "in.json", d6(10))
    result = invoke(runner, "semigroup", "classify", src, "--format", "json",
                    "--budget-elements", "50000000")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["cardinality"] == 43046729
    assert doc["in_wsf"] is True and doc["in_bsf"] is True
    assert doc["in_vsf"] is False


#: Semigroups inside bsf(5) but in neither vsf(5) nor wsf(5), so classify
#: lists them for bsf; and a letter map that collides 0 with a middle
#: state, outside bsf.
BSF_ONLY = Dfa(5, ["a", "b"], {"a": [1, 2, 4, 4, 4], "b": [4, 3, 1, 1, 4]}, 0, [2])
NOT_BSF = Dfa(4, ["a", "b"], {"a": [1, 2, 3, 3], "b": [2, 2, 1, 3]}, 0, [2])


@pytest.mark.parametrize("d", [d6(5), d6(5, "a,-,c,-,e"), d5(6, "a,b,-"),
                               BSF_ONLY, NOT_BSF, Dfa(2, [], {}, 0, [1])],
                         ids=["d6", "d6-reversal", "d5", "bsf-only", "not-bsf",
                              "no-letters"])
def test_semigroup_classify_matches_the_listed_semigroup(runner, tmp_path, d):
    src = write_dfa(tmp_path, "in.json", d)
    result = invoke(runner, "semigroup", "classify", src, "--format", "json")
    assert result.exit_code == 0
    sg = transition_semigroup(d)
    classes = {f"in_{cls}": sg.degree >= 2 and reference_is_subsemigroup_of(sg, cls)
               for cls in (BSF, VSF, WSF)}
    assert json.loads(result.output) == {
        "cardinality": len(sg), "suffix_free": is_suffix_free(d), **classes}


def test_semigroup_generate_lists_what_it_cannot_count(runner, tmp_path,
                                                       monkeypatch):
    # A count past semigroup_size's own cap (a large group, say) falls
    # back to listing under --budget-elements.
    monkeypatch.setattr(semigroups, "MAX_CLOSURE_ELEMENTS", 10)
    src = write_dfa(tmp_path, "in.json", d6(5))
    for command in ("generate", "classify"):
        result = invoke(runner, "semigroup", command, src, "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.output)["cardinality"] == 67


@pytest.mark.parametrize("command", ["generate", "classify", "collisions"])
def test_semigroup_commands_share_the_element_budget(tmp_path, monkeypatch,
                                                      capsys, command):
    src = write_dfa(tmp_path, "in.json", d6(5))
    monkeypatch.setattr(sys, "argv", ["sfc", "semigroup", command, src,
                                      "--budget-elements", "10"])
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2
    assert "max_elements=10" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# atoms

def test_atoms_list(runner, tmp_path):
    src = write_dfa(tmp_path, "in.json", d6(4))
    result = invoke(runner, "atoms", "list", src, "--format", "json")
    bases = json.loads(result.output)
    assert len(bases) == 5
    assert [] in bases and [0] in bases


def test_atoms_complexity(runner, tmp_path):
    src = write_dfa(tmp_path, "in.json", d6(5))
    result = invoke(runner, "atoms", "complexity", src,
                    "--basis", "1,2", "--format", "json")
    assert json.loads(result.output) == {"basis": [1, 2], "complexity": 16}


def test_atoms_table(runner):
    result = invoke(runner, "atoms", "table", "--n", "5", "--format", "json")
    rows = json.loads(result.output)
    assert all(row["met"] for row in rows)
    assert max(row["complexity"] for row in rows) == 16


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_atoms_table_miss_exits_one_in_every_format(runner, monkeypatch, fmt):
    monkeypatch.setattr("suffixfree.cli.atom_report",
                        lambda d: [AtomRow(basis=(1,), complexity=4, bound=5)])
    result = invoke(runner, "atoms", "table", "--n", "5", "--format", fmt)
    assert result.exit_code == 1


def _from_cell(cell, like):
    """The json value like, read back from its csv cell."""
    if isinstance(like, bool):
        return cell == "True"
    if isinstance(like, int):
        return int(cell)
    return [[int(q) for q in item.split(",")] if "," in item else int(item)
            for item in cell.split()]


@pytest.mark.parametrize("command", [
    ["semigroup", "generate", "FILE"],
    ["semigroup", "generate", "FILE", "--elements"],
    ["semigroup", "classify", "FILE"],
    ["semigroup", "collisions", "FILE"],
    ["atoms", "list", "FILE"],
    ["atoms", "complexity", "FILE", "--basis", "1,2"],
    ["search", "--n", "4"],
], ids=" ".join)
def test_csv_agrees_with_json(runner, tmp_path, command):
    src = write_dfa(tmp_path, "in.json", d6(5))
    args = [src if a == "FILE" else a for a in command]
    doc = json.loads(invoke(runner, *args, "--format", "json").output)
    result = invoke(runner, *args, "--format", "csv")
    assert result.exit_code == 0
    rows = list(csv.reader(result.output.splitlines()))
    if isinstance(doc, dict):
        header, values = rows
        assert header == list(doc)
        assert [_from_cell(c, v) for c, v in zip(values, doc.values())] \
            == list(doc.values())
    else:  # atoms list: one basis per row, no keys to head the column
        assert [_from_cell(c, []) for (c,) in rows] == doc


# ---------------------------------------------------------------------------
# verify / search and exit codes

def test_verify_star_exit_zero(runner):
    result = invoke(runner, "verify", "star", "--n", "6")
    assert result.exit_code == 0
    assert "met" in result.output


def test_verify_classes_past_the_closure_budget_exit_zero():
    # At n = 12 the atom witness's semigroup is wsf(12), with 11**10 + 10
    # elements; the classes are read off the generators.
    proc = run_module("verify", "classes", "--n", "12", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout)
    assert len(reports) == 4
    assert all(r["met"] and r["asserted"] for r in reports)


def test_verify_help_lists_every_measure_unbroken(runner):
    result = invoke(runner, "verify", "--help", env={"COLUMNS": "80"})
    assert result.exit_code == 0
    assert "verify [OPTIONS] MEASURE" in result.output
    assert max(map(len, result.output.splitlines())) <= 80
    for name in [*MEASURES, *ALIASES]:
        assert re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])",
                         result.output), name


def test_verify_unknown_measure_exit_two(runner):
    # run through the top-level handler to observe the mapped exit code
    proc = run_module("verify", "squaring", "--n", "6")
    assert proc.returncode == 2


def test_verify_json_and_text_agree(runner):
    as_json = invoke(runner, "verify", "reversal", "--n", "5",
                     "--format", "json")
    as_text = invoke(runner, "verify", "reversal", "--n", "5")
    doc = json.loads(as_json.output)[0]
    assert doc["computed"] == 9
    assert f"computed={doc['computed']}" in as_text.output


def test_search_command(runner):
    result = invoke(runner, "search", "--n", "4", "--format", "json")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["max_cardinality"] == 13
    assert doc["complete"] is True


def test_search_budget_exit_two(runner):
    proc = run_module("search", "--n", "7")
    assert proc.returncode == 2
    assert "budget" in proc.stderr.lower()


@pytest.mark.parametrize("args, message", [
    (["verify", "syntactic", "--n", "1"], "n >= 2"),
    (["verify", "wsf-size", "--n", "1"], "n >= 2"),
    (["verify", "wsf-size", "--n", "0"], "n >= 2"),
    (["search", "--n", "5", "--cap", "0"], "cap must be >= 1"),
    (["search", "--n", "5", "--cap", "-1"], "cap must be >= 1"),
    (["verify", "star", "--n", "6", "--m", "7"], "takes parameters n, not m, n"),
    (["verify", "star", "--n", "6", "--family", "d5"],
     "takes parameters n, not family, n"),
], ids=["syntactic-n1", "wsf-size-n1", "wsf-size-n0", "search-cap0",
        "search-cap-1", "verify-star-m", "verify-star-family"])
def test_out_of_contract_parameters_exit_two(monkeypatch, capsys, args,
                                             message):
    monkeypatch.setattr(sys, "argv", ["sfc", *args])
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field, broken", [
    ("transitions", lambda doc: doc.pop("transitions")),
    ("transitions.b", lambda doc: doc["transitions"]["b"].__setitem__(1, "x")),
    pytest.param("transitions",
                 lambda doc: doc["transitions"].__setitem__("z", [0, 0, 0, 0]),
                 id="transitions-letter-outside-alphabet"),
])
def test_malformed_interchange_exit_two(tmp_path, monkeypatch, capsys,
                                        field, broken):
    doc = d6(4).to_dict()
    broken(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(sys, "argv", ["sfc", "semigroup", "generate", str(path)])
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2
    assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["op", "star"],
    ["semigroup", "generate"],
    ["semigroup", "classify"],
    ["semigroup", "collisions"],
    ["atoms", "list"],
    ["atoms", "complexity", "--basis", ""],
], ids=lambda command: " ".join(command[:2]))
def test_directory_input_exit_two(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setattr(sys, "argv", ["sfc", *command[:2], str(tmp_path),
                                      *command[2:]])
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2
    assert "is a directory" in capsys.readouterr().err
