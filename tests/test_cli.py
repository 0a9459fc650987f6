import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import twogrp
from twogrp.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, main
from twogrp.coeff import MAX_COEFF_ORDER, AbelianGroup
from twogrp.cochain import Cochain
from twogrp.errors import TwogrpError
from twogrp.group import MAX_GROUP_ORDER, cyclic, dihedral, product
from twogrp.simplicial import TruncatedSSet, is_kan, nerve_bg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    return code, (json.loads(out) if out else None), err


def write_cocycle(tmp_path, name, values, group="cyclic:2", coeffs=None,
                  degree=3):
    obj = {
        "group": group,
        "coeffs": {"invariant_factors": coeffs or [2]},
        "degree": degree,
        "values": values,
    }
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def nontrivial_values():
    # alpha(g,g,g) = 1 on C2 with Z2 coefficients, nested G x G x G
    return [
        [[[0], [0]], [[0], [0]]],
        [[[0], [0]], [[0], [1]]],
    ]


def test_group_verb(capsys):
    code, obj, _ = run_json(capsys, "group", "cyclic:3", "--automorphisms")
    assert code == EXIT_PASS
    assert obj["group"]["order"] == 3
    assert obj["automorphism_count"] == 2


def test_automorphism_verbs_do_not_import_numpy_ma():
    # numpy.ma costs a first call over 10 ms to import and no verb needs it
    script = (
        "import sys\n"
        "from twogrp.cli import main\n"
        "codes = [main(['group', 'cyclic:4', '--automorphisms']),\n"
        "         main(['cocycle', 'classes-mod-aut', '--group', 'cyclic:4', '--coeffs', '2'])]\n"
        "print(codes, 'numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    src = str(pathlib.Path(twogrp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == "[0, 0] False"
    assert "[[0, 1, 2, 3], [0, 3, 2, 1]]" in done.stdout


def test_group_text_output(capsys):
    code, out, _ = run(capsys, "group", "cyclic:3")
    assert code == EXIT_PASS
    assert out.strip().endswith("RESULT: PASS")
    assert "elapsed_ms" in out


def test_missing_file_is_usage_error(capsys):
    code, out, err = run(capsys, "cocycle", "verify", "/nonexistent.json")
    assert code == EXIT_USAGE
    assert "error" in err


@pytest.mark.parametrize("argv, match", [
    (("cohomology", "--group", "cyclic:2", "--coeffs", "2,x"), "bad coefficient spec '2,x'"),
    (("cohomology", "--group", "cyclic:2", "--coeffs", ","), "empty coefficient spec ','"),
], ids=["non-integer-factor", "no-factor"])
def test_bad_coefficient_specs_are_usage_errors(capsys, argv, match):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and not out
    assert match in err


def test_invalid_json_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    code, out, err = run(capsys, "sset", "validate", str(path))
    assert code == EXIT_USAGE and not out
    assert "invalid JSON in %s" % path in err


def test_group_verb_writes_its_output_file(capsys, tmp_path):
    path = tmp_path / "c4.json"
    code, obj, _ = run_json(capsys, "group", "cyclic:4", "-o", str(path))
    assert code == EXIT_PASS and obj["written"] == str(path)
    assert json.loads(path.read_text()) == obj["group"] == cyclic(4).to_json()


def test_bad_spec_is_fail(capsys):
    # a nonexistent group family parses as a spec string and fails loading
    code, out, err = run(capsys, "cohomology", "--group", "foo:3",
                         "--coeffs", "2")
    assert code == EXIT_FAIL
    assert "error" in err


def test_cohomology_payload(capsys):
    code, obj, _ = run_json(capsys, "cohomology", "--group", "cyclic:2",
                            "--coeffs", "2")
    assert code == EXIT_PASS
    assert obj["invariant_factors"] == [2]
    assert obj["class_count"] == 2
    assert obj["representatives"] == [nontrivial_values()]


def test_cohomology_size_bound(capsys):
    code, out, err = run(capsys, "--max-group", "4", "cohomology",
                         "--group", "cyclic:6", "--coeffs", "2")
    assert code == EXIT_FAIL
    # a negative degree is a usage error, reported without a traceback
    for verb in (["cohomology"], ["cocycle", "solve"]):
        code, out, err = run(capsys, *verb, "--group", "cyclic:2",
                             "--coeffs", "2", "--degree", "-1")
        assert code == EXIT_USAGE
        assert "degree must be >= 0" in err and "Traceback" not in err


def test_cocycle_verify(capsys, tmp_path):
    path = write_cocycle(tmp_path, "good.json", nontrivial_values())
    code, obj, _ = run_json(capsys, "cocycle", "verify", path)
    assert code == EXIT_PASS and obj["is_cocycle"] and obj["normalized"]
    # a non-cocycle over Z4 exits 1 with a witness
    bad = [
        [[[0], [0]], [[0], [0]]],
        [[[0], [0]], [[0], [1]]],
    ]
    path = write_cocycle(tmp_path, "bad.json", bad, coeffs=[4])
    code, obj, _ = run_json(capsys, "cocycle", "verify", path)
    assert code == EXIT_FAIL
    assert obj["is_cocycle"] is False and obj["witness"] == [1, 1, 1, 1]


def test_cocycle_verify_rejects_bad_degree(capsys, tmp_path):
    # a degree that is negative or not an integer is a usage error naming it
    for degree in (-1, 1.5, "3", True):
        path = write_cocycle(tmp_path, "deg.json", nontrivial_values(),
                             degree=degree)
        code, out, err = run(capsys, "cocycle", "verify", path)
        assert code == EXIT_USAGE, degree
        assert "degree" in err and repr(degree) in err
        assert "Traceback" not in err and out == ""


def test_cocycle_verify_rejects_non_integer_residues(capsys, tmp_path):
    # JSON reads 0.5 and 1.0 as floats and true as a bool: none is a residue
    for residue in (0.5, 1.0, True):
        values = nontrivial_values()
        values[1][1][1] = [residue]
        path = write_cocycle(tmp_path, "residue.json", values)
        code, out, err = run(capsys, "cocycle", "verify", path)
        assert code == EXIT_USAGE, residue
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert "integers" in err and out == ""


def test_cocycle_verify_rejects_non_integer_factors(capsys, tmp_path):
    path = write_cocycle(tmp_path, "factors.json", nontrivial_values(),
                         coeffs=["x"])
    code, out, err = run(capsys, "cocycle", "verify", path)
    assert code == EXIT_USAGE
    assert err.count("\n") == 1 and "invariant_factors" in err and out == ""


def test_cocycle_verify_coefficient_order_bound(capsys, tmp_path):
    # a factor past int64 used to escape as an OverflowError traceback
    for factors in ([2**70], [MAX_COEFF_ORDER, 2]):
        path = write_cocycle(tmp_path, "huge.json", nontrivial_values(),
                             coeffs=factors)
        code, out, err = run(capsys, "cocycle", "verify", path)
        assert code == EXIT_FAIL, factors
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert "exceeds bound %d" % MAX_COEFF_ORDER in err and out == ""


@pytest.mark.parametrize("obj", [{"table": [["a"]]}, {"table": 5}, [[0]]])
def test_group_malformed_json_is_usage_error(capsys, tmp_path, obj):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "group", str(path))
    assert code == EXIT_USAGE
    assert err.count("\n") == 1 and err.startswith("error: ") and out == ""


def test_group_order_bound(capsys, tmp_path):
    # every constructor refuses order MAX_GROUP_ORDER + 1 before building
    # or validating a table
    n = MAX_GROUP_ORDER + 1
    assert 3 * 43 == n
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"table": [[0]] * n}))
    for argv in (["cohomology", "--group", "cyclic:%d" % n, "--coeffs", "2"],
                 ["group", "product:cyclic:3,cyclic:43"],
                 ["group", "dihedral:%d" % (n // 2 + 1)],
                 ["group", str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_FAIL, argv
        assert "exceeds bound %d" % MAX_GROUP_ORDER in err and out == ""


def test_cocycle_solve_and_classes(capsys):
    code, obj, _ = run_json(capsys, "cocycle", "solve", "--group", "cyclic:2",
                            "--coeffs", "2")
    assert code == EXIT_PASS and obj["subgroup_order"] == 2
    code, obj, _ = run_json(capsys, "cocycle", "classes-mod-aut",
                            "--group", "cyclic:3", "--coeffs", "3")
    assert code == EXIT_PASS
    assert obj["class_count"] == 3 and obj["orbit_count"] == 3


def test_class_enumeration_bound(capsys):
    # H^3(C2^3, Z2^3) has 2^30 classes, above the enumeration bound
    spec = "product:cyclic:2,product:cyclic:2,cyclic:2"
    for argv in (["cocycle", "classes-mod-aut", "--group", spec, "--coeffs", "2,2,2"],
                 ["theorem", "verify", "--group", spec, "--coeffs", "2,2,2", "--all-classes"]):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_FAIL, argv
        assert out == "" and err == ("error: the class list of H^3 would hold 1073741824 "
                                     "cells, above the bound 1048576\n")


def test_twogroup_verbs(capsys, tmp_path):
    path = write_cocycle(tmp_path, "alpha.json", nontrivial_values())
    code, obj, _ = run_json(capsys, "twogroup", "check", "--cocycle", path)
    assert code == EXIT_PASS and obj["pentagon"]["ok"] and obj["triangle"]["ok"]
    code, obj, _ = run_json(capsys, "twogroup", "duality", "--cocycle", path,
                            "--element", "1")
    assert code == EXIT_PASS
    assert obj["dual"] == 1 and len(obj["pairs"]) == 2
    # |A| = 2^17 pairs are above the duality bound: exit 1, no traceback
    big = write_cocycle(tmp_path, "big.json", [[[[0], [0]], [[0], [0]]]] * 2,
                        coeffs=[2**17])
    code, out, err = run(capsys, "twogroup", "duality", "--cocycle", big,
                         "--element", "1")
    assert code == EXIT_FAIL and not out
    assert "bound" in err and "Traceback" not in err
    # functor: the zero coherence certifies alpha against itself
    j = write_cocycle(tmp_path, "j.json", [[[0], [0]], [[0], [0]]], degree=2)
    code, obj, _ = run_json(capsys, "twogroup", "functor", "--from", path,
                            "--to", path, "--coherence", j)
    assert code == EXIT_PASS and obj["ok"]
    # and fails to connect alpha to the trivial associator
    zero = write_cocycle(
        tmp_path, "zero.json",
        [[[[0], [0]], [[0], [0]]], [[[0], [0]], [[0], [0]]]],
    )
    code, obj, _ = run_json(capsys, "twogroup", "functor", "--from", path,
                            "--to", zero, "--coherence", j)
    assert code == EXIT_FAIL and obj["witness"] == [1, 1, 1]


def test_sset_verbs(capsys, tmp_path):
    out_path = str(tmp_path / "nerve.json")
    code, obj, _ = run_json(capsys, "sset", "nerve", "--group", "cyclic:2",
                            "--trunc", "3", "-o", out_path)
    assert code == EXIT_PASS and obj["levels"] == [1, 2, 4, 8]
    code, obj, _ = run_json(capsys, "sset", "validate", out_path)
    assert code == EXIT_PASS and obj["ok"]
    code, obj, _ = run_json(capsys, "sset", "kan", out_path)
    assert code == EXIT_PASS and obj["ok"]
    # a truncation past numpy's dimension limit is refused, a negative one is
    # a usage error
    code, out, err = run(capsys, "sset", "nerve", "--group", "cyclic:1", "--trunc", "100")
    assert code == EXIT_FAIL and out == ""
    assert err == "error: nerve truncation 100 exceeds bound 31\n"
    code, out, err = run(capsys, "sset", "nerve", "--group", "cyclic:2", "--trunc", "-1")
    assert code == EXIT_USAGE and out == ""
    assert "trunc must be >= 0" in err and "Traceback" not in err


def write_sset(tmp_path, obj):
    path = tmp_path / "sset.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_sset_malformed_files_are_usage_errors(capsys, tmp_path):
    nerve = {"truncation": 1, "levels": [1, 2], "faces": {"1,0": [0, 0], "1,1": [0, 0]},
             "degeneracies": {"0,0": [0]}}
    bad = [
        dict(nerve, levels=["a", 2]),
        {k: v for k, v in nerve.items() if k != "levels"},
        dict(nerve, levels=[1, 100000000000]),
        dict(nerve, truncation=-1, levels=[]),
        dict(nerve, truncation="1"),
        dict(nerve, levels=[1, 2, 3]),
        dict(nerve, faces={"1,0": [0, "0"], "1,1": [0, 0]}),
        dict(nerve, faces={"1,0": [0, 0.5], "1,1": [0, 0]}),
        dict(nerve, faces={"1,x": [0, 0], "1,1": [0, 0]}),
        dict(nerve, degeneracies=[[0]]),
        # tables the truncation has no place for
        dict(nerve, faces=dict(nerve["faces"], **{"7,3": [5, 5, 5]})),
        dict(nerve, faces=dict(nerve["faces"], **{"1,5": [0]})),
        dict(nerve, faces=dict(nerve["faces"], **{"-1,0": [0]})),
        [nerve],
        # one cell per level, well formed but above the truncation bound
        {"truncation": 32, "levels": [1] * 33,
         "faces": {"%d,%d" % (n, i): [0] for n in range(1, 33) for i in range(n + 1)},
         "degeneracies": {"%d,%d" % (n, i): [0] for n in range(32) for i in range(n + 1)}},
    ]
    for verb in ("validate", "kan"):
        for obj in bad:
            code, out, err = run(capsys, "sset", verb, write_sset(tmp_path, obj))
            assert code == EXIT_USAGE, obj
            assert err.count("\n") == 1 and err.startswith("error: "), err
            assert out == ""
    # the well-formed original passes
    code, out, err = run(capsys, "sset", "validate", write_sset(tmp_path, nerve))
    assert code == EXIT_PASS


def check_exit(code, out, err, context):
    """Every verb exits 0, 1 or 2 with no traceback; a refusal is one
    `error:` line and a report is JSON whose ok flag matches the code."""
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE), context
    assert "Traceback" not in err
    if code == EXIT_USAGE or code == EXIT_FAIL and not out:
        assert err.startswith("error: ") and err.count("\n") == 1, (context, err)
    else:
        assert json.loads(out)["ok"] is (code == EXIT_PASS), context


JUNK = st.one_of(
    st.integers(-3, 9),
    st.sampled_from([2**20, 2**21, 2**63, 2**70, -2**70, None, "1", 1.5, True, [], {}]),
)
TABLE_KEYS = ["0,0", "1,0", "1,2", "2,0", "2,3", "3,0", "-1,0", "1", "1,2,3", "a,b", " 1,0"]


@st.composite
def garbled_nerve(draw):
    """nerve_bg(C2, 2) as JSON with one to four parts garbled: the
    truncation, level sizes, table keys, table entries, whole tables and
    missing keys."""
    obj = nerve_bg(cyclic(2), 2).to_json()
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(
            ["truncation", "size", "levels", "key", "entry", "table", "drop"]))
        part = draw(st.sampled_from(["faces", "degeneracies"]))
        tables = obj.get(part)
        keys = sorted(tables) if isinstance(tables, dict) else []
        if kind == "truncation":
            obj["truncation"] = draw(JUNK)
        elif kind == "size" and isinstance(obj.get("levels"), list) and obj["levels"]:
            obj["levels"][draw(st.integers(0, len(obj["levels"]) - 1))] = draw(JUNK)
        elif kind == "levels":
            obj["levels"] = draw(st.one_of(st.lists(st.integers(0, 6), max_size=5), JUNK))
        elif kind == "key" and keys:
            tables[draw(st.sampled_from(TABLE_KEYS))] = tables.pop(draw(st.sampled_from(keys)))
        elif kind == "entry" and keys:
            table = tables[draw(st.sampled_from(keys))]
            if isinstance(table, list) and table:
                table[draw(st.integers(0, len(table) - 1))] = draw(JUNK)
        elif kind == "table" and keys:
            tables[draw(st.sampled_from(keys))] = draw(
                st.one_of(st.lists(st.integers(-2, 8), max_size=6), JUNK))
        elif kind == "drop":
            names = sorted(obj) + ["%s/%s" % (part, k) for k in keys]
            name = draw(st.sampled_from(names))
            if "/" in name:
                del tables[name.split("/")[1]]
            else:
                del obj[name]
    return obj


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(garbled_nerve())
def test_sset_verbs_survive_garbled_files(capsys, tmp_path, obj):
    path = write_sset(tmp_path, obj)
    for argv in (["validate", path], ["kan", path], ["kan", "--up-to", "5", path]):
        code, out, err = run(capsys, "--format", "json", "sset", *argv)
        check_exit(code, out, err, (argv, obj))


def test_deeply_nested_json_is_usage_error(capsys, tmp_path):
    # json raises RecursionError past the interpreter's recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    for argv in (["group", str(path)], ["cocycle", "verify", str(path)],
                 ["sset", "validate", str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == "", argv
        assert err == "error: JSON in %s is nested too deeply\n" % path


# JSON text spliced in place of the string DEEP: nesting that decodes,
# nesting past the recursion limit, and a row of 2**70
DEEP = st.sampled_from(["[" * k + "]" * k for k in (3, 60, 5000)] + ["[%d]" % 2**70])
ENTRY = st.one_of(
    st.integers(-2, 6),
    st.sampled_from([-1, 2**63, 2**70, -2**70, True, False, 1.5, 0.0, None, "1",
                     [], [0], {}, "DEEP"]),
)


def splice(obj, deep):
    return json.dumps(obj).replace('"DEEP"', deep)


@st.composite
def garbled_group(draw):
    """A family group's JSON with one to three parts garbled: entries,
    whole rows (ragged, non-list or deeply nested), the table, the name and
    missing keys."""
    G = draw(st.sampled_from([cyclic(1), cyclic(2), cyclic(3), dihedral(2),
                              product(cyclic(2), cyclic(3))]))
    obj = G.to_json()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["entry", "entry", "row", "ragged", "table",
                                     "deep", "name", "drop"]))
        table = obj.get("table")
        rows = table if isinstance(table, list) and table else None
        if kind == "entry" and rows and isinstance(rows[0], list) and rows[0]:
            row = draw(st.sampled_from(rows))
            if isinstance(row, list) and row:
                row[draw(st.integers(0, len(row) - 1))] = draw(ENTRY)
        elif kind in ("row", "deep") and rows:
            rows[draw(st.integers(0, len(rows) - 1))] = (
                "DEEP" if kind == "deep" else draw(ENTRY))
        elif kind == "ragged" and rows:
            i = draw(st.integers(0, len(rows) - 1))
            if isinstance(rows[i], list):
                rows[i] = rows[i][:draw(st.integers(0, len(rows[i])))] + draw(
                    st.lists(st.integers(-1, 7), max_size=2))
        elif kind == "table":
            obj["table"] = draw(st.one_of(ENTRY, st.lists(
                st.lists(st.integers(-1, 3), max_size=3), max_size=3)))
        elif kind == "name":
            obj["name"] = draw(ENTRY)
        elif kind == "drop":
            del obj[draw(st.sampled_from(sorted(obj)))]
    return splice(obj, draw(DEEP))


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(garbled_group())
def test_group_file_verbs_survive_garbled_tables(capsys, tmp_path, text):
    path = tmp_path / "group.json"
    path.write_text(text)
    for argv in (["group", str(path), "--automorphisms"],
                 ["cohomology", "--group", str(path), "--coeffs", "2"]):
        code, out, err = run(capsys, "--format", "json", *argv)
        check_exit(code, out, err, (argv, text))


@st.composite
def garbled_cocycle(draw):
    """The nontrivial C2/Z2 cocycle file with one to three parts garbled:
    residues, fanout, the degree, the group (spec or table), the
    coefficients, deep nesting and missing keys."""
    obj = {"group": "cyclic:2", "coeffs": {"invariant_factors": [2]},
           "degree": 3, "values": nontrivial_values()}
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["residue", "node", "deep", "degree", "group",
                                     "coeffs", "drop"]))
        node = obj.get("values")
        if kind in ("residue", "node", "deep"):
            path = draw(st.lists(st.integers(0, 1), min_size=1, max_size=4))
            for i in path[:-1]:
                if isinstance(node, list) and i < len(node):
                    node = node[i]
            if isinstance(node, list) and path[-1] < len(node):
                if kind == "residue" and isinstance(node[path[-1]], list) and node[path[-1]]:
                    node = node[path[-1]]
                node[min(path[-1], len(node) - 1)] = (
                    "DEEP" if kind == "deep" else draw(ENTRY))
        elif kind == "degree":
            obj["degree"] = draw(st.one_of(st.integers(-1, 6), st.sampled_from(
                [40, 70, 2**70, True, 3.0, "3", None])))
        elif kind == "group":
            obj["group"] = draw(st.one_of(
                st.sampled_from(["cyclic:1", "cyclic:3", "dihedral:1", "cyclic:0",
                                 "cyclic:129", "frobnitz:2", "cyclic:2x"]),
                st.builds(lambda t: {"table": t}, st.lists(
                    st.lists(st.integers(-1, 2), max_size=3), max_size=3)),
                ENTRY))
        elif kind == "coeffs":
            obj["coeffs"] = draw(st.one_of(
                st.builds(lambda f: {"invariant_factors": f}, st.lists(
                    st.sampled_from([0, 1, 2, 3, 2**70, True, 2.0]), max_size=3)),
                ENTRY))
        elif kind == "drop":
            del obj[draw(st.sampled_from(sorted(obj)))]
    return splice(obj, draw(DEEP))


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(garbled_cocycle())
def test_cocycle_file_verbs_survive_garbling(capsys, tmp_path, text):
    path = tmp_path / "alpha.json"
    path.write_text(text)
    for argv in (["cocycle", "verify", str(path)],
                 ["twogroup", "check", "--cocycle", str(path)],
                 ["theorem", "verify", "--group", "cyclic:2", "--coeffs", "2",
                  "--cocycle", str(path)]):
        code, out, err = run(capsys, "--format", "json", *argv)
        check_exit(code, out, err, (argv, text))


def test_group_power_allocations_are_refused(capsys, tmp_path):
    # each would allocate gigabytes or more before the bound: the
    # theorem's alpha over C128^3, the degree-3 bar matrix of C128, a
    # 70-dimensional cochain array, the pentagon over C33^4
    values = [[[[0]] * 33] * 33] * 33
    big = write_cocycle(tmp_path, "c33.json", values, group="cyclic:33")
    deep = [0]
    for _ in range(70):
        deep = [deep]
    for argv in (["theorem", "verify", "--group", "cyclic:128", "--coeffs", "2"],
                 ["--max-group", "128", "cohomology", "--group", "cyclic:128",
                  "--coeffs", "2"],
                 ["cocycle", "verify", write_cocycle(
                     tmp_path, "c70.json", deep, group="cyclic:1", degree=70)],
                 ["twogroup", "check", "--cocycle", big]):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_FAIL and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "bound" in err


# SHA-256 of `--format json` stdout, recorded before the simplicial layer
# moved to numpy tables; the layer must keep every byte.
GOLDEN_DIGESTS = {
    "theorem-v4": "22a0a06a08220e2fac883e0c3e268ee729c2f0576e7046840e452434bdd1d9c8",
    "sset-nerve-d3": "c3af57a9501da893cffd9a853e261e41a7389feba85c8ac7421502a24efeded1",
    "sset-validate-corrupt": "3d80903a7ad5f17202ee800f82a2ec8a6a67beb8b729f27659e8416e15bca37f",
    "sset-kan-corrupt": "f00a0daa5721e3b080ebe1629a8adf51bcb86312d68edd52bf1b0a6c5a166ebb",
}


def test_golden_json_digests(capsys, tmp_path):
    def digest(*argv):
        code, out, _ = run(capsys, "--format", "json", *argv)
        return code, out, hashlib.sha256(out.encode("utf-8")).hexdigest()

    got = {}
    code, _, got["theorem-v4"] = digest(
        "theorem", "verify", "--group", "product:cyclic:2,cyclic:2",
        "--coeffs", "2", "--all-classes")
    assert code == EXIT_PASS
    code, out, got["sset-nerve-d3"] = digest(
        "sset", "nerve", "--group", "dihedral:3", "--trunc", "3")
    assert code == EXIT_PASS
    # d1 of the 2-cell (0, 5) sent to the identity: breaks an identity and
    # leaves a 2-horn unfilled
    obj = json.loads(out)["sset"]
    obj["faces"]["2,1"][5] = 0
    path = write_sset(tmp_path, obj)
    code, _, got["sset-validate-corrupt"] = digest("sset", "validate", path)
    assert code == EXIT_FAIL
    code, _, got["sset-kan-corrupt"] = digest("sset", "kan", path)
    assert code == EXIT_FAIL
    assert got == GOLDEN_DIGESTS


def test_kan_up_to_below_one_is_rejected(capsys, tmp_path):
    # the corrupted D3 nerve of test_golden_json_digests is not Kan; a sweep
    # over no level must not report it as Kan
    obj = nerve_bg(dihedral(3), 3).to_json()
    obj["faces"]["2,1"][5] = 0
    path = write_sset(tmp_path, obj)
    code, _, _ = run(capsys, "sset", "kan", path, "--up-to", "1")
    assert code == EXIT_PASS
    code, _, _ = run(capsys, "sset", "kan", path, "--up-to", "2")
    assert code == EXIT_FAIL
    for up_to in ("0", "-1"):
        code, out, err = run(capsys, "sset", "kan", path, "--up-to", up_to)
        assert code == EXIT_USAGE and out == ""
        assert "up-to must be >= 1" in err and "Traceback" not in err
    X = TruncatedSSet.from_json(obj)
    for up_to in (0, -1):
        with pytest.raises(TwogrpError, match="up_to"):
            is_kan(X, up_to=up_to)


def test_theorem_verify(capsys, tmp_path):
    code, obj, _ = run_json(capsys, "theorem", "verify", "--group", "cyclic:2",
                            "--coeffs", "2", "--all-classes")
    assert code == EXIT_PASS and obj["ok"]
    assert len(obj["classes"]) == 2
    assert obj["classes"][0]["input"] == "class:0"
    for entry in obj["classes"]:
        assert entry["report"]["ok"]
    # single-cocycle mode
    path = write_cocycle(tmp_path, "alpha.json", nontrivial_values())
    code, obj, _ = run_json(capsys, "theorem", "verify", "--group", "cyclic:2",
                            "--coeffs", "2", "--cocycle", path)
    assert code == EXIT_PASS and len(obj["classes"]) == 1
    assert obj["group"]["name"] == "cyclic:2" and obj["coeffs"] == [2]
    # a report is never labelled with a group or coefficients the file is not over
    for group, coeffs in (("dihedral:3", "5"), ("cyclic:2", "5"), ("cyclic:3", "2"),
                          ("product:cyclic:2,cyclic:2", "2")):
        code, out, err = run(capsys, "theorem", "verify", "--group", group,
                             "--coeffs", coeffs, "--cocycle", path)
        assert code == EXIT_USAGE and out == "", (group, coeffs)
        assert "cyclic:2 with coefficients [2]" in err and "Traceback" not in err


def test_json_determinism(capsys):
    argv = ["--format", "json", "theorem", "verify", "--group", "cyclic:2",
            "--coeffs", "2", "--all-classes"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == EXIT_PASS
    assert out1 == out2
