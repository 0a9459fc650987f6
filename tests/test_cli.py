import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from twogrp.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, main
from twogrp.coeff import MAX_COEFF_ORDER, AbelianGroup
from twogrp.cochain import Cochain
from twogrp.errors import TwogrpError
from twogrp.group import MAX_GROUP_ORDER, cyclic, dihedral
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


def test_group_text_output(capsys):
    code, out, _ = run(capsys, "group", "cyclic:3")
    assert code == EXIT_PASS
    assert out.strip().endswith("RESULT: PASS")
    assert "elapsed_ms" in out


def test_missing_file_is_usage_error(capsys):
    code, out, err = run(capsys, "cocycle", "verify", "/nonexistent.json")
    assert code == EXIT_USAGE
    assert "error" in err


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
        [nerve],
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
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE), (argv, obj)
        assert "Traceback" not in err
        if code == EXIT_USAGE or code == EXIT_FAIL and not out:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert json.loads(out)["ok"] is (code == EXIT_PASS)


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


def test_json_determinism(capsys):
    argv = ["--format", "json", "theorem", "verify", "--group", "cyclic:2",
            "--coeffs", "2", "--all-classes"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == EXIT_PASS
    assert out1 == out2
