import json

import pytest

from twogrp.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, main
from twogrp.coeff import AbelianGroup
from twogrp.cochain import Cochain
from twogrp.group import cyclic


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
