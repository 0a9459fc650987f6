"""A catalogue of one-line mutants of src/twogrp, each with the tests that
must kill it.

    python tests/mutants.py [NAME ...]

Each mutant replaces a fragment that occurs exactly once in one source file.
For each mutant the script copies src/, tests/ and pyproject.toml to a
fresh temporary directory, applies the mutant there and runs the mutant's
tests with pytest -x; the mutant is killed when a test fails.  The tests
are first run once on an unmutated copy, where they must pass, so a kill
is never a broken test.  The exit status is 1 when a mutant survives, when a
fragment does not occur exactly once, or when the unmutated copy fails, and
0 otherwise.  pytest does not collect this file (it is not named test_*).
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

COR, SIM = "src/twogrp/correspondence.py", "src/twogrp/simplicial.py"
GRP, MOD = "src/twogrp/group.py", "src/twogrp/modlinalg.py"
COCHAIN, TWO = "src/twogrp/cochain.py", "src/twogrp/twogroup.py"
COR_TESTS, SIM_TESTS = "tests/test_correspondence.py", "tests/test_simplicial.py"
TWO_TESTS = "tests/test_twogroup.py"
COCHAIN_TESTS, CONTRACT = "tests/test_cochain.py", "tests/test_contract.py"
MOD_TESTS, GRP_TESTS = "tests/test_modlinalg.py", "tests/test_group.py"
SIM_REFUSED = SIM_TESTS + "::test_malformed_simplicial_arguments_are_refused"
ORACLE = SIM_TESTS + "::test_b2a_objects_match_the_definitions"
CONTROLS = COR_TESTS + "::test_negative_controls_fail_the_same_stages"

# (name, file, fragment, replacement, tests)
MUTANTS = [
    # the three mutants of the models' nerve face rule
    ("model-d1-d2", COR,
     "NG.faces[(3, i)][fgh] * na + digits3[i]",
     "NG.faces[(3, (0, 2, 1, 3)[i])][fgh] * na + digits3[i]",
     [COR_TESTS + "::test_duskin_compositor_constraint",
      COR_TESTS + "::test_pullback_model_faces"]),
    ("frame-level2-reversed", COR,
     "np.repeat(NG.faces[(2, i)], na)",
     "np.repeat(NG.faces[(2, 2 - i)], na)",
     [COR_TESTS + "::test_duskin_nerve_sizes_and_validity", COR_TESTS + "::test_report_shape"]),
    ("level4-d1-d2", SIM,
     "d, v1, v2, v3, c = (V[NG.faces[(4, i)]] for i in range(5))",
     "d, v2, v1, v3, c = (V[NG.faces[(4, i)]] for i in range(5))",
     [SIM_TESTS + "::test_cocycle_as_map", SIM_TESTS + "::test_level4_extension_iff_cocycle"]),
    # W, Wbar and the decalage read off the one Wbar builder
    ("decalage-last-face", SIM,
     "lambda n: Wb.faces[(n + 1, 0)]))",
     "lambda n: Wb.faces[(n + 1, n + 1)]))",
     [ORACLE, SIM_TESTS + "::test_decalage_validates"]),
    ("w-unshifted-index", SIM,
     "tables[kind][(n, i)] = Wb.tables[kind][(n + 1, i + 1)]",
     "tables[kind][(n, i)] = Wb.tables[kind][(n + 1, i)]",
     [ORACLE]),
    ("wbar-face-drops-next-entry", SIM,
     "moves += [(t, t - 1, None) for t in range(max(i + 1, 2), n + 1)]",
     "moves += [(t, t - 1, None) for t in range(max(i + 2, 2), n + 1)]",
     [ORACLE]),
    ("wbar-degeneracy-drops-next-entry", SIM,
     "moves += [(t, t + 1, None) for t in range(i + 1, n + 1)]",
     "moves += [(t, t + 1, None) for t in range(i + 2, n + 1)]",
     [ORACLE]),
    ("gamma-keeps-non-surjections", SIM,
     "return [pos.get(eta, -1) for eta in moved]",
     "return [pos.get(eta, 0) for eta in moved]",
     [ORACLE]),
    ("wbar-copies-of-gamma", SIM,
     "_abelian_sset(A, N, 3, _w_targets,",
     "_abelian_sset(A, N, 2, _w_targets,",
     [ORACLE]),
    ("decalage-rebuilt-per-call", SIM,
     'return _cached(Wb, "decalage", lambda: _map_by_levels(',
     "return _cached(Wb, object(), lambda: _map_by_levels(",
     [SIM_TESTS + "::test_builders_cache_one_object_per_integer_value"]),
    # argument checks in front of the caches and at the entry points
    ("nerve-unchecked-before-cache", SIM,
     'check_instance(G, FiniteGroup, "the group")',
     "pass",
     [SIM_REFUSED + "[nerve-unhashable]"]),
    ("face-negative-cell-wraps", SIM,
     "if tab is None or not 0 <= x < len(tab):",
     "if tab is None or not x < len(tab):",
     [SIM_REFUSED + "[face-negative-cell]"]),
    ("horn-faces-unchecked", SIM,
     'check_instance(faces, Mapping, "the horn\'s faces")',
     "pass",
     [CONTRACT + "::test_malformed_arguments_raise_a_twogrp_error[Horn]"]),
    ("inverse-of-a-non-integer", GRP,
     "    def inv(self, x):\n        if not is_integer(x):",
     "    def inv(self, x):\n        if False:",
     [COCHAIN_TESTS + "::test_malformed_arguments_are_refused[inv-str]"]),
    ("copies-overwrite", SIM,
     "out[t] = x[j] if out[t] is None else A.add_array[out[t], x[j]]",
     "out[t] = x[j]",
     [ORACLE]),
    # the cold solve's pivot search and Howell sweep
    ("pivot-search-one-valuation-high", MOD,
     "found = _first_of_least_valuation(W, t, vmin, k)",
     "found = _first_of_least_valuation(W, t, vmin + 1, k)",
     [MOD_TESTS + "::test_smith_diagonalizes",
      MOD_TESTS + "::test_cold_solve_outputs_are_pinned[dihedral:3]"]),
    ("howell-last-leading-position", MOD,
     "pos = int(nonzero[live].argmax(axis=1).min())",
     "pos = int(nonzero[live].argmax(axis=1).max())",
     [MOD_TESTS + "::test_lex_reduce_matches_brute_force",
      MOD_TESTS + "::test_cold_solve_outputs_are_pinned[dihedral:3]"]),
    # maps on a base: a base that fails must not end the check, and a
    # fiber product whose bases raise is built from level 0
    ("map-validate-ignores-base-verdict", SIM,
     "low = base.src.truncation + 1 if base is not None and base.validate()[0] else 0",
     "low = base.src.truncation + 1 if base is not None else 0",
     [SIM_TESTS + "::test_a_map_on_a_base_reports_the_first_failure_of_its_components"]),
    ("fiber-product-base-error-escapes", SIM,
     "based = None  # built from level 0 below, so that the first failure is reported",
     "raise",
     [SIM_TESTS + "::test_fiber_product_on_bases_raises_the_first_failure"]),
    # one builder of maps on an alpha-free base, one way to reuse bases:
    # a kept result must be keyed by every set and base it reads
    ("on-bases-keyed-by-key-alone", SIM,
     "return _cached(bases[0], (key, *bases[1:]), lambda: op(*bases))",
     "return _cached(bases[0], key, lambda: op(*bases))",
     [COR_TESTS + "::test_kept_base_answers_hide_no_wrong_map[model-to-w-base-warm]"]),
    ("composites-trust-the-bases", SIM,
     "return below is not False and all(",
     "return below if below is not None else all(",
     [COR_TESTS + "::test_kept_base_answers_hide_no_wrong_map[model-to-w-level3-cold]",
      COR_TESTS + "::test_a_warm_class_checks_only_its_level_3"]),
    ("map-by-levels-keyed-without-target", SIM,
     "base = _cached(low_src, (key, low_dst),",
     "base = _cached(low_src, key,",
     [COR_TESTS + "::test_frame_is_shared"]),
    # one tower per builder: truncation N is level N on the cached N - 1,
    # and maps of sets on no base are built whole
    ("nerve-level-on-a-fresh-base", SIM,
     "base = _nerve(G, N - 1) if N > 0 else None",
     "base = _nerve.__wrapped__(G, N - 1) if N > 0 else None",
     [SIM_TESTS + "::test_each_truncation_sits_on_the_one_below[nerve]"]),
    ("wbar-level-on-a-fresh-base", SIM,
     "_wbar(A, N - 1) if N > 0 else None)",
     "_wbar.__wrapped__(A, N - 1) if N > 0 else None)",
     [SIM_TESTS + "::test_each_truncation_sits_on_the_one_below[wbar]"]),
    ("zero-map-per-truncation", SIM,
     'return _map_by_levels(NG, Wb, 2, "zero map",',
     'return _map_by_levels(NG, Wb, 2, ("zero map", truncation),',
     [SIM_TESTS + "::test_cocycle_maps_of_both_truncations_check_one_base"]),
    ("nerve-guards-its-base-first", SIM,
     "    _guard_level(ng**N)\n    base = _nerve(G, N - 1) if N > 0 else None\n",
     "    base = _nerve(G, N - 1) if N > 0 else None\n    _guard_level(ng**N)\n",
     [SIM_TESTS + "::test_too_large_towers_are_refused_at_the_same_level[nerve-4]"]),
    ("nerve-accepts-negative-truncations", SIM,
     "    _check_nonnegative(N)\n    return _nerve(G, N)",
     "    return _nerve(G, N)",
     [SIM_TESTS + "::test_negative_truncations_are_refused_without_recursing"]),
    ("whole-map-reads-the-source-tower", SIM,
     "if low_src.truncation == t == low_dst.truncation:",
     "if low_src.truncation == t:",
     [SIM_TESTS + "::test_sets_on_no_base_get_maps_built_whole"]),
    ("mediating-map-trusts-the-projections-tower", SIM,
     "if P.truncation == N and lower.truncation == t:",
     "if P.truncation == N:",
     [SIM_TESTS + "::test_sets_on_no_base_get_maps_built_whole"]),
    # bounds and families that verify_theorem's own guard or another bound
    # used to hide
    ("duskin-guard-floor-divides", COR,
     "_guard_level(G.order**3 * A.order**3)\n    Add, Sub = A.add_array, A.sub_array",
     "_guard_level(G.order**3 // A.order**3)\n    Add, Sub = A.add_array, A.sub_array",
     [COR_TESTS + "::test_malformed_model_arguments_are_refused[duskin-oversized]"]),
    ("default-group-bound-nine", COCHAIN,
     "DEFAULT_MAX_GROUP = 8",
     "DEFAULT_MAX_GROUP = 9",
     [COCHAIN_TESTS + "::test_size_bounds"]),
    ("dihedral-refuses-one", GRP,
     '    if not is_integer(n) or n < 1:\n        raise UnsupportedSpec("dihedral(n)',
     '    if not is_integer(n) or n <= 1:\n        raise UnsupportedSpec("dihedral(n)',
     [GRP_TESTS + "::test_dihedral"]),
    # the coboundary reads the nerve's face rows, and the pentagon reads
    # G's table alone
    ("nerve-builds-its-own-face-rows", SIM,
     "tables[kind][(n, i)] = _face_rows(G, n)[i]",
     "tables[kind][(n, i)] = _face_rows.__wrapped__(G, n)[i]",
     [SIM_TESTS + "::test_nerves_share_the_face_rows_of_each_level"]),
    ("coboundary-first-term-reads-the-last-face", COCHAIN,
     "acc = R.take(rows[0], axis=0)",
     "acc = R.take(rows[-1], axis=0)",
     [COCHAIN_TESTS + "::test_coboundary_matches_oracle"]),
    ("pentagon-product-transposed", TWO,
     "defect -= R.reshape(N, N, N, k)[:, T].reshape(cells)",
     "defect -= R.reshape(N, N, N, k)[:, G.table_array.T.ravel()].reshape(cells)",
     [TWO_TESTS + "::test_pentagon_matches_oracle_on_order_8[D4]"]),
    ("pentagon-reads-the-coboundary", TWO,
     "return _first_nonzero(defect)",
     "return is_cocycle(alpha)",
     [TWO_TESTS + "::test_the_pentagon_does_not_read_the_coboundary"]),
    # one Kan verdict: a set that validates is Kan at a horn type exactly
    # when its filler keys take as many values as the count kept on its
    # base; every other case walks the horns.  Two one-line changes are
    # equivalent and left out: "distinct >= count" (on a set that
    # validates, every signature is a horn, so distinct <= count), and
    # keeping the count on _lower(O, n) rather than _lower(O, n - 1) (the
    # count reads levels 0..n-1 alone, so only where it is kept moves)
    ("kan-verdict-trusts-fewer-keys", SIM,
     "index.distinct == _on_owner(",
     "index.distinct <= _on_owner(",
     [SIM_TESTS + "::test_kan_on_a_base_matches_oracle[real-cap]"]),
    ("kan-verdict-skips-validation", SIM,
     "if validate_simplicial(O)[0] and index.distinct == _on_owner(",
     "if index.distinct == _on_owner(",
     [SIM_TESTS + "::test_kan_on_a_base_matches_oracle[real-cap]"]),
    ("filler-index-counts-every-key", SIM,
     "self.distinct = int(np.count_nonzero(keys[1:] != keys[:-1])) + (len(keys) > 0)",
     "self.distinct = len(keys)",
     [SIM_TESTS + "::test_kan_on_a_base_matches_oracle[real-cap]"]),
    ("horn-count-never-stops", SIM,
     "if count > MAX_CELLS_PER_LEVEL:",
     "if False:",
     [SIM_TESTS + "::test_kan_on_a_base_matches_oracle[low-cap]"]),
    # verdicts that only the negative controls record as failed
    ("w-verdict-always-passes", COR,
     'report.record("simplicial:%s" % tag, ok, witness)',
     'report.record("simplicial:%s" % tag, ok or tag == "w", witness)',
     [CONTROLS]),
    ("decalage-verdict-always-passes", COR,
     'report.record("map:decalage", ok, witness)',
     'report.record("map:decalage", True, witness)',
     [CONTROLS]),
    ("bijective-verdict-always-passes", COR,
     'report.record("iso:bijective", is_isomorphism(iso))',
     'report.record("iso:bijective", True)',
     [CONTROLS]),
]


def copy_tree(dest):
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_tests(tree, tests):
    """Whether the tests pass on the copy at tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main(names):
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print("unknown mutants: %s" % ", ".join(sorted(unknown)))
        return 1
    failures = 0
    for name, path, fragment, _, _ in chosen:
        count = (ROOT / path).read_text(encoding="utf-8").count(fragment)
        if count != 1:
            print("STALE     %s: fragment occurs %d times in %s" % (name, count, path))
            failures += 1
    if failures:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp) / "clean"
        copy_tree(tree)
        tests = sorted({t for m in chosen for t in m[4]})
        if not run_tests(tree, tests):
            print("the named tests fail on the unmutated source")
            return 1
        for name, path, fragment, replacement, tests in chosen:
            tree = pathlib.Path(tmp) / name
            copy_tree(tree)
            source = tree / path
            source.write_text(source.read_text(encoding="utf-8").replace(fragment, replacement),
                              encoding="utf-8")
            killed = not run_tests(tree, tests)
            print("%s  %s" % ("killed  " if killed else "SURVIVED", name))
            failures += not killed
            shutil.rmtree(tree)
    print("%d of %d mutants survived" % (failures, len(chosen)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
