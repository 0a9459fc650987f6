"""One table-driven sweep over the public contract.

Every name in twogrp.__all__, every argument-taking public method of the
classes it exports, and the methods of the CohomologyResult that
cohomology returns must answer a malformed argument with a TwogrpError.
CATALOGUE lists, per public name, one valid call of each entry point with
the kind of each argument.  The sweep checks that the valid call answers,
then replaces one argument at a time by every value that BAD lists for its
kind; each such call must raise a TwogrpError.
"""

import inspect

import pytest

import twogrp
from twogrp import (
    AbelianGroup,
    Cochain,
    FiniteGroup,
    Horn,
    SimplicialMap,
    TheoremReport,
    TruncatedSSet,
    TwoGroupSkeleton,
)
from twogrp.cochain import CohomologyResult
from twogrp.errors import TwogrpError
from twogrp.simplicial import _lower, identity_map

# Bad values per kind of parameter.  An index must lie in a range below 99.
BAD = {
    "object": (5, None, [1], "x"),
    "optional object": (5, [1], "x"),  # None is allowed
    "integer": (2.5, "3", True, [3], None),
    "optional integer": (2.5, "3", True, [3], -1),  # None is allowed
    "index": (2.5, "3", True, [3], None, -1, 99),
    "element": (5, None, [1, 0], (2.5,), ("a",), (7,), (-1,)),  # of Z2
    "argument tuple": (5, None, (0, 0), (0, 0, 2.5), (0, 0, "a"), (0, 0, 9)),  # of C2^3
    "coordinates": (5, None, ("a",), (2.5,), (0, 0)),  # of H^3(C2, Z2)
    "coordinate rows": (5, None, [5], [("a",)], [(2.5,)], [(0, 0)]),
    "factors": (5, None, [1], [2.5], ["3"], [True]),
    "table": (5, None, [1], [[0, 1], 5]),
    "faces": (5, None, [1], "x", {1: 0, 2: "a"}, {1: 0, 2: 2.5}, {"a": 0, 2: 0}),
    "tables": (5, None, [1], "x", {"a": [0]}, {(1,): [0]}, {(1, 0, 0): [0]}),
    "levels": (5, None, [5]),
    "components": (5, None, [1], [[0], 5]),
    "values": (5, None, [1], "x"),
    "function": (5, None),
    "spec": (5, None, [1], "x"),
    "json": (5, None, [1], "x", {}),
    "automorphism": (5, None, [1], ["a", "b"], [1, 0]),
    "any": (),  # labels and verdicts, stored as given
}

# Public methods that take arguments and are deliberately left unchecked.
BARE = {
    # the element arithmetic is coeff.py's hot path; arguments are checked
    # on entry into the library with check()
    "AbelianGroup.add", "AbelianGroup.neg", "AbelianGroup.sub", "AbelianGroup.scale",
}

# Exported names that are not entry points.
NOT_CALLED = {"TwogrpError": "the exception class: it takes any message"}

C2, Z2 = twogrp.cyclic(2), AbelianGroup([2])
ALPHA = Cochain.zero(C2, Z2, 3)
SKELETON = TwoGroupSkeleton(ALPHA)
NERVE = twogrp.nerve_bg(C2, 3)
IDENTITY = identity_map(NERVE)
HORN = Horn(2, 0, {1: 0, 2: 0})
RESULT = twogrp.cohomology(C2, Z2, 3)
DUSKIN, MODEL = twogrp.duskin_nerve(SKELETON), twogrp.pullback_model(SKELETON)
REPORT = TheoremReport(C2, Z2)
POINT_AND_EDGE = (1, [range(1), range(2)], {(1, 0): [0, 0], (1, 1): [0, 0]}, {(0, 0): [0]})
# a base for maps of the nerve: the identity of its levels 0..2.  The bad
# bases: no map, a map between other sets (an equal nerve read from JSON is
# built on no base, so it is not levels 0..2 of NERVE), a map whose
# truncation is not below the nerve's, and one of levels 0..1, too low for
# a component of level 3 alone
BASE = identity_map(_lower(NERVE, 2))
BAD["base"] = (5, [1], "x",
               identity_map(TruncatedSSet.from_json(twogrp.nerve_bg(C2, 2).to_json())),
               IDENTITY, identity_map(_lower(NERVE, 1)))


def args(*pairs):
    return [pairs[k:k + 2] for k in range(0, len(pairs), 2)]


# G, A, the degree, max_group and max_coeffs
GROUP_COEFFS_DEGREE = args("object", C2, "object", Z2, "integer", 3, "integer", 8, "integer", 8)


# per public name: (label, callable, [(kind, valid value), ...]) per entry point
CATALOGUE = {
    "AbelianGroup": [
        ("AbelianGroup", AbelianGroup, args("factors", [2])),
        ("AbelianGroup.check", Z2.check, args("element", (1,))),
        ("AbelianGroup.index", Z2.index, args("element", (1,))),
        ("AbelianGroup.from_json", AbelianGroup.from_json, args("json", Z2.to_json())),
    ],
    "Cochain": [
        ("Cochain", Cochain, args("object", C2, "object", Z2, "integer", 3,
                                  "values", [(0,)] * 8)),
        ("Cochain.zero", Cochain.zero, args("object", C2, "object", Z2, "integer", 3)),
        ("Cochain.from_function", Cochain.from_function,
         args("object", C2, "object", Z2, "integer", 3, "function", lambda *g: (0,))),
        ("Cochain.flat_index", ALPHA.flat_index, args("argument tuple", (0, 1, 1))),
        ("Cochain.value", ALPHA.value, args("argument tuple", (0, 1, 1))),
        ("Cochain.add", ALPHA.add, args("object", ALPHA)),
        ("Cochain.sub", ALPHA.sub, args("object", ALPHA)),
        ("Cochain.scale", ALPHA.scale, args("integer", 3)),
        ("Cochain.from_json", Cochain.from_json,
         args("json", ALPHA.to_json(), "optional object", C2, "optional object", Z2)),
    ],
    "FiniteGroup": [
        ("FiniteGroup", FiniteGroup, args("table", [[0, 1], [1, 0]], "any", "C2")),
        ("FiniteGroup.mul", C2.mul, args("index", 0, "index", 1)),
        ("FiniteGroup.inv", C2.inv, args("index", 1)),
        ("FiniteGroup.element_order", C2.element_order, args("index", 1)),
        ("FiniteGroup.from_json", FiniteGroup.from_json, args("json", C2.to_json())),
    ],
    "Horn": [
        ("Horn", Horn, args("index", 2, "index", 0, "faces", {1: 0, 2: 0})),
    ],
    "SimplicialMap": [
        ("SimplicialMap", SimplicialMap,
         args("object", NERVE, "object", NERVE, "components", IDENTITY.components)),
        ("SimplicialMap-on-a-base", SimplicialMap,
         args("object", NERVE, "object", NERVE, "components", IDENTITY.components[3:],
              "base", BASE)),
        ("SimplicialMap.compose", IDENTITY.compose, args("object", IDENTITY)),
        ("SimplicialMap.__call__", IDENTITY, args("index", 3, "index", 1)),
    ],
    "TheoremReport": [
        ("TheoremReport", TheoremReport, args("object", C2, "object", Z2)),
        ("TheoremReport.record", REPORT.record, args("any", "stage", "any", True, "any", None)),
    ],
    "TruncatedSSet": [
        ("TruncatedSSet", TruncatedSSet,
         args("index", POINT_AND_EDGE[0], "levels", POINT_AND_EDGE[1],
              "tables", POINT_AND_EDGE[2], "tables", POINT_AND_EDGE[3],
              "optional object", None)),
        ("TruncatedSSet.size", NERVE.size, args("index", 3)),
        ("TruncatedSSet.face", NERVE.face, args("index", 3, "index", 0, "index", 5)),
        ("TruncatedSSet.degeneracy", NERVE.degeneracy, args("index", 2, "index", 0, "index", 3)),
        ("TruncatedSSet.from_json", TruncatedSSet.from_json, args("json", NERVE.to_json())),
    ],
    "TwoGroupSkeleton": [
        ("TwoGroupSkeleton", TwoGroupSkeleton, args("object", ALPHA)),
        ("TwoGroupSkeleton.associator", SKELETON.associator,
         args("index", 0, "index", 1, "index", 1)),
    ],
    "TwogrpError": [],
    "are_cohomologous": [("are_cohomologous", twogrp.are_cohomologous,
                          args("object", ALPHA, "object", ALPHA))],
    "canonical_iso": [("canonical_iso", twogrp.canonical_iso,
                       args("object", DUSKIN, "object", MODEL, "object", Z2))],
    "check_pentagon": [("check_pentagon", twogrp.check_pentagon, args("object", ALPHA))],
    "check_triangle": [("check_triangle", twogrp.check_triangle, args("object", ALPHA))],
    "check_zigzag": [("check_zigzag", twogrp.check_zigzag,
                      args("object", ALPHA, "index", 1, "element", (0,), "element", (0,)))],
    "coboundary": [("coboundary", twogrp.coboundary, args("object", ALPHA))],
    "cyclic": [("cyclic", twogrp.cyclic, args("integer", 3))],
    "dihedral": [("dihedral", twogrp.dihedral, args("integer", 3))],
    "cocycle_as_map": [("cocycle_as_map", twogrp.cocycle_as_map,
                        args("object", ALPHA, "integer", 3))],
    "cocycle_solve": [("cocycle_solve", twogrp.cocycle_solve, GROUP_COEFFS_DEGREE)],
    "cohomology": [
        ("cohomology", twogrp.cohomology, GROUP_COEFFS_DEGREE),
        ("CohomologyResult.class_coordinates", RESULT.class_coordinates, args("object", ALPHA)),
        ("CohomologyResult.cochain_from_coordinates", RESULT.cochain_from_coordinates,
         args("coordinates", (1,))),
        ("CohomologyResult.lex_minimal_representative", RESULT.lex_minimal_representative,
         args("object", ALPHA)),
        ("CohomologyResult.representatives_of", RESULT.representatives_of,
         args("coordinate rows", [(1,)])),
    ],
    "cohomology_classes_mod_aut": [("cohomology_classes_mod_aut",
                                    twogrp.cohomology_classes_mod_aut, GROUP_COEFFS_DEGREE)],
    "decalage_map": [("decalage_map", twogrp.decalage_map, args("object", Z2, "index", 3))],
    "duality_data": [("duality_data", twogrp.duality_data, args("object", ALPHA, "index", 1))],
    "duskin_nerve": [("duskin_nerve", twogrp.duskin_nerve, args("object", SKELETON))],
    "fiber_product": [("fiber_product", twogrp.fiber_product,
                       args("object", IDENTITY, "object", IDENTITY))],
    "fillers": [("fillers", twogrp.fillers, args("object", NERVE, "object", HORN))],
    "gamma_a2": [("gamma_a2", twogrp.gamma_a2, args("object", Z2, "index", 3))],
    "group_automorphisms": [("group_automorphisms", twogrp.group_automorphisms,
                             args("object", C2))],
    "group_construct": [("group_construct", twogrp.group_construct, args("spec", "cyclic:2"))],
    "is_cocycle": [("is_cocycle", twogrp.is_cocycle, args("object", ALPHA))],
    "is_kan": [("is_kan", twogrp.is_kan, args("object", NERVE, "optional integer", 3))],
    "monoidal_functor_check": [("monoidal_functor_check", twogrp.monoidal_functor_check,
                                args("object", ALPHA, "object", ALPHA,
                                     "object", Cochain.zero(C2, Z2, 2)))],
    "nerve_bg": [("nerve_bg", twogrp.nerve_bg, args("object", C2, "index", 3))],
    "pull_back_along_automorphism": [("pull_back_along_automorphism",
                                      twogrp.pull_back_along_automorphism,
                                      args("automorphism", [0, 1], "object", ALPHA))],
    "pullback_model": [("pullback_model", twogrp.pullback_model, args("object", SKELETON))],
    "symmetric": [("symmetric", twogrp.symmetric, args("integer", 3))],
    "validate_simplicial": [("validate_simplicial", twogrp.validate_simplicial,
                             args("object", NERVE))],
    "verify_theorem": [("verify_theorem", twogrp.verify_theorem, args("object", ALPHA))],
    "w_b2a": [("w_b2a", twogrp.w_b2a, args("object", Z2, "index", 3))],
    "wbar_b2a": [("wbar_b2a", twogrp.wbar_b2a, args("object", Z2, "index", 3))],
}

ENTRY_POINTS = [entry for entries in CATALOGUE.values() for entry in entries]


def methods_taking_arguments(cls):
    """The public methods of cls, and __call__, that take an argument."""
    names = []
    for name, attr in vars(cls).items():
        if name.startswith("_") and name != "__call__":
            continue
        if isinstance(attr, (classmethod, staticmethod)):
            params = inspect.signature(getattr(cls, name)).parameters
        elif inspect.isfunction(attr):
            params = list(inspect.signature(attr).parameters)[1:]
        else:
            continue
        if params:
            names.append("%s.%s" % (cls.__name__, name))
    return names


def test_every_public_name_is_catalogued():
    assert set(CATALOGUE) == set(twogrp.__all__)
    labels = [label for label, _, _ in ENTRY_POINTS]
    assert len(labels) == len(set(labels))
    for name in twogrp.__all__:
        assert bool(CATALOGUE[name]) != (name in NOT_CALLED), name
        obj = getattr(twogrp, name)
        if isinstance(obj, type) and name not in NOT_CALLED:
            want = {name} | set(methods_taking_arguments(obj)) - BARE
            assert want <= set(labels), sorted(want - set(labels))
    want = set(methods_taking_arguments(CohomologyResult))
    assert want <= set(labels), sorted(want - set(labels))


@pytest.mark.parametrize("label, call, valid", ENTRY_POINTS, ids=[e[0] for e in ENTRY_POINTS])
def test_malformed_arguments_raise_a_twogrp_error(label, call, valid):
    values = [value for _, value in valid]
    call(*values)  # the valid call answers, so every refusal below is the bad value's
    escapes = []
    for k, (kind, _) in enumerate(valid):
        for bad in BAD[kind]:
            try:
                call(*values[:k], bad, *values[k + 1:])
            except TwogrpError:
                continue
            except Exception as exc:  # noqa: BLE001 - an escape is what is looked for
                escapes.append("argument %d = %r: %s: %s" % (k, bad, type(exc).__name__, exc))
            else:
                escapes.append("argument %d = %r: answered" % (k, bad))
    assert not escapes, "\n".join(escapes)
