"""Command-line front end.

Verbs: group | cohomology | cocycle | twogroup | sset | theorem.  Reports go
to stdout (JSON with sorted keys, or fixed-width text); diagnostics to
stderr.  Exit codes: 0 pass, 1 mathematical failure, 2 usage or IO error.
JSON output is byte-stable for fixed inputs; wall-clock timing appears only
in text output.  Nothing draws randomness, so the global --seed option is
accepted and has no effect.
"""

import argparse
import json
import sys
import time

from .coeff import AbelianGroup
from .cochain import (
    Cochain,
    cocycle_solve,
    cohomology,
    cohomology_classes_mod_aut,
    is_cocycle,
)
from .errors import DegreeMismatch, ParseError, TwogrpError
from .group import FiniteGroup, group_automorphisms, group_construct
from .simplicial import TruncatedSSet, is_kan, nerve_bg, validate_simplicial
from .twogroup import (
    TwoGroupSkeleton,
    check_pentagon,
    check_triangle,
    duality_data,
    monoidal_functor_check,
)
from .correspondence import verify_theorem

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON in %s: %s" % (path, exc))
    except RecursionError:
        raise ParseError("JSON in %s is nested too deeply" % path)


def load_group(spec_or_path):
    """A group from a spec string like 'cyclic:4' or a JSON file path.
    Table invariants are revalidated either way."""
    if ":" in spec_or_path and not spec_or_path.endswith(".json"):
        return group_construct(spec_or_path)
    obj = _load_json(spec_or_path)
    return FiniteGroup.from_json(obj)


def load_coeffs(spec):
    """Invariant factors from a string like '2' or '2,2'."""
    try:
        factors = [int(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError:
        raise ParseError("bad coefficient spec %r" % spec)
    if not factors:
        raise ParseError("empty coefficient spec %r" % spec)
    return AbelianGroup(factors)


def load_cocycle(path):
    """A cochain from its JSON file; the group field may be a spec string.
    All invariants are revalidated on load."""
    obj = _load_json(path)
    try:
        group_field = obj["group"]
        group = (
            group_construct(group_field)
            if isinstance(group_field, str)
            else FiniteGroup.from_json(group_field)
        )
        coeffs = AbelianGroup.from_json(obj["coeffs"])
        return Cochain.from_json(obj, group=group, coeffs=coeffs)
    except (DegreeMismatch, ParseError) as exc:
        raise ParseError("malformed cocycle file %s: %s" % (path, exc))
    except (KeyError, TypeError) as exc:
        raise ParseError("malformed cocycle file %s: %r" % (path, exc))


def emit(report, fmt, elapsed_ms):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        _emit_text(report, elapsed_ms)


def _emit_text(report, elapsed_ms, indent=0):
    pad = "  " * indent
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            print("%s%-24s" % (pad, key + ":"))
            _emit_text(value, None, indent + 1)
        else:
            print("%s%-24s %s" % (pad, key + ":", value))
    if indent == 0:
        if elapsed_ms is not None:
            print("%-24s %d" % ("elapsed_ms:", elapsed_ms))
        print("RESULT: %s" % ("PASS" if report.get("ok", True) else "FAIL"))


# ---------------------------------------------------------------------------
# verb handlers; each returns (report dict, ok flag)


def run_group(args):
    g = load_group(args.spec)
    report = {"ok": True, "group": g.to_json()}
    if args.automorphisms:
        auts = group_automorphisms(g)
        report["automorphisms"] = auts.tolist()
        report["automorphism_count"] = len(auts)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(g.to_json(), fh, sort_keys=True, indent=2)
        report["written"] = args.output
    return report, True


def run_cohomology(args):
    G = load_group(args.group)
    A = load_coeffs(args.coeffs)
    res = cohomology(G, A, args.degree, max_group=args.max_group,
                     max_coeffs=args.max_coeffs)
    report = {
        "ok": True,
        "group": {"name": G.name, "order": G.order},
        "coeffs": list(A.invariant_factors),
        "degree": args.degree,
        "invariant_factors": list(res.invariant_factors),
        "class_count": res.class_count,
        "representatives": [c.to_json()["values"] for c in res.representatives],
    }
    return report, True


def run_cocycle(args):
    if args.subaction == "verify":
        c = load_cocycle(args.file)
        ok, witness = is_cocycle(c)
        normalized = c.is_normalized()
        report = {
            "ok": ok and normalized,
            "is_cocycle": ok,
            "normalized": normalized,
            "witness": list(witness) if witness else None,
        }
        return report, ok and normalized
    if args.subaction == "solve":
        G = load_group(args.group)
        A = load_coeffs(args.coeffs)
        basis = cocycle_solve(G, A, args.degree, max_group=args.max_group,
                              max_coeffs=args.max_coeffs)
        report = {
            "ok": True,
            "generator_orders": list(basis.orders),
            "subgroup_order": basis.subgroup_order,
            "generators": [c.to_json()["values"] for c in basis.generators],
        }
        return report, True
    if args.subaction == "classes-mod-aut":
        G = load_group(args.group)
        A = load_coeffs(args.coeffs)
        reps, count, res = cohomology_classes_mod_aut(
            G, A, max_group=args.max_group, max_coeffs=args.max_coeffs
        )
        report = {
            "ok": True,
            "class_count": res.class_count,
            "orbit_count": count,
            "orbit_representatives": [c.to_json()["values"] for c in reps],
        }
        return report, True
    raise ParseError("unknown cocycle subaction %r" % args.subaction)


def run_twogroup(args):
    if args.subaction == "check":
        alpha = load_cocycle(args.cocycle)
        TwoGroupSkeleton(alpha)
        pent_ok, pent_w = check_pentagon(alpha)
        tri_ok, tri_w = check_triangle(alpha)
        report = {
            "ok": pent_ok and tri_ok,
            "pentagon": {"ok": pent_ok, "witness": list(pent_w) if pent_w else None},
            "triangle": {"ok": tri_ok, "witness": list(tri_w) if tri_w else None},
        }
        return report, pent_ok and tri_ok
    if args.subaction == "duality":
        alpha = load_cocycle(args.cocycle)
        TwoGroupSkeleton(alpha)
        pairs = duality_data(alpha, args.element)
        report = {
            "ok": bool(pairs),
            "element": args.element,
            "dual": alpha.group.inv(args.element),
            "pairs": [[list(ev), list(coev)] for ev, coev in pairs],
        }
        return report, bool(pairs)
    if args.subaction == "functor":
        src = load_cocycle(getattr(args, "from"))
        dst = load_cocycle(args.to)
        j = load_cocycle(args.coherence)
        ok, witness = monoidal_functor_check(src, dst, j)
        report = {"ok": ok, "witness": list(witness) if witness else None}
        return report, ok
    raise ParseError("unknown twogroup subaction %r" % args.subaction)


def run_sset(args):
    if args.subaction == "validate":
        X = TruncatedSSet.from_json(_load_json(args.file))
        ok, witness = validate_simplicial(X)
        return {"ok": ok, "witness": witness}, ok
    if args.subaction == "kan":
        X = TruncatedSSet.from_json(_load_json(args.file))
        ok, witness = is_kan(X, up_to=args.up_to)
        report = {"ok": ok}
        if witness is not None:
            report["witness"] = witness.to_json()
        return report, ok
    if args.subaction == "nerve":
        G = load_group(args.group)
        X = nerve_bg(G, args.trunc)
        obj = X.to_json()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(obj, fh, sort_keys=True, indent=2)
            return {"ok": True, "written": args.output,
                    "levels": obj["levels"]}, True
        return {"ok": True, "sset": obj}, True
    raise ParseError("unknown sset subaction %r" % args.subaction)


def run_theorem(args):
    G = load_group(args.group)
    A = load_coeffs(args.coeffs)
    if args.cocycle:
        alpha = load_cocycle(args.cocycle)
        if alpha.group != G or alpha.coeffs != A:
            raise ParseError("cocycle file %s is over %s with coefficients %s, not %s with %s" % (
                args.cocycle, alpha.group.name, list(alpha.coeffs.invariant_factors),
                G.name, list(A.invariant_factors)))
        alphas = [("file:%s" % args.cocycle, alpha)]
    elif args.all_classes:
        res = cohomology(G, A, 3, max_group=args.max_group,
                         max_coeffs=args.max_coeffs)
        coords = res.all_class_coordinates()
        alphas = [("class:%s" % ",".join(map(str, c)), rep)
                  for c, rep in zip(coords, res.representatives_of(coords))]
    else:
        alphas = [("zero", Cochain.zero(G, A, 3))]
    entries = []
    all_ok = True
    for tag, alpha in alphas:
        rep = verify_theorem(alpha)
        entries.append({"input": tag, "report": rep.to_json()})
        all_ok = all_ok and rep.ok
    report = {
        "ok": all_ok,
        "group": {"name": G.name, "order": G.order},
        "coeffs": list(A.invariant_factors),
        "classes": entries,
    }
    return report, all_ok


def _at_least(name, low):
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("%s must be >= %d, got %d" % (name, low, value))
        return value

    parse.__name__ = "integer"  # argparse names the type in its error message
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twogrp",
        description="Exact group cohomology, skeletal 2-groups, and their "
        "simplicial correspondence.",
    )
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-group", type=int, default=8)
    parser.add_argument("--max-coeffs", type=int, default=8)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("group", help="construct or inspect a finite group")
    p.add_argument("spec", help="spec string (cyclic:4, ...) or JSON file")
    p.add_argument("--automorphisms", action="store_true")
    p.add_argument("-o", "--output")

    p = sub.add_parser("cohomology", help="compute H^n(G, A)")
    p.add_argument("--group", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--degree", type=_at_least("degree", 0), default=3)

    p = sub.add_parser("cocycle", help="verify, solve, or classify cocycles")
    psub = p.add_subparsers(dest="subaction", required=True)
    pv = psub.add_parser("verify")
    pv.add_argument("file")
    ps = psub.add_parser("solve")
    ps.add_argument("--group", required=True)
    ps.add_argument("--coeffs", required=True)
    ps.add_argument("--degree", type=_at_least("degree", 0), default=3)
    pc = psub.add_parser("classes-mod-aut")
    pc.add_argument("--group", required=True)
    pc.add_argument("--coeffs", required=True)

    p = sub.add_parser("twogroup", help="skeletal 2-group checks")
    psub = p.add_subparsers(dest="subaction", required=True)
    pc = psub.add_parser("check")
    pc.add_argument("--cocycle", required=True)
    pd = psub.add_parser("duality")
    pd.add_argument("--cocycle", required=True)
    pd.add_argument("--element", type=int, required=True)
    pf = psub.add_parser("functor")
    pf.add_argument("--from", required=True)
    pf.add_argument("--to", required=True)
    pf.add_argument("--coherence", required=True)

    p = sub.add_parser("sset", help="truncated simplicial set operations")
    psub = p.add_subparsers(dest="subaction", required=True)
    pv = psub.add_parser("validate")
    pv.add_argument("file")
    pk = psub.add_parser("kan")
    pk.add_argument("file")
    pk.add_argument("--up-to", type=_at_least("up-to", 1), default=3)
    pn = psub.add_parser("nerve")
    pn.add_argument("--group", required=True)
    pn.add_argument("--trunc", type=_at_least("trunc", 0), default=3)
    pn.add_argument("-o", "--output")

    p = sub.add_parser("theorem", help="verify the nerve/pullback theorem")
    psub = p.add_subparsers(dest="subaction", required=True)
    pv = psub.add_parser("verify")
    pv.add_argument("--group", required=True)
    pv.add_argument("--coeffs", required=True)
    group_or_all = pv.add_mutually_exclusive_group()
    group_or_all.add_argument("--cocycle")
    group_or_all.add_argument("--all-classes", action="store_true")

    return parser


HANDLERS = {
    "group": run_group,
    "cohomology": run_cohomology,
    "cocycle": run_cocycle,
    "twogroup": run_twogroup,
    "sset": run_sset,
    "theorem": run_theorem,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    start = time.monotonic()
    try:
        report, ok = HANDLERS[args.verb](args)
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except TwogrpError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
    elapsed_ms = int((time.monotonic() - start) * 1000)
    emit(report, args.format, elapsed_ms)
    return EXIT_PASS if ok else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
