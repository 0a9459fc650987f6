"""The four workloads: how each draws its inputs, runs one op and checks it.

Every library call goes through a module attribute (`cochain.cohomology`,
not a bound name), so a traced run sees it through the tracer's wrapper.
Checks compare against facts from reference.py or against digests this
benchmark recorded, never against another answer of the code under test
unless the check is exactly that two of its answers agree.
"""

import hashlib
import json
import os
import subprocess
import sys

import reference

from twogrp import cochain, coeff, correspondence, group, twogroup


class Workload:
    """Draws inputs in setup(); blocks() yields lists of items; the run
    stops only between blocks, so every run measures the same mix.

    block_s, when set, is a block's duration at the benchmark's
    introduction, and a run measures seconds // block_s blocks instead of
    stopping on the clock.  Workloads whose blocks take seconds set it:
    with a clock, noise would change the op count, and with it which op
    the tail percentile picks."""

    name = None
    block_s = None

    def __init__(self, size, tracer=None):
        self.size = size
        self.tracer = tracer

    def setup(self, rng):
        raise NotImplementedError

    def blocks(self, rng):
        raise NotImplementedError

    def run_op(self, item):
        raise NotImplementedError

    def check(self, item, out):
        """None when the output is right, else a one-line reason."""
        raise NotImplementedError

    def describe(self, item):
        """(kind of op, order of its group or None), for per-kind figures."""
        return "op", None


# ---------------------------------------------------------------------------
# theorem-sweep


THEOREM_GROUPS = {
    "full": ["cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6",
             "product:cyclic:2,cyclic:2", "dihedral:3"],
    "tiny": ["cyclic:1", "cyclic:2", "cyclic:3"],
}
THEOREM_COEFFS = [(2,), (3,), (4,), (2, 2)]


def spread_order(costs, rng):
    """A seeded order of range(len(costs)) in which every prefix spreads
    evenly over the items ranked by cost.  The item of rank k (ties in
    seeded order) gets the key frac(u + k * phi) for a uniform u, the
    Kronecker sequence: each item falls in a prefix of any given share
    with that probability, and the rare costly classes cannot all land in
    one run's prefix or all miss it."""
    tiebreak = [rng.random() for _ in costs]
    ranked = sorted(range(len(costs)), key=lambda i: (costs[i], tiebreak[i]))
    u, phi = rng.random(), (5 ** 0.5 - 1) / 2
    keys = {i: (u + k * phi) % 1.0 for k, i in enumerate(ranked)}
    return sorted(ranked, key=keys.__getitem__)


class TheoremSweep(Workload):
    """One op: the lex-minimal representative of a class, then
    verify_theorem on it, as `theorem verify --all-classes` does."""

    name = "theorem-sweep"

    def setup(self, rng):
        strata = []
        for spec in THEOREM_GROUPS[self.size]:
            G = group.group_construct(spec)
            for factors in THEOREM_COEFFS:
                A = coeff.AbelianGroup(factors)
                res = cochain.cohomology(G, A, 3)
                strata.append((G, A, res, res.all_class_coordinates()))
        # |G|^3 |A|^3, the size of the Duskin nerve's top level, ranks the
        # cost of a verify.
        classes = [(s[:3], coords) for s in strata for coords in s[3]]
        costs = [(G.order * A.order) ** 3 for (G, A, _res), _coords in classes]
        self.items = [classes[i] for i in spread_order(costs, rng)]
        self._alpha_ok = {}

    def blocks(self, rng):
        while True:
            for item in self.items:
                yield [item]

    def run_op(self, item):
        (G, A, res), coords = item
        alpha = res.lex_minimal_representative(res.cochain_from_coordinates(coords))
        return alpha, correspondence.verify_theorem(alpha)

    def describe(self, item):
        (G, A, _res), _coords = item
        return "%s/%s" % (G.name, list(A.invariant_factors)), G.order

    def check(self, item, out):
        (G, A, _res), coords = item
        alpha, report = out
        if report.ok is not True:
            bad = [s["name"] for s in report.stages if not s["ok"]]
            return "report not ok: %s" % bad
        names = [s["name"] for s in report.stages]
        if names != reference.THEOREM_STAGES:
            return "stage list %s" % names
        g, a = G.order, A.order
        levels = [1, g, g * g * a, g ** 3 * a ** 3]
        for key in ("duskin_levels", "pullback_levels", "fiber_product_levels"):
            if report.counts.get(key) != levels:
                return "%s = %s, expected %s" % (key, report.counts.get(key), levels)
        key = (G.name, A.invariant_factors, coords)
        if key not in self._alpha_ok:
            self._alpha_ok[key] = reference.is_normalized_cocycle(
                G.table, g, A.invariant_factors, 3, alpha.values
            )
        if not self._alpha_ok[key]:
            return "representative is not a normalized cocycle"
        return None


# ---------------------------------------------------------------------------
# cohomology-classify


# (Smith-bound groups, their coefficients, orbit-bound pairs with their
# count per block).  D4/Z2 and C2xC4/Z2 cost the same (about 7.7 s), so
# the seed's draw between them leaves a block's work unchanged; with Z4
# both take about 10.5 s.  The eleven sub-second S3 and D3 ops of 15 hold
# both the median op (the 8th) and the tail op (the 5th, the highest with
# ten beyond it) inside their cluster, away from its edges, where one op
# caught in a burst of machine speed would move them.  A block is about
# 19 s.
CLASSIFY_POOL = {
    "full": (["dihedral:4", "product:cyclic:2,cyclic:4"], (2,),
             [(("product:cyclic:2,cyclic:2", (2, 2)), 2), (("cyclic:7", (7,)), 1),
              (("symmetric:3", (6,)), 6), (("dihedral:3", (2, 2)), 5)]),
    "tiny": (["cyclic:4"], (4,), [(("cyclic:2", (2,)), 5), (("cyclic:3", (3,)), 5)]),
}


class CohomologyClassify(Workload):
    """One op: cohomology_classes_mod_aut(G, A, 3).  A block holds one
    Smith-bound op, its group drawn from the seed, and the orbit-bound
    pairs a fixed number of times each, in seeded order."""

    name = "cohomology-classify"
    block_s = 19.0

    def setup(self, rng):
        smith_groups, smith_factors, orbit_pairs = CLASSIFY_POOL[self.size]
        self.objects = {}
        pairs = [(g, smith_factors) for g in smith_groups]
        for spec, factors in pairs + [pair for pair, _count in orbit_pairs]:
            self.objects[(spec, factors)] = (group.group_construct(spec),
                                             coeff.AbelianGroup(factors))
        self._rep_ok = {}

    def blocks(self, rng):
        smith_groups, smith_factors, orbit_pairs = CLASSIFY_POOL[self.size]
        while True:
            keys = [(rng.choice(smith_groups), smith_factors)]
            keys += [pair for pair, count in orbit_pairs for _ in range(count)]
            rng.shuffle(keys)
            yield [(k,) + self.objects[k] for k in keys]

    def run_op(self, item):
        _key, G, A = item
        reps, count, res = cochain.cohomology_classes_mod_aut(G, A, 3)
        return reps, count, list(res.invariant_factors), res.class_count

    def describe(self, item):
        key, G, _A = item
        return "%s/%s" % (key[0], list(key[1])), G.order

    def check(self, item, out):
        key, G, A = item
        reps, count, factors, class_count = out
        want_factors, want_orbits = reference.CLASSIFY_TABLE[key]
        if factors != want_factors:
            return "%s invariant factors %s, expected %s" % (key, factors, want_factors)
        if count != want_orbits or len(reps) != want_orbits:
            return "%s orbit count %s (%d reps), expected %d" % (
                key, count, len(reps), want_orbits)
        expected_classes = 1
        for f in want_factors:
            expected_classes *= f
        if class_count != expected_classes:
            return "%s class count %s, expected %d" % (key, class_count, expected_classes)
        if len({rep.values for rep in reps}) != len(reps):
            return "%s repeated representative" % (key,)
        for rep in reps:
            if rep.values not in self._rep_ok:
                self._rep_ok[rep.values] = reference.is_normalized_cocycle(
                    G.table, G.order, A.invariant_factors, 3, rep.values
                )
            if not self._rep_ok[rep.values]:
                return "%s representative is not a normalized cocycle" % (key,)
        return None


# ---------------------------------------------------------------------------
# cochain-screen


# (group, slots per block).  D3 fills two thirds of a block so that the
# median op is a D3 cocycle, whose full scans time more steadily than the
# allocation-heavy coboundary that dominates an order-8 uniform cochain.
SCREEN_GROUPS = {
    "full": [("dihedral:3", 4), ("dihedral:4", 1), ("product:cyclic:2,cyclic:4", 1)],
    "tiny": [("dihedral:3", 1)],
}
SCREEN_COEFFS = [(2,), (4,), (2, 2)]
SCREEN_KINDS = ["random", "coboundary"]
SCREEN_BLOCKS = 6


class CochainScreen(Workload):
    """One op: coboundary, is_cocycle and check_pentagon on one normalized
    3-cochain.  Half are uniform (the scans exit early), half are d(b) of a
    uniform 2-cochain (cocycles, so the scans run to the end).  A block
    holds every (group slot, coefficients, kind) once, in seeded order."""

    name = "cochain-screen"

    def setup(self, rng):
        combos = []
        for spec, slots in SCREEN_GROUPS[self.size]:
            G = group.group_construct(spec)
            for factors in SCREEN_COEFFS:
                combos += [(G, coeff.AbelianGroup(factors))] * slots
        self.pool = []
        for _ in range(SCREEN_BLOCKS):
            block = [(G, A, kind) for G, A in combos for kind in SCREEN_KINDS]
            rng.shuffle(block)
            items = []
            for G, A, kind in block:
                f = A.invariant_factors
                if kind == "random":
                    values = reference.random_normalized(rng, G.order, f, 3)
                else:
                    b = reference.random_normalized(rng, G.order, f, 2)
                    values = reference.coboundary_values(G.table, G.order, f, 2, b)
                items.append((len(self.pool) * len(block) + len(items), kind,
                              cochain.Cochain(G, A, 3, values)))
            self.pool.append(items)
        self._ref = {}

    def blocks(self, rng):
        while True:
            for block in self.pool:
                yield block

    def run_op(self, item):
        _idx, _kind, c = item
        d = cochain.coboundary(c)
        ok, witness = cochain.is_cocycle(c)
        pent_ok, pent_witness = twogroup.check_pentagon(c)
        return d.values, ok, witness, pent_ok, pent_witness

    def describe(self, item):
        _idx, kind, c = item
        return "%s/%s/%s" % (c.group.name, list(c.coeffs.invariant_factors), kind), c.group.order

    def check(self, item, out):
        idx, kind, c = item
        d_values, ok, witness, pent_ok, pent_witness = out
        G, f = c.group, c.coeffs.invariant_factors
        if idx not in self._ref:
            self._ref[idx] = reference.coboundary_values(G.table, G.order, f, 3, c.values)
        ref = self._ref[idx]
        if list(d_values) != ref:
            return "coboundary differs from the direct bar coboundary"
        # coboundary(c) equals ref, so its first nonzero entry is `first`
        first = reference.first_nonzero(ref)
        if kind == "coboundary" and first is not None:
            return "d(d b) is not zero"
        want_ok = first is None
        want_witness = None if want_ok else reference.unflatten(first, G.order, 4)
        if ok != want_ok:
            return "is_cocycle says %s, expected %s" % (ok, want_ok)
        if witness != want_witness:
            return "is_cocycle witness %s, expected %s" % (witness, want_witness)
        if pent_ok != ok or pent_witness != witness:
            return "check_pentagon (%s, %s) disagrees with is_cocycle" % (pent_ok, pent_witness)
        return None


# ---------------------------------------------------------------------------
# cli-cold


CLI_CALLS = {
    "full": [
        [("theorem-c4", ["theorem", "verify", "--group", "cyclic:4", "--coeffs", "4",
                         "--all-classes"])],
        [("theorem-v4", ["theorem", "verify", "--group", "product:cyclic:2,cyclic:2",
                         "--coeffs", "2", "--all-classes"])],
        [("cohomology-d3", ["cohomology", "--group", "dihedral:3", "--coeffs", "2,2"])],
        [("classes-v4", ["cocycle", "classes-mod-aut", "--group", "product:cyclic:2,cyclic:2",
                         "--coeffs", "2,2"])],
        [("sset-nerve", ["sset", "nerve", "--group", "dihedral:3", "--trunc", "3",
                         "-o", "nerve.json"]),
         ("sset-validate", ["sset", "validate", "nerve.json"]),
         ("sset-kan", ["sset", "kan", "nerve.json"])],
        [("cocycle-verify", ["cocycle", "verify", "{alpha}"])],
        [("twogroup-check", ["twogroup", "check", "--cocycle", "{alpha}"])],
    ],
    "tiny": [
        [("theorem-c2", ["theorem", "verify", "--group", "cyclic:2", "--coeffs", "2",
                         "--all-classes"])],
        [("cohomology-c3", ["cohomology", "--group", "cyclic:3", "--coeffs", "3"])],
        [("classes-c3", ["cocycle", "classes-mod-aut", "--group", "cyclic:3", "--coeffs", "3"])],
        [("sset-nerve-c2", ["sset", "nerve", "--group", "cyclic:2", "--trunc", "3",
                            "-o", "nerve.json"]),
         ("sset-validate-c2", ["sset", "validate", "nerve.json"]),
         ("sset-kan-c2", ["sset", "kan", "nerve.json"])],
        [("cocycle-verify", ["cocycle", "verify", "{alpha}"])],
        [("twogroup-check", ["twogroup", "check", "--cocycle", "{alpha}"])],
    ],
}
# Cocycle files: the standard cocycles alpha_k of Z_4 with Z_4 coefficients.
CLI_COCYCLE_N = 4
CLI_TIMEOUT_S = 120

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "cli_digests.json")


def write_cocycle_files(workdir):
    for k in range(CLI_COCYCLE_N):
        obj = {
            "group": "cyclic:%d" % CLI_COCYCLE_N,
            "coeffs": {"invariant_factors": [CLI_COCYCLE_N]},
            "degree": 3,
            "values": reference.cyclic_cocycle_values(CLI_COCYCLE_N, k),
        }
        with open(os.path.join(workdir, "alpha%d.json" % k), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)


def cli_argv(argv, alpha):
    return [a.replace("{alpha}", "alpha%d.json" % alpha) for a in argv]


def digest_key(call_id, argv):
    """Calls that read a drawn cocycle file are keyed by the file too."""
    files = [a for a in argv if a.startswith("alpha")]
    return call_id if not files else "%s:%s" % (call_id, files[0])


def cli_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


class CliCold(Workload):
    """One op: one `python -m twogrp.cli --format json ...` call in a fresh
    interpreter.  A block is the fixed call list, in seeded order; the sset
    calls stay in order because validate and kan read what nerve wrote.
    A block takes about 6 s, so a 20 s run measures three: 27 calls."""

    name = "cli-cold"
    block_s = 6.0

    def __init__(self, size, tracer=None, workdir=None, src=None):
        super().__init__(size, tracer)
        self.workdir = workdir
        self.src = src
        self.trace_files = []

    def setup(self, rng):
        os.makedirs(self.workdir, exist_ok=True)
        write_cocycle_files(self.workdir)
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            self.digests = json.load(fh)
        self.env = cli_env(self.src)

    def blocks(self, rng):
        while True:
            groups = list(CLI_CALLS[self.size])
            rng.shuffle(groups)
            block = []
            for calls in groups:
                for call_id, argv in calls:
                    argv = cli_argv(argv, rng.randrange(CLI_COCYCLE_N))
                    block.append((call_id, argv))
            yield block

    def run_op(self, item):
        _call_id, argv = item
        if self.tracer is None:
            cmd = [sys.executable, "-m", "twogrp.cli"]
        else:
            spans = os.path.join(self.workdir, "call%d.spans.json" % len(self.trace_files))
            self.trace_files.append(spans)
            cmd = [sys.executable, os.path.join(HERE, "cli_launcher.py"), "--spans", spans, "--"]
        proc = subprocess.run(cmd + ["--format", "json"] + argv, cwd=self.workdir,
                              env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def describe(self, item):
        return item[0], None

    def check(self, item, out):
        call_id, argv = item
        code, stdout = out
        if code != 0:
            return "%s exited %d" % (call_id, code)
        key = digest_key(call_id, argv)
        want = self.digests.get(key)
        got = hashlib.sha256(stdout).hexdigest()
        if got != want:
            return "%s stdout sha256 %s, recorded %s" % (key, got[:12], want and want[:12])
        return None


WORKLOADS = {w.name: w for w in (TheoremSweep, CohomologyClassify, CochainScreen, CliCold)}


def all_digest_calls(size):
    """Every (key, argv) the cli-cold workload of that size can make."""
    out = []
    for calls in CLI_CALLS[size]:
        for call_id, argv in calls:
            variants = range(CLI_COCYCLE_N) if any("{alpha}" in a for a in argv) else [0]
            for k in variants:
                full = cli_argv(argv, k)
                out.append((digest_key(call_id, full), full))
    return out

